package store

import "time"

// manualTime is a time source the retention tests move by hand.
type manualTime struct{ t time.Time }

func (m *manualTime) now() time.Time { return m.t }

// Advance moves the time forward by d.
func (m *manualTime) Advance(d time.Duration) { m.t = m.t.Add(d) }

// createAt is CreateWith with the writer's segment birth times read from
// clock instead of the wall clock.
func createAt(dir string, man Manifest, opts Options, clock *manualTime) (*Writer, error) {
	w, err := CreateWith(dir, man, opts)
	if err == nil {
		w.now = clock.now
	}
	return w, err
}
