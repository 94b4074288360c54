package adapt

import (
	"reflect"
	"testing"
	"time"
)

func testPolicy() Policy {
	return Policy{
		SLO:       100 * time.Millisecond,
		Window:    4,
		LowerFrac: 0.7,
		Cooldown:  2,
		MaxLevel:  3,
		QueueHigh: 64,
		DriftHigh: 8,
	}
}

// feed pushes n identical samples.
func feed(c *Controller, n int, s Sample) {
	for i := 0; i < n; i++ {
		c.Observe(s)
	}
}

func TestDisabledControllerInert(t *testing.T) {
	c := NewController(Policy{})
	feed(c, 100, Sample{Latency: time.Hour, QueueDepth: 1 << 20, DeadCameras: 5})
	for i := 0; i < 10; i++ {
		if lvl, changed := c.Tick(); lvl != 0 || changed {
			t.Fatalf("disabled controller moved: level %d changed %v", lvl, changed)
		}
	}
	if c.SLOViolations() != 0 || c.Transitions() != 0 {
		t.Errorf("disabled controller counted: %d violations, %d transitions",
			c.SLOViolations(), c.Transitions())
	}
}

func TestDegradeAndRecoverFullCycle(t *testing.T) {
	c := NewController(testPolicy())
	// Sustained overload walks down one rung per cooldown expiry until
	// MaxLevel.
	over := Sample{Latency: 150 * time.Millisecond}
	prev := 0
	for tick := 0; tick < 20 && c.Level() < 3; tick++ {
		feed(c, 4, over)
		lvl, changed := c.Tick()
		if changed && lvl != prev+1 {
			t.Fatalf("tick %d: jumped %d -> %d (must move one rung)", tick, prev, lvl)
		}
		if changed {
			prev = lvl
		}
	}
	if c.Level() != 3 {
		t.Fatalf("sustained overload stopped at level %d", c.Level())
	}
	feed(c, 4, over)
	if lvl, _ := c.Tick(); lvl != 3 {
		t.Fatalf("exceeded MaxLevel: %d", lvl)
	}
	if c.SizeCap() != 64 || c.Stretch() != 8 {
		t.Fatalf("level 3 actuation: cap %d stretch %d", c.SizeCap(), c.Stretch())
	}

	// Pressure clears: recovery steps back to 0, one rung at a time.
	calm := Sample{Latency: 30 * time.Millisecond}
	for tick := 0; tick < 20 && c.Level() > 0; tick++ {
		feed(c, 4, calm)
		c.Tick()
	}
	if c.Level() != 0 {
		t.Fatalf("did not recover to level 0: %d", c.Level())
	}
	if c.SizeCap() != 0 || c.Stretch() != 1 {
		t.Fatalf("level 0 actuation: cap %d stretch %d", c.SizeCap(), c.Stretch())
	}
	if c.Transitions() != 6 {
		t.Errorf("transitions = %d want 6 (3 down + 3 up)", c.Transitions())
	}
}

func TestHysteresisBandHoldsLevel(t *testing.T) {
	// Latency inside the band (LowerFrac·SLO .. SLO) must neither
	// degrade nor recover: that dead zone is what stops oscillation
	// when load sits exactly at a boundary.
	c := NewController(testPolicy())
	feed(c, 4, Sample{Latency: 150 * time.Millisecond})
	c.Tick()
	if c.Level() != 1 {
		t.Fatalf("setup: level %d", c.Level())
	}
	// 85ms is between 70ms (recover edge) and 100ms (degrade edge).
	band := Sample{Latency: 85 * time.Millisecond}
	for tick := 0; tick < 12; tick++ {
		feed(c, 4, band)
		if lvl, changed := c.Tick(); changed || lvl != 1 {
			t.Fatalf("tick %d: moved to %d inside the hysteresis band", tick, lvl)
		}
	}
}

func TestCooldownPreventsFlappingAtBoundary(t *testing.T) {
	// Load alternating exactly across the SLO boundary every tick: the
	// cooldown must hold each level for ≥ Cooldown ticks, bounding the
	// transition rate to 1 per cooldown period rather than 1 per tick.
	pol := testPolicy()
	pol.Window = 2
	pol.Cooldown = 3
	c := NewController(pol)
	over := Sample{Latency: 101 * time.Millisecond} // just above SLO
	calm := Sample{Latency: 30 * time.Millisecond}  // well below recover edge
	ticks := 30
	for i := 0; i < ticks; i++ {
		if i%2 == 0 {
			feed(c, 2, over)
		} else {
			feed(c, 2, calm)
		}
		c.Tick()
	}
	// Without a cooldown this workload flips every tick (~30
	// transitions); with Cooldown=3 at most one change per 3 ticks.
	if max := ticks/pol.Cooldown + 1; c.Transitions() > max {
		t.Errorf("flapping: %d transitions in %d ticks (cooldown %d allows ≤ %d)",
			c.Transitions(), ticks, pol.Cooldown, max)
	}
	if c.Transitions() == 0 {
		t.Error("controller never moved under boundary load")
	}
}

func TestDeadCameraForcesAndHoldsRungOne(t *testing.T) {
	c := NewController(testPolicy())
	// A dead camera degrades even with latency and queues healthy.
	feed(c, 4, Sample{Latency: 20 * time.Millisecond, DeadCameras: 1})
	if lvl, changed := c.Tick(); !changed || lvl != 1 {
		t.Fatalf("dead camera did not force rung 1: level %d changed %v", lvl, changed)
	}
	// And holds rung 1 for as long as the camera stays dead.
	for tick := 0; tick < 10; tick++ {
		feed(c, 4, Sample{Latency: 20 * time.Millisecond, DeadCameras: 1})
		if lvl, _ := c.Tick(); lvl != 1 {
			t.Fatalf("tick %d: level %d while camera dead", tick, lvl)
		}
	}
	// Camera recovers: the ladder releases back to 0.
	for tick := 0; tick < 10 && c.Level() > 0; tick++ {
		feed(c, 4, Sample{Latency: 20 * time.Millisecond})
		c.Tick()
	}
	if c.Level() != 0 {
		t.Fatalf("did not release after camera recovery: level %d", c.Level())
	}
}

func TestQueuePressureDegrades(t *testing.T) {
	c := NewController(testPolicy())
	feed(c, 4, Sample{Latency: 20 * time.Millisecond, QueueDepth: 100})
	if lvl, _ := c.Tick(); lvl != 1 {
		t.Fatalf("queue pressure ignored: level %d", lvl)
	}
	// Queue must drain below QueueHigh/2 before recovery.
	for i := 0; i < 6; i++ {
		feed(c, 4, Sample{Latency: 20 * time.Millisecond, QueueDepth: 40})
		if lvl, _ := c.Tick(); lvl != 1 {
			t.Fatalf("recovered with queue at 40 (> high/2): level %d", lvl)
		}
	}
	feed(c, 4, Sample{Latency: 20 * time.Millisecond, QueueDepth: 0})
	c.Tick()
	feed(c, 4, Sample{Latency: 20 * time.Millisecond, QueueDepth: 0})
	if lvl, _ := c.Tick(); lvl != 0 {
		t.Fatalf("did not recover after drain: level %d", lvl)
	}
}

func TestDriftShrinksStretch(t *testing.T) {
	c := NewController(testPolicy())
	feed(c, 4, Sample{Latency: 150 * time.Millisecond})
	c.Tick()
	c.Tick()
	feed(c, 4, Sample{Latency: 150 * time.Millisecond})
	c.Tick() // level 2 after cooldown
	if c.Level() != 2 || c.Stretch() != 4 {
		t.Fatalf("setup: level %d stretch %d", c.Level(), c.Stretch())
	}
	// High association drift halves the stretch without changing level.
	feed(c, 4, Sample{Latency: 85 * time.Millisecond, Drift: 3}) // sum 12 > 8
	c.Tick()
	if c.Level() != 2 || c.Stretch() != 2 {
		t.Errorf("drift guard: level %d stretch %d want level 2 stretch 2",
			c.Level(), c.Stretch())
	}
	// Drift clears: stretch restores.
	feed(c, 4, Sample{Latency: 85 * time.Millisecond})
	c.Tick()
	if c.Stretch() != 4 {
		t.Errorf("stretch did not restore: %d", c.Stretch())
	}
}

func TestSLOViolationCounting(t *testing.T) {
	c := NewController(testPolicy())
	c.Observe(Sample{Latency: 101 * time.Millisecond})
	c.Observe(Sample{Latency: 100 * time.Millisecond}) // equal is not a violation
	c.Observe(Sample{Latency: 99 * time.Millisecond})
	if got := c.SLOViolations(); got != 1 {
		t.Errorf("violations = %d want 1", got)
	}
}

func TestControllerDeterministic(t *testing.T) {
	run := func() []int {
		c := NewController(testPolicy())
		var levels []int
		for tick := 0; tick < 50; tick++ {
			lat := 30 * time.Millisecond
			if tick%7 < 4 {
				lat = 180 * time.Millisecond
			}
			feed(c, 4, Sample{Latency: lat, QueueDepth: tick % 90, Drift: tick % 3})
			lvl, _ := c.Tick()
			levels = append(levels, lvl)
		}
		return levels
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d: level %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	pol := Policy{SLO: 500 * time.Millisecond, Window: 20, LowerFrac: 0.6,
		Cooldown: 4, MaxLevel: 2, QueueHigh: 32, DriftHigh: 5, Seed: 9}
	spec := pol.Spec()
	got, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	want := pol
	if got != want {
		t.Errorf("round trip: %+v != %+v (spec %q)", got, want, spec)
	}
	if (Policy{}).Spec() != "" {
		t.Error("disabled policy has a non-empty spec")
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"slo",               // no value
		"slo=0s",            // non-positive SLO
		"slo=500ms,lower=2", // lower out of range
		"slo=500ms,window=0",
		"slo=500ms,bogus=1",
		"window=10", // enables nothing
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	if p, err := ParseSpec(""); err != nil || p.Enabled() {
		t.Errorf("empty spec: %+v, %v", p, err)
	}
}

func TestLadderTables(t *testing.T) {
	wantCap := map[int]int{-1: 0, 0: 0, 1: 256, 2: 128, 3: 64, 4: 64, 9: 64}
	for lvl, cap := range wantCap {
		if got := SizeCapFor(lvl); got != cap {
			t.Errorf("SizeCapFor(%d) = %d want %d", lvl, got, cap)
		}
	}
	wantStretch := map[int]int{-1: 1, 0: 1, 1: 2, 2: 4, 3: 8, 6: 64, 9: 64}
	for lvl, st := range wantStretch {
		if got := StretchFor(lvl); got != st {
			t.Errorf("StretchFor(%d) = %d want %d", lvl, got, st)
		}
	}
}

// TestKeyFrameGrid pins the cadence rule: stretch 1 is the plain modulo,
// each level's key frames are the fixed points below and nowhere else,
// and the grids nest — a key frame at level L is one at every level
// under it, which is what lets hosts on different levels meet again.
func TestKeyFrameGrid(t *testing.T) {
	const horizon = 10
	for _, tc := range []struct {
		level int
		want  []int // key frames below 100
	}{
		{0, []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}},
		{1, []int{0, 20, 40, 60, 80}},
		{2, []int{0, 40, 80}},
		{3, []int{0, 80}},
	} {
		var got []int
		for fi := 0; fi < 100; fi++ {
			if KeyFrame(fi, horizon, StretchFor(tc.level)) {
				got = append(got, fi)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("level %d key-frames on %v, want %v", tc.level, got, tc.want)
		}
	}
	for _, horizon := range []int{1, 7, 10} {
		for fi := 0; fi < 2000; fi++ {
			if KeyFrame(fi, horizon, 1) != (fi%horizon == 0) {
				t.Fatalf("stretch 1, horizon %d, frame %d: not the plain modulo", horizon, fi)
			}
			for level := 1; level <= 6; level++ {
				if KeyFrame(fi, horizon, StretchFor(level)) && !KeyFrame(fi, horizon, StretchFor(level-1)) {
					t.Fatalf("horizon %d: frame %d is a level-%d key frame but not a level-%d one", horizon, fi, level, level-1)
				}
			}
		}
	}
}
