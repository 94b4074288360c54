package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mvs/internal/faults"
)

// simEvent is one input a simulated fleet delivers to the machine; gen
// is the sending connection's generation, so a leave from a connection a
// reconnect already replaced reaches the machine as the shell turns it:
// a tick.
type simEvent struct {
	at       time.Time
	seq, gen int
	ev       event
}

// simFleet is the timeline a seeded schedule delivers, in time order.
type simFleet struct {
	events []simEvent
	seq    int
}

func (f *simFleet) push(at time.Time, gen int, ev event) {
	e := simEvent{at: at, seq: f.seq, gen: gen, ev: ev}
	f.seq++
	i, _ := slices.BinarySearchFunc(f.events, e, func(a, b simEvent) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return a.seq - b.seq
	})
	f.events = slices.Insert(f.events, i, e)
}

// schedule draws one seeded fault schedule for n cameras reporting
// rounds key frames, period apart, under the faults spec vocabulary:
// every message is delayed by Delay plus up to Jitter (FIFO per camera);
// a write is dropped with DropRate, killing the connection (the node
// reconnects a third of a period later); a reply read fails with
// ResetRate, crashing the node for one or two periods — or for good —
// with the scheduler noticing at once or only after the node is back;
// and inside a Partitions window every message is lost. Nodes ping
// halfway between key frames when ping is set, and leave at the end.
func schedule(rng *rand.Rand, cfg faults.Config, n, rounds int, period time.Duration, ping bool) *simFleet {
	f := &simFleet{}
	jitter := func() time.Duration {
		if cfg.Jitter <= 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(cfg.Jitter)))
	}
	partitioned := func(at time.Time) bool {
		for _, w := range cfg.Partitions {
			if d := at.Sub(epoch); d >= w.Start && d < w.End {
				return true
			}
		}
		return false
	}
	for cam := 0; cam < n; cam++ {
		var last time.Time
		deliver := func(sent time.Time) time.Time {
			last = maxTime(last, sent.Add(cfg.Delay+jitter()))
			return last
		}
		gen := 1
		f.push(deliver(epoch.Add(time.Duration(rng.Int63n(int64(period/2))))), gen, event{kind: 'r', cam: cam})
		up, back := true, time.Time{}
		offset := time.Duration(rng.Int63n(int64(period / 4)))
		for k := 0; k < rounds; k++ {
			sent := epoch.Add(time.Duration(k)*period + period/2 + offset)
			if !up {
				if back.IsZero() || sent.Before(back) {
					continue
				}
				up, gen = true, gen+1
				f.push(deliver(back), gen, event{kind: 'r', cam: cam})
			}
			switch {
			case partitioned(sent):
				continue
			case rng.Float64() < cfg.DropRate:
				f.push(deliver(sent), gen, event{kind: 'l', cam: cam})
				up, back = false, sent.Add(period/3)
				continue
			}
			f.push(deliver(sent), gen, event{kind: 'p', cam: cam, k: k})
			if rng.Float64() < cfg.ResetRate {
				up, back = false, sent.Add(time.Duration(1+rng.Intn(2))*period)
				noticed := deliver(sent)
				if rng.Intn(2) == 0 {
					noticed = back.Add(period) // the old connection lingers past the reconnect
				}
				if rng.Intn(3) == 0 {
					back = time.Time{}
				}
				f.push(noticed, gen, event{kind: 'l', cam: cam})
				continue
			}
			if pingAt := sent.Add(period / 2); ping && !partitioned(pingAt) {
				f.push(deliver(pingAt), gen, event{kind: 'h', cam: cam})
			}
		}
		if up {
			f.push(deliver(epoch.Add(time.Duration(rounds+1)*period)), gen, event{kind: 'l', cam: cam})
		}
	}
	return f
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// TestSeededRoundMachineSchedules drives the machine through two
// thousand seeded schedules of three to six cameras whose messages are
// delayed, dropped and crashed, with the machine's wake-ups delivered
// as ticks, and holds every step to the exploration's invariants. Once
// every camera has left, no round may still be pending.
func TestSeededRoundMachineSchedules(t *testing.T) {
	t.Parallel()
	const schedules, rounds, period = 2000, 5, 100 * time.Millisecond
	fleets := map[int]*fleet{}
	for n := 3; n <= 6; n++ {
		fleets[n] = corridorFleet(t, n)
	}
	for seed := int64(0); seed < schedules; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(seed%4)
		spec := fmt.Sprintf("seed=%d,drop=%.2f,reset=%.2f,delay=%dms,jitter=%dms", seed,
			0.2*rng.Float64(), 0.1*rng.Float64(), rng.Intn(20), rng.Intn(60))
		if rng.Intn(4) == 0 {
			start := rng.Intn(rounds * 100)
			spec += fmt.Sprintf(",part=%dms-%dms", start, start+1+rng.Intn(300))
		}
		cfg, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		var lease, timeout time.Duration
		if rng.Intn(2) == 0 {
			lease = 150 * time.Millisecond
		}
		if rng.Intn(2) == 0 {
			timeout = 250 * time.Millisecond
		}
		opts := []Option{WithWorkers(1)}
		if lease > 0 {
			opts = append(opts, WithLease(lease))
		}
		if timeout > 0 {
			opts = append(opts, WithRoundTimeout(timeout))
		}
		f := fleets[n]
		m, ref := newTestMachine(t, f.model, f.profiles, opts...), newReferee(f, lease, timeout)
		sim := schedule(rng, cfg, n, rounds, period, lease > 0)

		gen := make([]int, n)
		var wake time.Time
		var trail []event
		for len(sim.events) > 0 || !wake.IsZero() {
			var at time.Time
			var ev event
			if len(sim.events) > 0 && (wake.IsZero() || !wake.Before(sim.events[0].at)) {
				e := sim.events[0]
				sim.events = sim.events[1:]
				at, ev = e.at, e.ev
				switch {
				case ev.kind == 'r':
					gen[ev.cam] = e.gen
				case ev.kind == 'l' && e.gen != gen[ev.cam]:
					ev = event{kind: 't'} // a replaced connection's leave
				}
			} else {
				at, ev = wake, event{kind: 't'}
			}
			ev.at = at
			trail = append(trail, ev)
			if wake, err = ref.step(m, ev, at); err != nil {
				t.Fatalf("schedule %d (%d cameras, %q, lease %v, timeout %v): after %v: %v",
					seed, n, spec, lease, timeout, trail, err)
			}
		}
		if len(ref.pending) > 0 || len(m.rounds) > 0 {
			t.Fatalf("schedule %d: rounds %v still pending after every camera left", seed, ref.pending)
		}
	}
}
