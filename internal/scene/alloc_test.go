package scene_test

import (
	"math/rand"
	"testing"

	"mvs/internal/scene"
	"mvs/internal/workload"
)

// counted wraps an arrival process and counts the vehicles it spawns.
type counted struct {
	scene.ArrivalProcess
	n *int
}

func (c counted) Arrivals(frame int, fps float64, rng *rand.Rand) int {
	k := c.ArrivalProcess.Arrivals(frame, fps, rng)
	*c.n += k
	return k
}

// TestWorldRunAllocationBudget bounds World.Run's allocations once its
// buffers are warm: three a frame (the object list, the per-camera list
// headers, and one array that every camera's observations are cut from)
// plus one per spawned vehicle. The frames after warm-up are the
// difference between a run of 2n frames and a run of n, which draw the
// same traffic for their first n; on C16 the reused buffers have reached
// their largest size by frame 1000 (at frame 300 they still grow).
func TestWorldRunAllocationBudget(t *testing.T) {
	const n = 1000
	s, err := workload.ByName("C16", 1)
	if err != nil {
		t.Fatal(err)
	}
	spawned := 0
	for i := range s.World.Routes {
		s.World.Routes[i].Arrivals = counted{s.World.Routes[i].Arrivals, &spawned}
	}
	run := func(frames int) (allocs float64, spawns int) {
		allocs = testing.AllocsPerRun(3, func() {
			spawned = 0
			if _, err := s.World.Run(frames); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, spawned
	}
	warmAllocs, warmSpawns := run(n)
	allAllocs, allSpawns := run(2 * n)
	got, budget := allAllocs-warmAllocs, float64(3*n+allSpawns-warmSpawns)
	t.Logf("frames %d-%d: %.0f allocations, budget %.0f (%d spawns)", n, 2*n, got, budget, allSpawns-warmSpawns)
	if got > budget {
		t.Errorf("frames %d-%d allocated %.0f times, over the budget of 3 a frame plus 1 a spawn (%.0f)", n, 2*n, got, budget)
	}
}
