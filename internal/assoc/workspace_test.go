package assoc

import (
	"reflect"
	"testing"

	"mvs/internal/scene"
	"mvs/internal/workload"
)

// TestReusedWorkspaceMatchesFresh is the equivalence check of the
// association workspace: one Workspace, reused on every key frame of a
// 300-frame run of the 16-camera corridor and of S1–S4, at widths 1 and
// 2, must group exactly as a fresh AssociateWorkers does on the same
// frame — the same groups, in the same order, with the same member
// order. The one workspace crosses models, camera counts and widths, so
// it also serves rounds smaller than ones it has held, as the engine's
// does across shard rosters. Under -race the width-2 runs also show any
// scratch two goroutines share.
func TestReusedWorkspaceMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five fleets")
	}
	c16, err := workload.Corridor(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	var w Workspace
	for _, tc := range []struct {
		scn   *workload.Scenario
		train int
	}{{c16, 150}, {workload.S1(1), 150}, {workload.S2(1), 150}, {workload.S3(1), 150}, {workload.S4(1), 200}} {
		trace, err := tc.scn.World.Run(tc.train + 300)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Train(&scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[:tc.train]},
			Factories{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		test := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[tc.train:]}
		grouped := 0
		for _, workers := range []int{1, 2} {
			for fi := 0; fi < len(test.Frames); fi += 10 {
				boxes := frameBoxes(test, fi)
				want, err := m.AssociateWorkers(boxes, 0.1, workers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Associate(m, boxes, 0.1, workers)
				if err != nil {
					t.Fatal(err)
				}
				if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, workers %d, key frame %d: reused workspace\n got %v\nwant %v",
						tc.scn.Name, workers, fi, got, want)
				}
				for _, g := range want {
					if len(g.Members) > 1 {
						grouped++
					}
				}
			}
		}
		if grouped == 0 {
			t.Fatalf("%s: no cross-camera group on any key frame — fixture degenerate", tc.scn.Name)
		}
	}
}
