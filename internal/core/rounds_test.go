package core_test

import (
	"slices"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/camera"
	"mvs/internal/central"
	"mvs/internal/core"
	"mvs/internal/experiments"
	"mvs/internal/geom"
)

// parentObjects is the MVS instance builder central.Solve had before the
// flat Instance, verbatim: one ObjectSpec per associated group.
func parentObjects(groups []assoc.Group, v *central.Views) []core.ObjectSpec {
	objects := make([]core.ObjectSpec, len(groups))
	for gi, g := range groups {
		spec := core.ObjectSpec{ID: gi + 1, Size: make(map[int]int)}
		for _, ref := range g.Members {
			if _, seen := spec.Size[ref.Cam]; !seen {
				spec.Coverage = append(spec.Coverage, ref.Cam)
			}
			if sz := v.Tracks[ref.Cam][ref.Index].Size; sz > spec.Size[ref.Cam] {
				spec.Size[ref.Cam] = sz
			}
		}
		objects[gi] = spec
	}
	return objects
}

// TestSolverMatchesReferenceOnRunRounds holds the round kernel to the
// reference on the rounds a BALB run schedules: 300 test frames of the
// 16-camera corridor and of S4, every camera a camera.Kernel with the
// engine's defaults (assoc's cell grid and threshold, T = 10), every key
// frame one central.Solve whose decisions are applied before the next
// frame. Each round's instance must equal the parent builder's, its
// solution the reference's, and the same instance solved without
// batching and with redundancy 2 / slack 1.3 must match the reference
// too.
func TestSolverMatchesReferenceOnRunRounds(t *testing.T) {
	for _, name := range []string{"C16", "S4"} {
		t.Run(name, func(t *testing.T) {
			setup, err := experiments.Prepare(name, 1, 600, 1)
			if err != nil {
				t.Fatal(err)
			}
			profiles := setup.Scenario.Profiles()
			cams := make([]core.CameraSpec, len(profiles))
			kernels := make([]*camera.Kernel, len(profiles))
			for i, p := range profiles {
				cams[i] = core.CameraSpec{Index: i, Profile: p}
				grid := geom.NewGrid(setup.Test.Cameras[i].Frame(), assoc.GridCols, assoc.GridRows)
				cover, err := setup.Model.CellCoverageWorkers(i, grid, 1)
				if err != nil {
					t.Fatal(err)
				}
				if kernels[i], err = camera.New(camera.Config{
					Index: i, Grid: grid, Profile: p, Seed: setup.Seed, Own: camera.OwnMasks, Coverage: cover,
				}); err != nil {
					t.Fatal(err)
				}
			}
			order := make([]int, len(cams))
			for i := range order {
				order[i] = i
			}
			policy, err := core.NewDistributedPolicy(order)
			if err != nil {
				t.Fatal(err)
			}

			var r central.Round
			var w core.Solver
			params := central.Params{Model: setup.Model, Cameras: cams, MinIoU: assoc.MinIoU, Workers: 1}
			rounds, objects := 0, 0
			for fi, frame := range setup.Test.Frames {
				var out camera.Frame
				for i, k := range kernels {
					out.Reset()
					if fi%10 == 0 {
						err = k.KeyFrame(frame.PerCamera[i], &out)
					} else {
						err = k.RegularFrame(frame.PerCamera[i], policy, &out)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if fi%10 != 0 {
					continue
				}

				r.Views.Reset(len(kernels), 0)
				for i, k := range kernels {
					for _, tr := range k.Tracks() {
						r.Views.Add(i, tr.Box, central.Track{ID: tr.ID, Size: tr.QuantSize})
					}
				}
				if err := central.Solve(params, &r); err != nil {
					t.Fatal(err)
				}
				specs := parentObjects(r.Groups, &r.Views)
				if r.Objects.Len() != len(specs) {
					t.Fatalf("frame %d: %d objects, parent builder %d", fi, r.Objects.Len(), len(specs))
				}
				for j, o := range specs {
					sizes := make([]int32, len(o.Coverage))
					for k, c := range o.Coverage {
						sizes[k] = int32(o.Size[c])
					}
					if r.Objects.ID(j) != o.ID || !slices.Equal(r.Objects.Cameras(j), toInt32(o.Coverage)) || !slices.Equal(r.Objects.Sizes(j), sizes) {
						t.Fatalf("frame %d object %d: ID %d cameras %v sizes %v, parent builder %+v",
							fi, j, r.Objects.ID(j), r.Objects.Cameras(j), r.Objects.Sizes(j), o)
					}
				}
				want, err := core.OracleSolve(cams, specs, core.CentralOptions{}, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := core.SameSolution(r.Solution, want, len(specs)); err != nil {
					t.Fatalf("frame %d: round against the reference: %v", fi, err)
				}
				in := core.NewInstance(specs)
				for _, run := range []struct {
					opts       core.CentralOptions
					redundancy int
				}{{core.CentralOptions{DisableBatching: true}, 1}, {core.CentralOptions{}, 2}} {
					want, err := core.OracleSolve(cams, specs, run.opts, run.redundancy, 1.3)
					if err != nil {
						t.Fatal(err)
					}
					var got *core.Solution
					if run.redundancy > 1 {
						got, err = w.CentralRedundant(cams, in, run.redundancy, 1.3)
					} else {
						got, err = w.Central(cams, in, run.opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := core.SameSolution(got, want, len(specs)); err != nil {
						t.Fatalf("frame %d, %+v, redundancy %d: %v", fi, run.opts, run.redundancy, err)
					}
				}

				r.Walk(func(m central.Member) {
					if !m.Kept {
						kernels[m.Cam].Demote(r.Views.Tracks[m.Cam][m.Index].ID, m.Owner)
					}
				})
				if policy, err = core.NewDistributedPolicy(r.Solution.Priority); err != nil {
					t.Fatal(err)
				}
				rounds++
				objects += len(specs)
			}
			if rounds != 30 || objects < 10*rounds {
				t.Fatalf("%d rounds, %d objects: the run scheduled too little to test", rounds, objects)
			}
			t.Logf("%d rounds, %d objects", rounds, objects)
		})
	}
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
