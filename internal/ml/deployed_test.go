package ml_test

import (
	"slices"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/ml"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// TestKNNIndexOnDeployedShape fits the KNN models of every camera pair of
// C16 and S4 on the samples association trains on (150 and 200 training
// frames, K = 5): the classifier over all of a pair's samples, the
// regressor over its co-visible ones. Each source box of every 30th of
// the next 300 frames must get the brute-force neighbour list from both.
func TestKNNIndexOnDeployedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fits two fleets' pair models")
	}
	c16, err := workload.Corridor(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scn   *workload.Scenario
		train int
	}{{c16, 150}, {workload.S4(1), 200}} {
		t.Run(tc.scn.Name, func(t *testing.T) {
			const frames = 300
			trace, err := tc.scn.World.Run(tc.train + frames)
			if err != nil {
				t.Fatal(err)
			}
			train := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[:tc.train]}
			test := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras}
			for fi := tc.train; fi < len(trace.Frames); fi += 30 {
				test.Frames = append(test.Frames, trace.Frames[fi])
			}
			queries, big := 0, 0
			n := len(trace.Cameras)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					samples, err := assoc.BuildPairSamples(train, src, dst)
					if err != nil {
						t.Fatal(err)
					}
					if len(samples) == 0 {
						continue
					}
					x, y := assoc.ClassificationData(samples)
					clf := &ml.KNNClassifier{K: 5}
					if err := clf.Fit(x, y); err != nil {
						t.Fatal(err)
					}
					rx, ry := assoc.RegressionData(samples)
					var reg *ml.KNNRegressor
					if len(rx) > 0 {
						reg = &ml.KNNRegressor{K: 5}
						if err := reg.Fit(rx, ry); err != nil {
							t.Fatal(err)
						}
					}
					if len(x) >= 64 {
						big++
					}
					probes, err := assoc.BuildPairSamples(test, src, dst)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range probes {
						q := p.SrcBox.Vec4()
						if got, want := clf.Neighbors(q), ml.ReferenceNearest(x, q, 5); !slices.Equal(got, want) {
							t.Fatalf("pair (%d,%d) n=%d q=%v: classifier index %v, reference %v", src, dst, len(x), q, got, want)
						}
						if reg != nil {
							if got, want := reg.Neighbors(q), ml.ReferenceNearest(rx, q, 5); !slices.Equal(got, want) {
								t.Fatalf("pair (%d,%d) n=%d q=%v: regressor index %v, reference %v", src, dst, len(rx), q, got, want)
							}
						}
						queries++
					}
				}
			}
			if queries < 1000 || big == 0 {
				t.Fatalf("%d queries (%d pairs with >= 64 samples): fixture degenerate", queries, big)
			}
			t.Logf("%d queries checked", queries)
		})
	}
}
