package hungarian_test

import (
	"slices"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/flow"
	"mvs/internal/geom"
	"mvs/internal/hungarian"
	"mvs/internal/scene"
	"mvs/internal/vision"
	"mvs/internal/workload"
)

// TestSolverMatchesReferenceOnCorridorTrace runs the oracle over the
// matrices the system itself produces: on a 16-camera corridor, every
// IoU matrix a per-camera tracker associates over 300 frames (built here
// exactly as flow.Tracker.Update builds it, from the tracker's own
// predictions, before each Update), and every projected-box matrix the
// key-frame association matches for a camera pair (built as
// assoc.AssociateWorkers builds it, from Model.MapBox). These have the
// shapes, the sparsity and the near-ties random matrices only approximate.
func TestSolverMatchesReferenceOnCorridorTrace(t *testing.T) {
	const trainFrames, testFrames, keyEvery = 150, 300, 10
	scn, err := workload.Corridor(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := scn.World.Run(trainFrames + testFrames)
	if err != nil {
		t.Fatal(err)
	}
	train := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[:trainFrames]}
	model, err := assoc.Train(train, assoc.Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var solver hungarian.Solver
	check := func(what string, profit [][]float64, minProfit float64) {
		t.Helper()
		want, wantTotal, wantErr := hungarian.ReferenceMaximizeProfit(profit, minProfit)
		got, gotTotal, gotErr := solver.MaximizeProfit(profit, minProfit)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%s: errors %v / %v", what, gotErr, wantErr)
		}
		if !slices.Equal(got, want) || gotTotal != wantTotal {
			t.Fatalf("%s: profit %v\n got %v (%v)\nwant %v (%v)", what, profit, got, gotTotal, want, wantTotal)
		}
	}

	cams := trace.Cameras
	trackers := make([]*flow.Tracker, len(cams))
	detectors := make([]*vision.Detector, len(cams))
	for c, cam := range cams {
		if trackers[c], err = flow.NewTracker(cam.Frame(), flow.Config{}); err != nil {
			t.Fatal(err)
		}
		detectors[c] = vision.NewDetector(int64(1+101*c), vision.Config{})
	}
	trackMatrices, pairMatrices := 0, 0
	for fi, frame := range trace.Frames[trainFrames:] {
		boxes := make([][]geom.Rect, len(cams))
		for c := range cams {
			dets := detectors[c].DetectFull(frame.PerCamera[c])
			tracks := trackers[c].Tracks()
			if len(tracks) > 0 && len(dets) > 0 {
				profit := make([][]float64, len(tracks))
				for i, tr := range tracks {
					profit[i] = make([]float64, len(dets))
					for j, d := range dets {
						profit[i][j] = tr.Predicted().IoU(d.Box)
					}
				}
				check("tracking", profit, 0.25)
				trackMatrices++
			}
			if _, err := trackers[c].Update(dets); err != nil {
				t.Fatal(err)
			}
			for _, tr := range trackers[c].Tracks() {
				boxes[c] = append(boxes[c], tr.Box)
			}
		}
		if fi%keyEvery != 0 {
			continue
		}
		for i := range cams {
			for j := i + 1; j < len(cams); j++ {
				if len(boxes[i]) == 0 || len(boxes[j]) == 0 {
					continue
				}
				profit := make([][]float64, len(boxes[i]))
				anyVisible := false
				for bi, box := range boxes[i] {
					profit[bi] = make([]float64, len(boxes[j]))
					pred, visible, err := model.MapBox(i, j, box)
					if err != nil {
						t.Fatal(err)
					}
					if !visible {
						continue
					}
					anyVisible = true
					for bj, other := range boxes[j] {
						profit[bi][bj] = pred.IoU(other)
					}
				}
				if anyVisible {
					check("association", profit, 0.1)
					pairMatrices++
				}
			}
		}
	}
	if trackMatrices < 1000 || pairMatrices < 50 {
		t.Fatalf("trace too thin: %d tracking and %d association matrices", trackMatrices, pairMatrices)
	}
	t.Logf("%d tracking and %d association matrices agree", trackMatrices, pairMatrices)
}
