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

// TestSolverMatchesReferenceOnRegularFrames extends the trace oracle to
// the worlds where components merge — S1's crossing and S3's queued
// traffic, besides the corridor — and to the matrices a regular frame
// produces. Every camera runs the kernel's frame cadence: DetectFull on
// every tenth frame, and in between DetectRegions over the tracker's own
// Region of each track plus the new-region proposals, quantized to the
// tracker's sizes. Before each Update, the IoU matrix is built as Update
// builds it and the solver's assignment and total must be bit-equal to
// the dense reference's. The one allowed exception is a frame with two
// exactly equal track or detection boxes: their rows (or columns) are
// identical, the optima tie, and the two solvers may pick different ones,
// so there only the totals must be equal.
func TestSolverMatchesReferenceOnRegularFrames(t *testing.T) {
	const frames, keyEvery, minIoU = 1200, 10, 0.25
	for _, name := range []string{"S1", "S3", "C16"} {
		t.Run(name, func(t *testing.T) {
			scn, err := workload.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := scn.World.Run(frames)
			if err != nil {
				t.Fatal(err)
			}
			var solver hungarian.Solver
			matrices, contested, ties := 0, 0, 0
			for c, cam := range trace.Cameras {
				tracker, err := flow.NewTracker(cam.Frame(), flow.Config{MatchIoU: minIoU})
				if err != nil {
					t.Fatal(err)
				}
				detector := vision.NewDetector(int64(1+101*c), vision.Config{})
				var regions, predicted, moving, proposals []geom.Rect
				for fi, frame := range trace.Frames {
					obs := frame.PerCamera[c]
					var dets []vision.Detection
					if fi%keyEvery == 0 {
						dets = detector.DetectFull(obs)
					} else {
						regions, predicted, moving = regions[:0], predicted[:0], moving[:0]
						for _, tr := range tracker.Tracks() {
							regions = append(regions, tracker.Region(tr))
							predicted = append(predicted, tr.Predicted())
						}
						for _, o := range obs {
							moving = append(moving, o.Box)
						}
						proposals = flow.NewRegions(proposals[:0], moving, predicted, 0)
						for _, nr := range proposals {
							q, _ := geom.QuantizeRect(nr, cam.Frame(), tracker.Sizes())
							regions = append(regions, q)
						}
						if dets, err = detector.DetectRegions(regions, obs); err != nil {
							t.Fatal(err)
						}
					}
					if tracks := tracker.Tracks(); len(tracks) > 0 && len(dets) > 0 {
						profit := make([][]float64, len(tracks))
						boxes := make([]geom.Rect, 0, len(tracks)+len(dets))
						for i, tr := range tracks {
							profit[i] = make([]float64, len(dets))
							for j, d := range dets {
								profit[i][j] = tr.Predicted().IoU(d.Box)
							}
							boxes = append(boxes, tr.Predicted())
						}
						for _, d := range dets {
							boxes = append(boxes, d.Box)
						}
						want, wantTotal, wantErr := hungarian.ReferenceMaximizeProfit(profit, minIoU)
						got, gotTotal, gotErr := solver.MaximizeProfit(profit, minIoU)
						if wantErr != nil || gotErr != nil {
							t.Fatalf("camera %d frame %d: errors %v / %v", c, fi, gotErr, wantErr)
						}
						if !slices.Equal(got, want) || gotTotal != wantTotal {
							if gotTotal != wantTotal || !hasDuplicate(boxes[:len(tracks)]) && !hasDuplicate(boxes[len(tracks):]) {
								t.Fatalf("camera %d frame %d: profit %v\n got %v (%v)\nwant %v (%v)", c, fi, profit, got, gotTotal, want, wantTotal)
							}
							ties++
						}
						matrices++
						if hasContestedComponent(profit, minIoU) {
							contested++
						}
					}
					if _, err := tracker.Update(dets); err != nil {
						t.Fatal(err)
					}
				}
			}
			if matrices < 500 || contested < 20 {
				t.Fatalf("trace too thin: %d matrices, %d with a contested component", matrices, contested)
			}
			t.Logf("%d tracking matrices agree (%d on total only, over duplicate boxes), %d with a contested component", matrices, ties, contested)
		})
	}
}

// hasDuplicate reports whether two boxes are exactly equal.
func hasDuplicate(boxes []geom.Rect) bool {
	for i := range boxes {
		if slices.Contains(boxes[i+1:], boxes[i]) {
			return true
		}
	}
	return false
}

// hasContestedComponent reports whether the feasible-pair graph has a
// component of more than one track and one detection, which is so exactly
// when some row or column holds two feasible pairs.
func hasContestedComponent(profit [][]float64, minProfit float64) bool {
	colDegree := make([]int, len(profit[0]))
	for _, row := range profit {
		rowDegree := 0
		for j, p := range row {
			if p > minProfit {
				rowDegree++
				colDegree[j]++
				if rowDegree > 1 || colDegree[j] > 1 {
					return true
				}
			}
		}
	}
	return false
}
