package assoc

import (
	"math"
	"slices"
	"testing"

	"mvs/internal/geom"
	"mvs/internal/ml"
	"mvs/internal/scene"
)

// twoCamWorld builds a road observed by two cameras from opposite ends,
// giving a large co-visible stretch in the middle.
func twoCamWorld(seed int64) *scene.World {
	road := scene.MustPath(geom.Point{X: 5, Y: -40}, geom.Point{X: 5, Y: 40})
	camA := &scene.Camera{
		Name: "a", Pos: geom.Point{X: 0, Y: -50}, Height: 8, Yaw: math.Pi / 2,
		Pitch: 0.4, Focal: 1000, ImageW: 1280, ImageH: 704, MaxRange: 62,
	}
	camB := &scene.Camera{
		Name: "b", Pos: geom.Point{X: 0, Y: 50}, Height: 8, Yaw: -math.Pi / 2,
		Pitch: 0.4, Focal: 1000, ImageW: 1280, ImageH: 704, MaxRange: 62,
	}
	return &scene.World{
		Routes: []scene.Route{{
			Path: road, Speed: 8, Arrivals: scene.Poisson{RatePerSec: 0.6},
		}},
		Cameras: []*scene.Camera{camA, camB},
		FPS:     10,
		Seed:    seed,
	}
}

func runTrace(t *testing.T, seed int64, frames int) *scene.Trace {
	t.Helper()
	trace, err := twoCamWorld(seed).Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestBuildPairSamples(t *testing.T) {
	trace := runTrace(t, 1, 400)
	samples, err := BuildPairSamples(trace, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	pos, neg := 0, 0
	for _, s := range samples {
		if s.Visible {
			pos++
			if s.DstBox.Empty() {
				t.Fatal("visible sample with empty dst box")
			}
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate labels: pos=%d neg=%d", pos, neg)
	}
	// Both directions, against a fresh map per frame: objects leave one
	// camera's view while the other still sees them, so a destination
	// box kept from an earlier frame would label a sample visible.
	for _, pair := range [][2]int{{0, 1}, {1, 0}} {
		got, err := BuildPairSamples(trace, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		var want []Sample
		for _, f := range trace.Frames {
			dst := map[int]geom.Rect{}
			for _, o := range f.PerCamera[pair[1]] {
				dst[o.ObjectID] = o.Box
			}
			for _, o := range f.PerCamera[pair[0]] {
				box, ok := dst[o.ObjectID]
				want = append(want, Sample{SrcBox: o.Box, Visible: ok, DstBox: box})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pair %v: samples differ from a fresh map per frame", pair)
		}
	}
}

func TestBuildPairSamplesErrors(t *testing.T) {
	trace := runTrace(t, 1, 10)
	if _, err := BuildPairSamples(trace, 0, 0); err == nil {
		t.Fatal("same camera accepted")
	}
	if _, err := BuildPairSamples(trace, 0, 5); err == nil {
		t.Fatal("out-of-range camera accepted")
	}
}

func TestDataConversions(t *testing.T) {
	samples := []Sample{
		{SrcBox: geom.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}, Visible: true, DstBox: geom.Rect{MinX: 5, MinY: 6, MaxX: 7, MaxY: 8}},
		{SrcBox: geom.Rect{MinX: 9, MinY: 9, MaxX: 11, MaxY: 11}},
	}
	x, y := ClassificationData(samples)
	if len(x) != 2 || !y[0] || y[1] {
		t.Fatalf("classification data: %v %v", x, y)
	}
	rx, ry := RegressionData(samples)
	if len(rx) != 1 || ry[0][0] != 5 {
		t.Fatalf("regression data: %v %v", rx, ry)
	}
}

func TestTrainAndMapBox(t *testing.T) {
	trace := runTrace(t, 2, 600)
	train, test := trace.SplitTrain()
	m, err := Train(train, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCameras() != 2 {
		t.Fatalf("cams = %d", m.NumCameras())
	}

	// On held-out co-visible objects, the mapped box should be near the
	// true box most of the time.
	samples, err := BuildPairSamples(test, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	correctVis, totalVis, closeEnough := 0, 0, 0
	for _, s := range samples {
		pred, visible, err := m.MapBox(0, 1, s.SrcBox)
		if err != nil {
			t.Fatal(err)
		}
		if s.Visible {
			totalVis++
			if visible {
				correctVis++
				if pred.MAE(s.DstBox) < 120 {
					closeEnough++
				}
			}
		}
	}
	if totalVis == 0 {
		t.Fatal("no co-visible test samples")
	}
	if float64(correctVis)/float64(totalVis) < 0.7 {
		t.Fatalf("visibility recall %d/%d too low", correctVis, totalVis)
	}
	if float64(closeEnough)/float64(totalVis) < 0.5 {
		t.Fatalf("regression close only %d/%d", closeEnough, totalVis)
	}
}

func TestMapBoxSelfIsIdentity(t *testing.T) {
	trace := runTrace(t, 3, 200)
	m, err := Train(trace, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	box := geom.Rect{MinX: 10, MinY: 10, MaxX: 50, MaxY: 50}
	pred, visible, err := m.MapBox(1, 1, box)
	if err != nil || !visible || pred != box {
		t.Fatalf("self map = %v %v %v", pred, visible, err)
	}
}

func TestTrainNeedsTwoCameras(t *testing.T) {
	trace := runTrace(t, 1, 10)
	solo := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras[:1], Frames: trace.Frames}
	if _, err := Train(solo, Factories{}); err == nil {
		t.Fatal("single camera accepted")
	}
}

func TestTrainPairNoSamples(t *testing.T) {
	if _, err := TrainPair(nil, func() ml.Classifier { return &ml.KNNClassifier{} }, func() ml.Regressor { return &ml.KNNRegressor{} }); err == nil {
		t.Fatal("empty samples accepted")
	}
}

func TestTrainPairClassifierOnly(t *testing.T) {
	// All negative samples: pair trains a classifier but no regressor and
	// always answers "not visible".
	samples := make([]Sample, 20)
	for i := range samples {
		samples[i] = Sample{SrcBox: geom.Rect{MinX: float64(i), MinY: 0, MaxX: float64(i) + 10, MaxY: 10}}
	}
	pm, err := TrainPair(samples,
		func() ml.Classifier { return &ml.KNNClassifier{K: 3} },
		func() ml.Regressor { return &ml.KNNRegressor{} })
	if err != nil {
		t.Fatal(err)
	}
	_, visible, err := pm.Map(samples[0].SrcBox)
	if err != nil || visible {
		t.Fatalf("Map = %v %v", visible, err)
	}
}

func TestAssociateGroupsSharedObjects(t *testing.T) {
	trace := runTrace(t, 4, 800)
	train, test := trace.SplitTrain()
	m, err := Train(train, Factories{})
	if err != nil {
		t.Fatal(err)
	}

	// Evaluate association accuracy over the test half using ground
	// truth IDs.
	framesChecked, correctMerges, totalShared := 0, 0, 0
	for fi := range test.Frames {
		f := &test.Frames[fi]
		if len(f.PerCamera[0]) == 0 || len(f.PerCamera[1]) == 0 {
			continue
		}
		framesChecked++
		boxes := make([][]geom.Rect, 2)
		ids := make([][]int, 2)
		for c := 0; c < 2; c++ {
			for _, o := range f.PerCamera[c] {
				boxes[c] = append(boxes[c], o.Box)
				ids[c] = append(ids[c], o.ObjectID)
			}
		}
		shared := make(map[int]bool)
		for _, i0 := range ids[0] {
			for _, i1 := range ids[1] {
				if i0 == i1 {
					shared[i0] = true
				}
			}
		}
		totalShared += len(shared)

		groups, err := m.Associate(boxes, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Every box must appear in exactly one group.
		seen := make(map[Ref]bool)
		for _, g := range groups {
			for _, r := range g.Members {
				if seen[r] {
					t.Fatalf("frame %d: ref %v in two groups", f.Index, r)
				}
				seen[r] = true
			}
		}
		if len(seen) != len(boxes[0])+len(boxes[1]) {
			t.Fatalf("frame %d: %d refs grouped, want %d", f.Index, len(seen), len(boxes[0])+len(boxes[1]))
		}
		for _, g := range groups {
			if len(g.Members) < 2 {
				continue
			}
			var id0 = -1
			consistent := true
			for _, r := range g.Members {
				id := ids[r.Cam][r.Index]
				if id0 == -1 {
					id0 = id
				} else if id != id0 {
					consistent = false
				}
			}
			if consistent && shared[id0] {
				correctMerges++
			}
		}
	}
	if framesChecked == 0 || totalShared == 0 {
		t.Skip("trace produced no co-visible frames")
	}
	if float64(correctMerges)/float64(totalShared) < 0.5 {
		t.Fatalf("correct merges %d / shared %d too low", correctMerges, totalShared)
	}
}

func TestAssociateShapeErrors(t *testing.T) {
	trace := runTrace(t, 5, 200)
	m, err := Train(trace, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Associate([][]geom.Rect{{}}, 0); err == nil {
		t.Fatal("wrong camera count accepted")
	}
	// Empty inputs yield no groups.
	groups, err := m.Associate([][]geom.Rect{{}, {}}, 0)
	if err != nil || len(groups) != 0 {
		t.Fatalf("empty associate = %v %v", groups, err)
	}
}

func TestCellCoverage(t *testing.T) {
	trace := runTrace(t, 6, 600)
	train, _ := trace.SplitTrain()
	m, err := Train(train, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	grid := geom.NewGrid(trace.Cameras[0].Frame(), 8, 6)
	cover, err := m.CellCoverage(0, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) != grid.NumCells() {
		t.Fatalf("cells = %d", len(cover))
	}
	sharedCells := 0
	for c, set := range cover {
		if len(set) == 0 || set[0] != 0 {
			t.Fatalf("cell %d coverage %v must start with src", c, set)
		}
		if len(set) > 1 {
			sharedCells++
		}
	}
	// The two cameras face each other over the road: some cells must be
	// predicted co-visible.
	if sharedCells == 0 {
		t.Fatal("no cell predicted co-visible")
	}
	if sharedCells == grid.NumCells() {
		t.Fatal("every cell co-visible — classifier degenerate")
	}
}

func TestNominalBoxFallback(t *testing.T) {
	m := &Model{numCams: 2, pairs: map[[2]int]*PairModel{}}
	box := m.NominalBox(0, geom.Point{X: 100, Y: 100})
	if box.Empty() || box.Center() != (geom.Point{X: 100, Y: 100}) {
		t.Fatalf("fallback box = %v", box)
	}
}

func TestDSU(t *testing.T) {
	var d dsu
	d.reset(5)
	d.union(0, 1)
	d.union(3, 4)
	if d.find(0) != d.find(1) || d.find(3) != d.find(4) {
		t.Fatal("union failed")
	}
	if d.find(0) == d.find(3) {
		t.Fatal("separate sets merged")
	}
	d.union(1, 3)
	if d.find(0) != d.find(4) {
		t.Fatal("transitive union failed")
	}
	if d.find(2) == d.find(0) {
		t.Fatal("singleton merged")
	}
}
