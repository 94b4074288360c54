package assoc

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mvs/internal/geom"
	"mvs/internal/scene"
)

// corridorWorld chains n cameras along a straight road, S4-style:
// adjacent cameras overlap, distant pairs see disjoint stretches, so
// the trained model mixes full pairs, classifier-only pairs, and
// untrained pairs — the shapes the per-pair fan-out must preserve.
func corridorWorld(seed int64, n int) *scene.World {
	length := 40.0*float64(n) + 40
	east := scene.MustPath(geom.Point{X: -length / 2, Y: 4}, geom.Point{X: length / 2, Y: 4})
	west := scene.MustPath(geom.Point{X: length / 2, Y: -4}, geom.Point{X: -length / 2, Y: -4})
	cams := make([]*scene.Camera, n)
	for i := range cams {
		x := -length/2 + 40 + float64(i)*40
		y, yaw := 16.0, -0.35
		if i%2 == 1 {
			y, yaw = -16.0, 0.35
		}
		cams[i] = &scene.Camera{
			Name: "c", Pos: geom.Point{X: x, Y: y}, Height: 8, Yaw: yaw,
			Pitch: 0.4, Focal: 560, ImageW: 1280, ImageH: 704, MaxRange: 68,
		}
	}
	return &scene.World{
		Routes: []scene.Route{
			{Path: east, Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.5}},
			{Path: west, Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.5}},
		},
		Cameras: cams,
		FPS:     10,
		Seed:    seed,
	}
}

// corridorTrace caches one 4-camera corridor trace for the determinism
// tests (several of them retrain on it).
var (
	corridorOnce  sync.Once
	corridorTr    *scene.Trace
	corridorTrErr error
)

func getCorridorTrace(t *testing.T) *scene.Trace {
	t.Helper()
	corridorOnce.Do(func() {
		corridorTr, corridorTrErr = corridorWorld(9, 4).Run(400)
	})
	if corridorTrErr != nil {
		t.Fatal(corridorTrErr)
	}
	return corridorTr
}

// frameBoxes extracts the per-camera box lists of one frame.
func frameBoxes(trace *scene.Trace, fi int) [][]geom.Rect {
	f := &trace.Frames[fi]
	boxes := make([][]geom.Rect, len(trace.Cameras))
	for c := range trace.Cameras {
		for _, o := range f.PerCamera[c] {
			boxes[c] = append(boxes[c], o.Box)
		}
	}
	return boxes
}

// TestTrainDeterministicAcrossWorkers asserts the tentpole contract for
// training: the model is bit-identical (reflect.DeepEqual over every
// trained pair, KNN indexes included) whether the N*(N-1) pairs train
// sequentially or on 2 or 8 goroutines.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	trace := getCorridorTrace(t)
	train, _ := trace.SplitTrain()
	base, err := Train(train, Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.pairs) == 0 {
		t.Fatal("no trained pairs — fixture degenerate")
	}
	for _, workers := range []int{2, 8} {
		m, err := Train(train, Factories{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.numCams != base.numCams {
			t.Fatalf("workers=%d: numCams %d != %d", workers, m.numCams, base.numCams)
		}
		if !reflect.DeepEqual(base.pairs, m.pairs) {
			t.Errorf("workers=%d: trained pair models diverged from sequential", workers)
		}
	}
}

// TestTrainErrorDeterministicAcrossWorkers asserts the pool error rule
// lifts to Train: when several pairs fail, every worker count reports
// the lowest-numbered pair.
func TestTrainErrorDeterministicAcrossWorkers(t *testing.T) {
	trace := getCorridorTrace(t)
	tr, _ := trace.SplitTrain()
	failing := func([]Sample) (*PairModel, error) { return nil, errors.New("broken") }
	var want string
	for _, workers := range []int{1, 2, 8} {
		_, err := train(tr, workers, failing)
		if err == nil {
			t.Fatalf("workers=%d: failing pair fit accepted", workers)
		}
		if want == "" {
			want = err.Error()
			if !strings.Contains(want, "pair (0,1)") {
				t.Fatalf("sequential error is not the lowest pair: %v", err)
			}
		} else if err.Error() != want {
			t.Errorf("workers=%d: error %q != sequential %q", workers, err, want)
		}
	}
}

// TestAssociateDeterministicAcrossWorkers asserts the tentpole contract
// for matching: groups, group order, and member order are bit-identical
// at workers 1, 2, and 8 on every frame of the corridor test half.
func TestAssociateDeterministicAcrossWorkers(t *testing.T) {
	trace := getCorridorTrace(t)
	train, test := trace.SplitTrain()
	m, err := Train(train, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for fi := range test.Frames {
		boxes := frameBoxes(test, fi)
		base, err := m.AssociateWorkers(boxes, 0, 1)
		if err != nil {
			t.Fatalf("frame %d sequential: %v", fi, err)
		}
		for _, workers := range []int{2, 8} {
			got, err := m.AssociateWorkers(boxes, 0, workers)
			if err != nil {
				t.Fatalf("frame %d workers=%d: %v", fi, workers, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("frame %d workers=%d: groups diverged\nseq: %v\npar: %v",
					fi, workers, base, got)
			}
		}
		if len(base) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no frame produced any group — fixture degenerate")
	}
}

// TestAssociateMatchesLegacySequential pins the wrapper: Associate is
// exactly AssociateWorkers at width 1.
func TestAssociateMatchesLegacySequential(t *testing.T) {
	trace := getCorridorTrace(t)
	train, test := trace.SplitTrain()
	m, err := Train(train, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	boxes := frameBoxes(test, len(test.Frames)/2)
	a, err := m.Associate(boxes, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AssociateWorkers(boxes, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Associate diverged from AssociateWorkers(.., 1):\n%v\n%v", a, b)
	}
}

// TestAssociateConcurrentCallers drives many concurrent AssociateWorkers
// calls — each internally fanned out — against one shared Model. Under
// -race this proves the model is never written after Train; the results
// must all equal the sequential baseline.
func TestAssociateConcurrentCallers(t *testing.T) {
	trace := getCorridorTrace(t)
	train, test := trace.SplitTrain()
	m, err := Train(train, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	boxes := frameBoxes(test, len(test.Frames)/2)
	want, err := m.AssociateWorkers(boxes, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	groups := make([][]Group, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			groups[i], errs[i] = m.AssociateWorkers(boxes, 0, 2)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want, groups[i]) {
			t.Fatalf("caller %d diverged from sequential", i)
		}
	}
}

// TestSharedModelConcurrentAssociateAndCoverage drives association and
// cell coverage at once against one shared Model — the engine's key
// frames and a new engine's mask precomputation share a trained model —
// each call fanned out internally. Under -race this proves neither query
// writes the model or its indexes; every result must equal its
// sequential baseline.
func TestSharedModelConcurrentAssociateAndCoverage(t *testing.T) {
	trace := getCorridorTrace(t)
	train, test := trace.SplitTrain()
	m, err := Train(train, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	grid := geom.NewGrid(trace.Cameras[0].Frame(), GridCols, GridRows)
	frames := []int{0, len(test.Frames) / 3, len(test.Frames) / 2}
	wantGroups := make([][]Group, len(frames))
	for k, fi := range frames {
		if wantGroups[k], err = m.Associate(frameBoxes(test, fi), 0); err != nil {
			t.Fatal(err)
		}
	}
	wantCover := make([][][]int, m.numCams)
	for src := range wantCover {
		if wantCover[src], err = m.CellCoverage(src, grid); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 4
	errs := make(chan error, 2*callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			k := i % len(frames)
			groups, err := m.AssociateWorkers(frameBoxes(test, frames[k]), 0, 2)
			if err == nil && !reflect.DeepEqual(groups, wantGroups[k]) {
				err = fmt.Errorf("caller %d: groups of frame %d diverged from sequential", i, frames[k])
			}
			errs <- err
		}(i)
		go func(i int) {
			defer wg.Done()
			src := i % m.numCams
			cover, err := m.CellCoverageWorkers(src, grid, 2)
			if err == nil && !reflect.DeepEqual(cover, wantCover[src]) {
				err = fmt.Errorf("caller %d: coverage of camera %d diverged from sequential", i, src)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCellCoverageQueriesAllocateNothing pins the coverage sweep's
// allocations at width 1 to its outputs: the per-destination pair list,
// the result, the fan-out closure, and each cell's coverage list with its
// growth by append (capacity 1, 2, 4, ...). A query that allocated would
// add one per co-visible pair and cell.
func TestCellCoverageQueriesAllocateNothing(t *testing.T) {
	trace := getCorridorTrace(t)
	train, _ := trace.SplitTrain()
	m, err := Train(train, Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < m.numCams; src++ {
		grid := geom.NewGrid(trace.Cameras[src].Frame(), GridCols, GridRows)
		cover, err := m.CellCoverageWorkers(src, grid, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := 3
		for _, set := range cover {
			want += 1 + bits.Len(uint(len(set)-1))
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := m.CellCoverageWorkers(src, grid, 1); err != nil {
				panic(err)
			}
		})
		if got > float64(want) {
			t.Errorf("camera %d: %v allocations a sweep, want at most %d", src, got, want)
		}
	}
}

// TestCellCoverageDeterministicAcrossWorkers asserts the per-cell
// fan-out matches the sequential coverage sets exactly.
func TestCellCoverageDeterministicAcrossWorkers(t *testing.T) {
	trace := getCorridorTrace(t)
	train, _ := trace.SplitTrain()
	m, err := Train(train, Factories{})
	if err != nil {
		t.Fatal(err)
	}
	grid := geom.NewGrid(trace.Cameras[0].Frame(), 8, 6)
	base, err := m.CellCoverageWorkers(0, grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := m.CellCoverageWorkers(0, grid, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: coverage diverged", workers)
		}
	}
}

// rejectsNear is a co-visible pair whose only visible sample lies far
// from every box TestAssociateAllInvisiblePair asks about, so each of
// those boxes is voted "not visible".
func rejectsNear(t *testing.T) *PairModel {
	t.Helper()
	samples := []Sample{{
		SrcBox:  geom.Rect{MinX: 900, MinY: 900, MaxX: 950, MaxY: 950},
		Visible: true,
		DstBox:  geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
	}}
	for i := 0; i < 20; i++ {
		samples = append(samples, Sample{SrcBox: geom.Rect{MinX: float64(i), MaxX: float64(i) + 10, MaxY: 10}})
	}
	pm, err := TrainPair(samples)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// TestAssociateAllInvisiblePair is the regression test for the
// anyVisible short-circuit: a pair whose boxes are all predicted
// invisible must contribute no matches and no error — never reaching
// the Hungarian solver on an all-zero profit matrix — and empty camera
// lists must behave the same, sequentially and fanned out.
func TestAssociateAllInvisiblePair(t *testing.T) {
	pm := rejectsNear(t)
	m := newModel(3, map[[2]int]*PairModel{
		{0, 1}: pm,
		{1, 0}: pm,
		{0, 2}: pm,
		// (1,2)/(2,*) untrained: MapBox answers "not visible" directly.
	})
	if len(m.matchable) != 2 {
		t.Fatalf("%d matchable pairs, want (0,1) and (0,2)", len(m.matchable))
	}
	cases := []struct {
		name  string
		boxes [][]geom.Rect
	}{
		{"all-pairs-invisible", [][]geom.Rect{
			{{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, {MinX: 20, MinY: 0, MaxX: 30, MaxY: 10}},
			{{MinX: 5, MinY: 5, MaxX: 15, MaxY: 15}},
			{{MinX: 1, MinY: 1, MaxX: 9, MaxY: 9}},
		}},
		{"one-camera-empty", [][]geom.Rect{
			{{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}},
			nil,
			{{MinX: 1, MinY: 1, MaxX: 9, MaxY: 9}},
		}},
		{"all-empty", [][]geom.Rect{nil, nil, nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []Group
			for _, workers := range []int{1, 2, 8} {
				groups, err := m.AssociateWorkers(tc.boxes, 0, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				total := 0
				for _, b := range tc.boxes {
					total += len(b)
				}
				if len(groups) != total {
					t.Fatalf("workers=%d: %d groups for %d boxes — boxes merged without a visible prediction",
						workers, len(groups), total)
				}
				for _, g := range groups {
					if len(g.Members) != 1 {
						t.Fatalf("workers=%d: non-singleton group %v", workers, g)
					}
				}
				if workers == 1 {
					want = groups
				} else if !reflect.DeepEqual(want, groups) {
					t.Fatalf("workers=%d diverged from sequential", workers)
				}
			}
		})
	}
}
