package assoc

import (
	"reflect"
	"testing"

	"mvs/internal/geom"
	"mvs/internal/hungarian"
	"mvs/internal/ml"
	"mvs/internal/scene"
)

// splitPair is a pair model as this package trained it before the joint
// index: a KNN classifier over all of the pair's samples and, when any
// sample is co-visible, a KNN regressor over the co-visible ones.
type splitPair struct {
	clf *ml.KNNClassifier
	reg *ml.KNNRegressor // nil: no co-visible sample
}

// trainSplit fits the split models of every pair m trained, on the same
// samples.
func trainSplit(t *testing.T, trace *scene.Trace, m *Model) map[[2]int]*splitPair {
	t.Helper()
	split := make(map[[2]int]*splitPair, len(m.pairs))
	for key := range m.pairs {
		samples, err := BuildPairSamples(trace, key[0], key[1])
		if err != nil {
			t.Fatal(err)
		}
		sp := &splitPair{clf: &ml.KNNClassifier{K: 5}}
		if err := sp.clf.Fit(ClassificationData(samples)); err != nil {
			t.Fatal(err)
		}
		if rx, ry := RegressionData(samples); len(rx) > 0 {
			sp.reg = &ml.KNNRegressor{K: 5}
			if err := sp.reg.Fit(rx, ry); err != nil {
				t.Fatal(err)
			}
		}
		split[key] = sp
	}
	return split
}

// referenceMap is PairModel.Map as it was before the regressor-less
// shortcut and the joint index, verbatim: classify first, then discard
// the answer when the pair has no regressor, else regress.
func referenceMap(sp *splitPair, box geom.Rect) (geom.Rect, bool, error) {
	visible, err := sp.clf.Predict(box.Vec4())
	if err != nil {
		return geom.Rect{}, false, err
	}
	if !visible || sp.reg == nil {
		return geom.Rect{}, false, nil
	}
	v, err := sp.reg.Predict(nil, box.Vec4())
	if err != nil {
		return geom.Rect{}, false, err
	}
	return geom.RectFromVec4(v), true, nil
}

// referenceAssociate is the sequential association loop as it was before
// this package skipped regressor-less pairs, shared feature vectors, cut
// Members from one array and mapped through one index per pair: every
// trained or untrained pair, a profit matrix per pair, the split models,
// a map from root to group.
func referenceAssociate(numCams int, split map[[2]int]*splitPair, boxes [][]geom.Rect, minIoU float64) ([]Group, error) {
	offsets := make([]int, len(boxes)+1)
	for i, b := range boxes {
		offsets[i+1] = offsets[i] + len(b)
	}
	var dsu dsu
	dsu.reset(offsets[len(boxes)])
	for i := 0; i < numCams; i++ {
		for j := i + 1; j < numCams; j++ {
			if len(boxes[i]) == 0 || len(boxes[j]) == 0 {
				continue
			}
			profit := make([][]float64, len(boxes[i]))
			anyVisible := false
			for bi, box := range boxes[i] {
				profit[bi] = make([]float64, len(boxes[j]))
				sp, ok := split[[2]int{i, j}]
				if !ok {
					continue
				}
				pred, visible, err := referenceMap(sp, box)
				if err != nil {
					return nil, err
				}
				if !visible {
					continue
				}
				anyVisible = true
				for bj, other := range boxes[j] {
					profit[bi][bj] = pred.IoU(other)
				}
			}
			if !anyVisible {
				continue
			}
			assign, _, err := new(hungarian.Solver).MaximizeProfit(profit, minIoU)
			if err != nil {
				return nil, err
			}
			for bi, bj := range assign {
				if bj >= 0 {
					dsu.union(offsets[i]+bi, offsets[j]+bj)
				}
			}
		}
	}
	groupIdx := make(map[int]int)
	var groups []Group
	for i := 0; i < numCams; i++ {
		for k := range boxes[i] {
			root := dsu.find(offsets[i] + k)
			gi, ok := groupIdx[root]
			if !ok {
				gi = len(groups)
				groupIdx[root] = gi
				groups = append(groups, Group{})
			}
			groups[gi].Members = append(groups[gi].Members, Ref{Cam: i, Index: k})
		}
	}
	return groups, nil
}

// TestMapEqualsClassifyThenDiscard is the table behind the shortcut and
// the joint index: for every trained pair of a corridor model —
// co-visible or not — and every box the pair was trained on, Map answers
// exactly what the split models answered by classifying first and
// discarding or regressing afterwards. The fixture must contain both
// kinds of pair: the ones the shortcut skips and the ones it must not.
func TestMapEqualsClassifyThenDiscard(t *testing.T) {
	trace := getCorridorTrace(t)
	train, _ := trace.SplitTrain()
	m, err := Train(train, Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	split := trainSplit(t, train, m)
	skipped, full := 0, 0
	for key, pm := range m.pairs {
		samples, err := BuildPairSamples(train, key[0], key[1])
		if err != nil {
			t.Fatal(err)
		}
		if pm.covisible {
			full++
		} else {
			skipped++
		}
		for _, s := range samples {
			wantBox, wantVis, wantErr := referenceMap(split[key], s.SrcBox)
			gotBox, gotVis, gotErr := pm.Map(s.SrcBox)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("pair %v: errors %v / %v", key, gotErr, wantErr)
			}
			if gotBox != wantBox || gotVis != wantVis {
				t.Fatalf("pair %v (co-visible %v) box %v: Map = %v %v, classify-then-discard = %v %v",
					key, pm.covisible, s.SrcBox, gotBox, gotVis, wantBox, wantVis)
			}
			mb, mv, err := m.MapBox(key[0], key[1], s.SrcBox)
			if err != nil || mb != wantBox || mv != wantVis {
				t.Fatalf("pair %v: MapBox = %v %v %v", key, mb, mv, err)
			}
		}
	}
	if skipped == 0 || full == 0 {
		t.Fatalf("fixture has %d regressor-less and %d full pairs; need both", skipped, full)
	}
}

// TestAssociateMatchesReference runs the old loop on the split models
// and the new one over every frame of the held-out trace and asks for
// identical groups, member order included.
func TestAssociateMatchesReference(t *testing.T) {
	trace := getCorridorTrace(t)
	train, test := trace.SplitTrain()
	m, err := Train(train, Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	split := trainSplit(t, train, m)
	grouped := 0
	for fi := range test.Frames {
		boxes := frameBoxes(test, fi)
		want, err := referenceAssociate(m.numCams, split, boxes, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AssociateWorkers(boxes, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("frame %d:\n got %v\nwant %v", fi, got, want)
		}
		for _, g := range want {
			if len(g.Members) > 1 {
				grouped++
			}
		}
	}
	if grouped == 0 {
		t.Fatal("no cross-camera group in the whole trace — fixture degenerate")
	}
}

// TestGroupMembersDoNotShareCapacity guards the one-array layout of the
// result: the caller owns the groups, so growing one Members list must
// not write into the next group's.
func TestGroupMembersDoNotShareCapacity(t *testing.T) {
	trace := getCorridorTrace(t)
	train, test := trace.SplitTrain()
	m, err := Train(train, Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for fi := range test.Frames {
		groups, err := m.Associate(frameBoxes(test, fi), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) < 2 {
			continue
		}
		next := groups[1].Members[0]
		groups[0].Members = append(groups[0].Members, Ref{Cam: -1, Index: -1})
		if groups[1].Members[0] != next {
			t.Fatalf("append to group 0 overwrote group 1: %v", groups[1].Members[0])
		}
		return
	}
	t.Fatal("no frame with two groups")
}
