package ml

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

type namedSet struct {
	name string
	pts  [][]float64
}

// tieHeavySets returns training sets where coordinates, distances and
// split values tie constantly: box vectors quantised to a 16 px grid,
// all-duplicate points, and a two-value lattice, at sizes around the
// bucket and well past it.
func tieHeavySets(rng *rand.Rand) []namedSet {
	var sets []namedSet
	for _, n := range []int{kdBucket, kdBucket + 1, 2*kdBucket + 1, 1000} {
		boxes := boxPoints(rng, n)
		for _, p := range boxes {
			for j := range p {
				p[j] = math.Round(p[j]/16) * 16
			}
		}
		dup := make([][]float64, n)
		lattice := make([][]float64, n)
		for i := range dup {
			dup[i] = []float64{64, 128, 192, 256}
			lattice[i] = []float64{float64(rng.Intn(2)), float64(rng.Intn(2)), float64(rng.Intn(2)), float64(rng.Intn(2))}
		}
		sets = append(sets,
			namedSet{fmt.Sprintf("quantised boxes n=%d", n), boxes},
			namedSet{fmt.Sprintf("all duplicates n=%d", n), dup},
			namedSet{fmt.Sprintf("lattice n=%d", n), lattice})
	}
	return sets
}

// TestKDTreeBuildSpec holds the build to its specification on
// tie-heavy sets, where a selection or a tie-break that is slightly off
// shows first, and on box sets with no ties at all (checkKDSpec): every
// inner node splits its points at the median in (coordinate, index)
// order on its widest axis, every leaf is sorted in its parent's order,
// every node box is exactly its points' bounds, and two builds of one
// set are identical. The classifier and regressor answer as the
// brute-force oracle does.
func TestKDTreeBuildSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sets := tieHeavySets(rng)
	for _, n := range []int{281, 1000} { // and box sets with no ties at all
		sets = append(sets, namedSet{fmt.Sprintf("boxes n=%d", n), boxPoints(rng, n)})
	}
	for _, set := range sets {
		name, pts := set.name, set.pts
		got := newKDTree(pts)
		if err := checkKDSpec(pts, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again := newKDTree(pts)
		if !slices.Equal(again.nodes, got.nodes) || !slices.Equal(again.ids, got.ids) ||
			!slices.Equal(again.coords, got.coords) || !slices.Equal(again.box, got.box) {
			t.Fatalf("%s: two builds differ", name)
		}

		labels := make([]bool, len(pts))
		targets := make([][]float64, len(pts))
		for i, p := range pts {
			labels[i] = i%3 == 0
			targets[i] = []float64{p[0] + p[2], p[1] - p[3], float64(i)}
		}
		for _, k := range []int{1, 5, 9} {
			c := &KNNClassifier{K: k}
			if err := c.Fit(pts, labels); err != nil {
				t.Fatal(err)
			}
			r := &KNNRegressor{K: k}
			if err := r.Fit(pts, targets); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 40; q++ {
				query := slices.Clone(pts[rng.Intn(len(pts))]) // on a point
				if q%2 == 1 {
					query[rng.Intn(4)] += 16 * float64(rng.Intn(3)-1) // a grid step off
				}
				checkNearest(t, pts, c.m.tree, query, k)
				vote, err := c.Predict(query)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceVote(pts, labels, query, k); vote != want {
					t.Fatalf("%s k=%d at %v: classifier %v, reference %v", name, k, query, vote, want)
				}
				pred, err := r.Predict(nil, query)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceRegress(pts, targets, query, k); !slices.Equal(pred, want) {
					t.Fatalf("%s k=%d at %v: regressor %v, reference %v", name, k, query, pred, want)
				}
			}
		}
	}
}

// checkKDSpec checks tree, built over pts, against the build's
// specification: the slots hold a permutation of pts; node n's box is
// exactly the bounds of the points under it; an inner node splits on the
// axis of its box's widest side, the lowest on a tie, and its left child
// holds the half (rounded down) of its points that come first in
// (coordinate, index) order on that axis, with split the coordinate of
// the first point of the right child in that order; a leaf below the
// root lists its points in its parent's (coordinate, index) order.
func checkKDSpec(pts [][]float64, tree *kdTree) error {
	dim := tree.dim
	if len(tree.ids) != len(pts) || len(tree.coords) != len(pts)*dim || len(tree.box) != 2*dim*len(tree.nodes) {
		return fmt.Errorf("%d ids, %d coords, %d box values for %d points and %d nodes",
			len(tree.ids), len(tree.coords), len(tree.box), len(pts), len(tree.nodes))
	}
	seen := make([]bool, len(pts))
	for s, id := range tree.ids {
		if seen[id] {
			return fmt.Errorf("point %d in two slots", id)
		}
		seen[id] = true
		if !slices.Equal(tree.coords[s*dim:][:dim], pts[id]) {
			return fmt.Errorf("slot %d holds %v, point %d is %v", s, tree.coords[s*dim:][:dim], id, pts[id])
		}
	}
	// before reports whether slot a comes before slot b in (coordinate,
	// index) order on axis.
	before := func(a, b, axis int) bool {
		if ca, cb := tree.coords[a*dim+axis], tree.coords[b*dim+axis]; ca != cb {
			return ca < cb
		}
		return tree.ids[a] < tree.ids[b]
	}
	// walk checks node n below a parent splitting on parentAxis and
	// returns the slots it owns.
	var walk func(n int32, parentAxis int) (lo, hi int, err error)
	walk = func(n int32, parentAxis int) (lo, hi int, err error) {
		node := tree.nodes[n]
		if node.axis < 0 {
			lo, hi = int(node.a), int(node.b)
			if lo >= hi {
				return 0, 0, fmt.Errorf("leaf %d owns slots [%d, %d)", n, lo, hi)
			}
			for s := lo + 1; parentAxis >= 0 && s < hi; s++ {
				if !before(s-1, s, parentAxis) {
					return 0, 0, fmt.Errorf("leaf %d: slots %d and %d out of axis %d order", n, s-1, s, parentAxis)
				}
			}
		} else {
			axis := int(node.axis)
			llo, lhi, err := walk(node.a, axis)
			if err != nil {
				return 0, 0, err
			}
			rlo, rhi, err := walk(node.b, axis)
			if err != nil {
				return 0, 0, err
			}
			if lhi != rlo || lhi-llo != (rhi-llo)/2 {
				return 0, 0, fmt.Errorf("node %d: children own [%d, %d) and [%d, %d), not the two halves", n, llo, lhi, rlo, rhi)
			}
			lo, hi = llo, rhi
			median := rlo
			for s := rlo + 1; s < rhi; s++ {
				if before(s, median, axis) {
					median = s
				}
			}
			if node.split != tree.coords[median*dim+axis] {
				return 0, 0, fmt.Errorf("node %d: split %v, median coordinate %v", n, node.split, tree.coords[median*dim+axis])
			}
			for s := llo; s < lhi; s++ {
				if !before(s, median, axis) {
					return 0, 0, fmt.Errorf("node %d: slot %d left of the median slot %d on axis %d", n, s, median, axis)
				}
			}
		}
		bmin, bmax := tree.box[2*int(n)*dim:][:dim], tree.box[(2*int(n)+1)*dim:][:dim]
		for j := 0; j < dim; j++ {
			want := []float64{math.Inf(1), math.Inf(-1)}
			for s := lo; s < hi; s++ {
				want[0], want[1] = min(want[0], tree.coords[s*dim+j]), max(want[1], tree.coords[s*dim+j])
			}
			if bmin[j] != want[0] || bmax[j] != want[1] {
				return 0, 0, fmt.Errorf("node %d axis %d: box [%v, %v], points span [%v, %v]", n, j, bmin[j], bmax[j], want[0], want[1])
			}
			if node.axis >= 0 && (bmax[j]-bmin[j] > bmax[node.axis]-bmin[node.axis] ||
				j < int(node.axis) && bmax[j]-bmin[j] == bmax[node.axis]-bmin[node.axis]) {
				return 0, 0, fmt.Errorf("node %d splits on axis %d, axis %d is at least as wide", n, node.axis, j)
			}
		}
		return lo, hi, nil
	}
	lo, hi, err := walk(0, -1)
	if err == nil && (lo != 0 || hi != len(pts)) {
		err = fmt.Errorf("the root owns [%d, %d) of %d slots", lo, hi, len(pts))
	}
	return err
}

// TestSelectNth checks the selection against a sort at every position,
// on distinct, tied and presorted keys.
func TestSelectNth(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70)
		keys := make([]int, n)
		for i := range keys {
			switch trial % 3 {
			case 0:
				keys[i] = rng.Intn(1000)
			case 1:
				keys[i] = rng.Intn(3) // heavy ties
			default:
				keys[i] = i // presorted
			}
		}
		compare := func(a, b int) int {
			if c := cmp.Compare(keys[a], keys[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		}
		sorted := make([]int, n)
		for i := range sorted {
			sorted[i] = i
		}
		rng.Shuffle(n, func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
		start := slices.Clone(sorted)
		slices.SortFunc(sorted, compare)
		for nth := 0; nth < n; nth++ {
			ids := slices.Clone(start)
			selectNth(ids, nth, compare)
			if ids[nth] != sorted[nth] {
				t.Fatalf("n=%d nth=%d: selected %d, sort puts %d there", n, nth, ids[nth], sorted[nth])
			}
			below := slices.Clone(ids[:nth])
			slices.Sort(below)
			want := slices.Clone(sorted[:nth])
			slices.Sort(want)
			if !slices.Equal(below, want) {
				t.Fatalf("n=%d nth=%d: %v before the median, sort has %v", n, nth, below, want)
			}
		}
	}
}
