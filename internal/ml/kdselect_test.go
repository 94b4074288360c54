package ml

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortedKDTree builds the index the way it was built before median
// selection, kept as the oracle: a full sort by (coordinate, index) at
// every level.
func sortedKDTree(points [][]float64) *kdTree {
	t := &kdTree{dim: len(points[0]), ids: make([]int, len(points))}
	for i := range t.ids {
		t.ids[i] = i
	}
	var build func(ids []int, lo, depth int) int32
	build = func(ids []int, lo, depth int) int32 {
		n := int32(len(t.nodes))
		if len(ids) <= kdBucket {
			t.nodes = append(t.nodes, kdNode{axis: -1, a: int32(lo), b: int32(lo + len(ids))})
			return n
		}
		axis := depth % t.dim
		slices.SortFunc(ids, func(a, b int) int {
			if c := cmp.Compare(points[a][axis], points[b][axis]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		mid := len(ids) / 2
		t.nodes = append(t.nodes, kdNode{split: points[ids[mid]][axis], axis: int32(axis)})
		left := build(ids[:mid], lo, depth+1)
		right := build(ids[mid:], lo+mid, depth+1)
		t.nodes[n].a, t.nodes[n].b = left, right
		return n
	}
	build(t.ids, 0, 0)
	for _, id := range t.ids {
		t.coords = append(t.coords, points[id]...)
	}
	return t
}

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

// TestKDMedianSelectMatchesSort holds the selecting build to the sorting
// one on tie-heavy sets, where selection and sorting are most likely to
// part: the same nodes, slot order and coordinates, so every query visits
// the same points in the same order; two builds of one set agree, so the
// select is deterministic; and the classifier and regressor answer as the
// brute-force oracle does.
func TestKDMedianSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sets := tieHeavySets(rng)
	for _, n := range []int{281, 1000} { // and box sets with no ties at all
		sets = append(sets, namedSet{fmt.Sprintf("boxes n=%d", n), boxPoints(rng, n)})
	}
	for _, set := range sets {
		name, pts := set.name, set.pts
		got, want := newKDTree(pts), sortedKDTree(pts)
		if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.ids, want.ids) || !slices.Equal(got.coords, want.coords) {
			t.Fatalf("%s: the index differs from the sorted build", name)
		}
		if again := newKDTree(pts); !slices.Equal(again.ids, got.ids) {
			t.Fatalf("%s: two builds order the slots differently", name)
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
