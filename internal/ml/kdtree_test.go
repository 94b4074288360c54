package ml

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// referenceNearest is the brute-force scan this package shipped before
// the bounded selector, kept verbatim as the oracle: rank every point
// with sort.Slice by (distance, index) and keep the first k.
func referenceNearest(points [][]float64, x []float64, k int) []int {
	type cand struct {
		i int
		d float64
	}
	cands := make([]cand, len(points))
	for i, p := range points {
		cands[i] = cand{i, dist2(p, x)}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].i < cands[b].i
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].i
	}
	return out
}

// nearestIdx runs the production selector — through the k-d index when
// tree is non-nil, the linear scan otherwise — and returns the indices.
func nearestIdx(points [][]float64, tree *kdTree, x []float64, k int) []int {
	var store [stackK]neighbor
	near := nearest(points, tree, x, k, &store)
	idx := make([]int, len(near))
	for i, n := range near {
		idx[i] = n.index
	}
	return idx
}

// checkNearest compares both production paths with the oracle.
func checkNearest(t *testing.T, pts [][]float64, tree *kdTree, q []float64, k int) {
	t.Helper()
	want := referenceNearest(pts, q, k)
	if got := nearestIdx(pts, tree, q, k); !slices.Equal(got, want) {
		t.Fatalf("k=%d: kd %v vs reference %v", k, got, want)
	}
	if got := nearestIdx(pts, nil, q, k); !slices.Equal(got, want) {
		t.Fatalf("k=%d: scan %v vs reference %v", k, got, want)
	}
}

func randomPoints(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64() * 1000
		}
	}
	return pts
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		dim := 1 + rng.Intn(5)
		pts := randomPoints(rng, n, dim)
		tree := newKDTree(pts)
		k := 1 + rng.Intn(8)
		if trial%10 == 0 {
			k = stackK + 1 + rng.Intn(8) // past the stack-resident buffer
		}
		for q := 0; q < 10; q++ {
			query := make([]float64, dim)
			for j := range query {
				query[j] = rng.Float64() * 1000
			}
			checkNearest(t, pts, tree, query, k)
		}
	}
}

func TestKDTreeDuplicatePointsTieBreak(t *testing.T) {
	// Many identical points: neighbor order must be by index, exactly as
	// brute force.
	pts := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}, {1, 1}}
	checkNearest(t, pts, newKDTree(pts), []float64{5, 5}, 3)

	// Ties on distance at scale: points drawn from a 4x4 lattice, so every
	// query has many equidistant neighbours and every neighbourhood
	// boundary is decided on index alone.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		pts := make([][]float64, 1+rng.Intn(200))
		for i := range pts {
			pts[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(4))}
		}
		q := []float64{float64(rng.Intn(4)), float64(rng.Intn(4))}
		checkNearest(t, pts, newKDTree(pts), q, 1+rng.Intn(9))
	}
}

func TestKDTreeKLargerThanN(t *testing.T) {
	pts := [][]float64{{1}, {2}, {3}}
	tree := newKDTree(pts)
	got := nearestIdx(pts, tree, []float64{0}, 10)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestKNNModelsIdenticalWithAndWithoutIndex(t *testing.T) {
	// Train two classifiers on the same data, one below and one above the
	// index threshold, by padding the large one with far-away points that
	// never enter any k-neighborhood of the probed region.
	rng := rand.New(rand.NewSource(23))
	x, y := linearlySeparable(300, 23) // >= kdLeafThreshold: indexed
	indexed := &KNNClassifier{K: 5}
	if err := indexed.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if indexed.tree == nil {
		t.Fatal("large training set not indexed")
	}
	brute := &KNNClassifier{K: 5}
	if err := brute.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	brute.tree = nil // force the scan path
	for i := 0; i < 500; i++ {
		q := []float64{rng.Float64() * 260, rng.Float64() * 260}
		a, err := indexed.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := brute.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("prediction diverged at %v: indexed=%v brute=%v", q, a, b)
		}
	}
}

func TestKDTreePropertyAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 64+rng.Intn(64), 4)
		tree := newKDTree(pts)
		q := make([]float64, 4)
		for j := range q {
			q[j] = rng.Float64() * 1000
		}
		want := referenceNearest(pts, q, 5)
		return slices.Equal(nearestIdx(pts, tree, q, 5), want) &&
			slices.Equal(nearestIdx(pts, nil, q, 5), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestKNNPredictAllocatesNothing is the budget: a classifier query, on
// the index or on the scan, allocates nothing — the candidate buffer
// stays in Predict's frame.
func TestKNNPredictAllocatesNothing(t *testing.T) {
	for _, n := range []int{kdLeafThreshold / 2, 2000} {
		x, y := linearlySeparable(n, 21)
		c := &KNNClassifier{K: 5}
		if err := c.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if (c.tree != nil) != (n >= kdLeafThreshold) {
			t.Fatalf("n=%d: indexed=%v", n, c.tree != nil)
		}
		q := []float64{100, 100}
		if got := testing.AllocsPerRun(200, func() {
			if _, err := c.Predict(q); err != nil {
				panic(err)
			}
		}); got != 0 {
			t.Errorf("n=%d: Predict allocates %v per call, want 0", n, got)
		}
	}
}

// BenchmarkKNNPredictBrute forces the linear scan for comparison with
// ml_test.go's BenchmarkKNNPredict (which uses the k-d index on the same
// 2000-point set).
func BenchmarkKNNPredictBrute(b *testing.B) {
	x, y := linearlySeparable(2000, 21)
	c := &KNNClassifier{K: 5}
	if err := c.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	c.tree = nil
	q := []float64{100, 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Predict(q); err != nil {
			b.Fatal(err)
		}
	}
}
