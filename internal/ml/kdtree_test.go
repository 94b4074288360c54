package ml

import (
	"math"
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

// referenceVote is KNNClassifier.Predict on referenceNearest's list.
func referenceVote(points [][]float64, labels []bool, x []float64, k int) bool {
	near := referenceNearest(points, x, k)
	pos := 0
	for _, i := range near {
		if labels[i] {
			pos++
		}
	}
	return pos*2 >= len(near)
}

// referenceRegress is KNNRegressor.Predict on referenceNearest's list,
// summing in the same order so the result is bit-comparable.
func referenceRegress(points, targets [][]float64, x []float64, k int) []float64 {
	pred := make([]float64, len(targets[0]))
	var wsum float64
	for _, i := range referenceNearest(points, x, k) {
		d := dist2(points[i], x)
		if d == 0 {
			copy(pred, targets[i])
			return pred
		}
		w := 1 / math.Sqrt(d)
		wsum += w
		for j := range pred {
			pred[j] += w * targets[i][j]
		}
	}
	for j := range pred {
		pred[j] /= wsum
	}
	return pred
}

// nearestIdx searches the production index for the k points nearest to
// x (all points when k >= their count) and returns their indices in
// increasing (dist, index) order.
func nearestIdx(tree *kdTree, x []float64, k int) []int {
	var store [stackK]neighbor
	s := kdSearch{t: tree, q: x, best: newKBest(k, len(tree.ids), &store)}
	s.search(0)
	idx := make([]int, len(s.best.buf))
	for i, n := range s.best.buf {
		idx[i] = n.index
	}
	return idx
}

// checkNearest compares the index with the oracle.
func checkNearest(t *testing.T, pts [][]float64, tree *kdTree, q []float64, k int) {
	t.Helper()
	want := referenceNearest(pts, q, k)
	if got := nearestIdx(tree, q, k); !slices.Equal(got, want) {
		t.Fatalf("n=%d k=%d q=%v: index %v vs reference %v", len(pts), k, q, got, want)
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

// boxPoints draws n 4-D box vectors (MinX, MinY, MaxX, MaxY) shaped
// like the association models' training sets: boxes 20–200 px wide on a
// 1280×704 image, centred in the road band.
func boxPoints(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		cx, cy := rng.Float64()*1280, 200+rng.Float64()*504
		w := 20 + rng.Float64()*180
		h := w * (0.6 + 0.6*rng.Float64())
		pts[i] = []float64{cx - w/2, cy - h/2, cx + w/2, cy + h/2}
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

// TestKDTreeTieHeavy drives the plane rule and the bucket boundary with
// generated sets where distances tie constantly: exact duplicates, one
// coordinate shared by most points (so many split values equal the
// query's), and coordinates on a 1/8 grid, at sizes around the bucket
// (n = bucket, bucket+1, 2·bucket, 2·bucket+1) and well past it. Every
// query sits on the same grid, so a splitting plane at exactly the k-th
// distance — the case `<=` exists for — comes up in every set.
func TestKDTreeTieHeavy(t *testing.T) {
	sizes := []int{1, kdBucket - 1, kdBucket, kdBucket + 1, 2 * kdBucket, 2*kdBucket + 1, 4*kdBucket + 3, 100, 281}
	gens := []func(rng *rand.Rand, dim int) []float64{
		func(rng *rand.Rand, dim int) []float64 { // duplicates
			p := make([]float64, dim)
			for j := range p {
				p[j] = float64(rng.Intn(2))
			}
			return p
		},
		func(rng *rand.Rand, dim int) []float64 { // shared axis
			p := make([]float64, dim)
			for j := range p {
				if j == 0 && rng.Intn(4) > 0 {
					p[j] = 1 // most points share the first split axis's value
				} else {
					p[j] = float64(rng.Intn(6))
				}
			}
			return p
		},
		func(rng *rand.Rand, dim int) []float64 { // 1/8 grid
			p := make([]float64, dim)
			for j := range p {
				p[j] = float64(rng.Intn(17)) / 8
			}
			return p
		},
	}
	rng := rand.New(rand.NewSource(29))
	for _, gen := range gens {
		for _, n := range sizes {
			for _, dim := range []int{1, 2, 4} {
				for trial := 0; trial < 12; trial++ {
					pts := make([][]float64, n)
					for i := range pts {
						pts[i] = gen(rng, dim)
					}
					tree := newKDTree(pts)
					for q := 0; q < 8; q++ {
						query := gen(rng, dim)
						if q%2 == 1 {
							query = slices.Clone(pts[rng.Intn(n)]) // on a point
						}
						for _, k := range []int{1, 2, 5, 9} {
							checkNearest(t, pts, tree, query, k)
						}
					}
				}
			}
		}
	}
}

func TestKDTreeKLargerThanN(t *testing.T) {
	pts := [][]float64{{1}, {2}, {3}}
	got := nearestIdx(newKDTree(pts), []float64{0}, 10)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
}

// TestKNNModelsIdenticalWithAndWithoutIndex holds both models, through
// the index, to their predictions on the brute-force reference list, at
// training sizes inside one bucket and past it.
func TestKNNModelsIdenticalWithAndWithoutIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{kdBucket / 2, kdBucket, 300} {
		x, y := linearlySeparable(n, 23)
		c := &KNNClassifier{K: 5}
		if err := c.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		targets := make([][]float64, n)
		for i, p := range x {
			targets[i] = []float64{p[0] + p[1], p[0] * 0.5, float64(i)}
		}
		r := &KNNRegressor{K: 5}
		if err := r.Fit(x, targets); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			q := []float64{rng.Float64() * 260, rng.Float64() * 260}
			if i%5 == 0 {
				q = slices.Clone(x[rng.Intn(n)]) // an exact lookup
			}
			got, err := c.Predict(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceVote(x, y, q, 5); got != want {
				t.Fatalf("n=%d: classifier at %v: indexed=%v reference=%v", n, q, got, want)
			}
			pred, err := r.Predict(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceRegress(x, targets, q, 5); !slices.Equal(pred, want) {
				t.Fatalf("n=%d: regressor at %v: indexed=%v reference=%v", n, q, pred, want)
			}
		}
	}
}

func TestKDTreePropertyAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 1+rng.Intn(128), 4)
		tree := newKDTree(pts)
		q := make([]float64, 4)
		for j := range q {
			q[j] = rng.Float64() * 1000
		}
		return slices.Equal(nearestIdx(tree, q, 5), referenceNearest(pts, q, 5))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestKNNPredictAllocatesNothing is the budget: a classifier query, on a
// single-leaf index or a deep one, allocates nothing — the candidate
// buffer stays in Predict's frame.
func TestKNNPredictAllocatesNothing(t *testing.T) {
	for _, n := range []int{kdBucket / 2, 2000} {
		x, y := linearlySeparable(n, 21)
		c := &KNNClassifier{K: 5}
		if err := c.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if leaf := len(c.m.tree.nodes) == 1; leaf != (n <= kdBucket) {
			t.Fatalf("n=%d: single leaf = %v", n, leaf)
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

// FuzzKNN decodes bytes into up to 200 4-D points on a coarse grid, one
// query and a k in 1–16, and holds the classifier's vote and the
// regressor's output bit-equal to the brute-force reference.
func FuzzKNN(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 1, 2, 3, 4, 5, 5, 5, 5, 1, 2, 3, 5})
	f.Add(append([]byte{15}, make([]byte, 4*40)...))
	seed := rand.New(rand.NewSource(3))
	for _, n := range []int{kdBucket, kdBucket + 1, 2*kdBucket + 1, 200} {
		b := make([]byte, 1+4*(n+1))
		seed.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		k := 1 + int(data[0]%16)
		// coord maps a byte onto a 1/4 grid over [-4, 4): coarse enough
		// that distances and split planes tie often.
		coord := func(b byte) float64 { return float64(int(b%32)-16) / 4 }
		q := []float64{coord(data[1]), coord(data[2]), coord(data[3]), coord(data[4])}
		var x [][]float64
		var y []bool
		var targets [][]float64
		for rest := data[5:]; len(rest) >= 4 && len(x) < 200; rest = rest[4:] {
			p := []float64{coord(rest[0]), coord(rest[1]), coord(rest[2]), coord(rest[3])}
			x = append(x, p)
			y = append(y, rest[0]&0x80 != 0)
			targets = append(targets, []float64{p[0] + p[2], float64(rest[1]), float64(len(x))})
		}
		if len(x) == 0 {
			return
		}
		c := &KNNClassifier{K: k}
		if err := c.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		got, err := c.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceVote(x, y, q, k); got != want {
			t.Fatalf("k=%d n=%d: vote %v, reference %v", k, len(x), got, want)
		}
		r := &KNNRegressor{K: k}
		if err := r.Fit(x, targets); err != nil {
			t.Fatal(err)
		}
		pred, err := r.Predict(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRegress(x, targets, q, k)
		for j := range want {
			if math.Float64bits(pred[j]) != math.Float64bits(want[j]) {
				t.Fatalf("k=%d n=%d: regressor %v, reference %v", k, len(x), pred, want)
			}
		}
	})
}

// TestKNNMapRejectsEarly checks that the early rejection fires: with
// the visible samples in one corner and a query among invisible ones far
// from it, the vote search stops before its list is complete; with the
// query inside the visible samples' box it runs to the end. Either way
// the answer is the brute-force vote.
func TestKNNMapRejectsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := boxPoints(rng, 281)
	visible := make([]bool, len(pts))
	for i, p := range pts {
		visible[i] = p[0] < 200 // the left edge of the image
	}
	var targets [][]float64
	for i, p := range pts {
		if visible[i] {
			targets = append(targets, []float64{p[0], p[1]})
		}
	}
	m, err := NewKNNMap(pts, visible, targets, 5)
	if err != nil {
		t.Fatal(err)
	}
	var store [stackK]neighbor
	for _, tc := range []struct {
		q       []float64
		stopped bool
	}{
		{[]float64{1000, 400, 1080, 460}, true},
		{[]float64{40, 300, 120, 360}, false},
	} {
		near, _, vote := m.vote(tc.q, &store)
		if stopped := near == nil; stopped != tc.stopped {
			t.Errorf("q=%v: stopped early = %v, want %v", tc.q, stopped, tc.stopped)
		}
		if want := referenceVote(pts, visible, tc.q, 5); vote != want {
			t.Errorf("q=%v: vote %v, reference %v", tc.q, vote, want)
		}
	}
}

// FuzzKNNMap decodes bytes into up to 200 4-D samples on a coarse grid,
// each with a visible label and a target, one query and a k in 1–8, and
// holds the joint index to the split models it replaces — a classifier
// over all samples and a regressor over the visible ones — and to the
// brute-force reference: the vote, and when visible the mapped vector
// bit for bit.
func FuzzKNNMap(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 1, 2, 3, 4, 5, 5, 5, 5, 0x81, 2, 3, 5})
	f.Add(append([]byte{2, 9, 9, 9, 9}, make([]byte, 4*40)...))
	seed := rand.New(rand.NewSource(46))
	for _, n := range []int{3, kdBucket, kdBucket + 1, 2*kdBucket + 1, 200} {
		b := make([]byte, 5+4*n)
		seed.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		k := 1 + int(data[0]%8)
		coord := func(b byte) float64 { return float64(int(b%32)-16) / 4 }
		q := []float64{coord(data[1]), coord(data[2]), coord(data[3]), coord(data[4])}
		var x, rx, ry [][]float64
		var visible []bool
		for rest := data[5:]; len(rest) >= 4 && len(x) < 200; rest = rest[4:] {
			p := []float64{coord(rest[0]), coord(rest[1]), coord(rest[2]), coord(rest[3])}
			v := rest[0]&0x80 != 0 || rest[1]&0x80 != 0 // about three in four visible
			x, visible = append(x, p), append(visible, v)
			if v {
				rx, ry = append(rx, p), append(ry, []float64{p[0] + p[2], float64(rest[2]), float64(len(x))})
			}
		}
		if len(x) == 0 {
			return
		}
		m, err := NewKNNMap(x, visible, ry, k)
		if err != nil {
			t.Fatal(err)
		}
		c := &KNNClassifier{K: k}
		if err := c.Fit(x, visible); err != nil {
			t.Fatal(err)
		}
		wantVote, err := c.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if ref := referenceVote(x, visible, q, k); wantVote != ref {
			t.Fatalf("k=%d n=%d: classifier %v, reference %v", k, len(x), wantVote, ref)
		}
		vote, err := m.Visible(q)
		if err != nil {
			t.Fatal(err)
		}
		pred, mapped, err := m.Map(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if vote != wantVote || mapped != wantVote || mapped && len(rx) == 0 {
			t.Fatalf("k=%d n=%d: vote %v, map %v; classifier %v", k, len(x), vote, mapped, wantVote)
		}
		if !mapped {
			return
		}
		r := &KNNRegressor{K: k}
		if err := r.Fit(rx, ry); err != nil {
			t.Fatal(err)
		}
		want, err := r.Predict(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceRegress(rx, ry, q, k)
		for j := range want {
			if math.Float64bits(pred[j]) != math.Float64bits(want[j]) || math.Float64bits(want[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("k=%d n=%d: joint %v, regressor %v, reference %v", k, len(x), pred, want, ref)
			}
		}
	})
}

// scanNearest is the linear scan through the bounded selector — the path
// a training set smaller than a bucket takes, timed on its own.
func scanNearest(points [][]float64, x []float64, k int, store *[stackK]neighbor) []neighbor {
	best := newKBest(k, len(points), store)
	for i, p := range points {
		best.offer(neighbor{dist: dist2(p, x), index: i})
	}
	return best.buf
}

// BenchmarkKNNPredictBrute times the linear scan for comparison with
// ml_test.go's BenchmarkKNNPredict (the index on the same 2000-point
// set).
func BenchmarkKNNPredictBrute(b *testing.B) {
	x, _ := linearlySeparable(2000, 21)
	q := []float64{100, 100}
	var store [stackK]neighbor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = scanNearest(x, q, 5, &store)
	}
}

var benchSink []neighbor
