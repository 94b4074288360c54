package ml

import (
	"fmt"
	"math"
	"slices"
)

// KNNMap is the paper's association model for one directed camera pair:
// the K-nearest-neighbours classifier (is this box visible on the other
// camera?) and the K-nearest-neighbours regressor (where?) answered from
// one index over all of the pair's samples. Each sample carries its
// visible label and, when visible, its target; the regression averages
// the K nearest visible samples' targets by inverse distance.
//
// A query searches once for the vote. When the vote says visible and all
// K neighbours are visible, they are the regression's neighbours too, in
// the same (distance, index) order, so no second search runs; otherwise
// the regression searches the same index over the visible samples only.
// A vote search stops as soon as a negative answer is certain (see
// kdSearch.rejected), bounding every visible sample's distance by the
// distance to the box around them, which NewKNNMap computes. The
// answers are bit-identical to a classifier over all samples and a
// regressor over the visible ones, each searched to the end.
//
// A KNNMap is immutable after it is built and safe for concurrent use.
type KNNMap struct {
	k    int
	tree *kdTree
	// rank[i] numbers sample i among the visible samples, in sample
	// order; it is -1 for a sample that is not visible.
	rank []int32
	npos int
	// The r-th visible sample's target is targets[r*out:][:out]; out is
	// 0 for a vote-only model.
	targets []float64
	out     int
	// lo and hi bound the visible samples' features on each axis.
	lo, hi []float64
}

// NewKNNMap indexes a pair's samples: feature rows x, their visible
// labels, and one target row per visible sample, in sample order. k <= 0
// selects the default of 5.
func NewKNNMap(x [][]float64, visible []bool, targets [][]float64, k int) (*KNNMap, error) {
	if _, err := checkXY(x, visible); err != nil {
		return nil, fmt.Errorf("knn map: %w", err)
	}
	npos := 0
	for _, v := range visible {
		if v {
			npos++
		}
	}
	if len(targets) != npos {
		return nil, fmt.Errorf("knn map: %d visible samples vs %d target rows", npos, len(targets))
	}
	for i, row := range targets {
		if len(row) == 0 || len(row) != len(targets[0]) {
			return nil, fmt.Errorf("knn map: empty or ragged target row %d", i)
		}
	}
	return newKNNMap(x, visible, targets, k), nil
}

// newKNNMap is NewKNNMap on validated input; targets may be nil for a
// vote-only model.
func newKNNMap(x [][]float64, visible []bool, targets [][]float64, k int) *KNNMap {
	if k <= 0 {
		k = 5
	}
	m := &KNNMap{k: k, tree: newKDTree(x), rank: make([]int32, len(x))}
	for i, v := range visible {
		if !v {
			m.rank[i] = -1
			continue
		}
		if m.npos == 0 {
			m.lo, m.hi = slices.Clone(x[i]), slices.Clone(x[i])
		}
		for j := range m.lo {
			m.lo[j] = min(m.lo[j], x[i][j])
			m.hi[j] = max(m.hi[j], x[i][j])
		}
		m.rank[i] = int32(m.npos)
		m.npos++
	}
	if len(targets) > 0 {
		m.out = len(targets[0])
		m.targets = make([]float64, 0, len(targets)*m.out)
		for _, row := range targets {
			m.targets = append(m.targets, row...)
		}
	}
	return m
}

// Visible returns the majority label among the K nearest samples. Ties
// break toward visible, matching the deployment bias: a missed
// association costs a redundant tracker, while the matching step
// downstream filters false positives.
func (m *KNNMap) Visible(x []float64) (bool, error) {
	if err := m.check(x); err != nil {
		return false, err
	}
	_, visible, _ := m.query(nil, x, false)
	return visible, nil
}

// Map returns Visible's answer and, when visible, appends the predicted
// target to dst: the inverse-distance-weighted mean of the K nearest
// visible samples' targets, or an exactly matching sample's target (true
// lookup-table behaviour). With room in dst it allocates nothing.
func (m *KNNMap) Map(dst, x []float64) ([]float64, bool, error) {
	if err := m.check(x); err != nil {
		return dst, false, err
	}
	dst, visible, _ := m.query(dst, x, true)
	return dst, visible, nil
}

func (m *KNNMap) check(x []float64) error {
	if len(x) != m.tree.dim {
		return fmt.Errorf("knn: feature dim %d, want %d", len(x), m.tree.dim)
	}
	return nil
}

// query searches the K nearest samples to x for the vote and, with
// regress and a visible vote, appends the predicted target to dst; it
// also returns the leaves its searches scanned.
func (m *KNNMap) query(dst, x []float64, regress bool) (_ []float64, visible bool, leaves int) {
	var store [stackK]neighbor
	s := kdSearch{t: m.tree, q: x, best: newKBest(m.k, len(m.rank), &store)}
	if m.vote(&s) {
		return dst, false, s.leaves
	}
	near, pos := s.best.buf, 0
	for _, c := range near {
		if m.rank[c.index] >= 0 {
			pos++
		}
	}
	if visible = pos*2 >= len(near); !visible || !regress {
		return dst, visible, s.leaves
	}
	leaves = s.leaves
	if pos < len(near) {
		r := kdSearch{t: m.tree, q: x, best: newKBest(m.k, m.npos, &store), rank: m.rank, only: true}
		r.search(0)
		near, leaves = r.best.buf, leaves+r.leaves
	}
	return m.weigh(dst, near), true, leaves
}

// vote runs s, a search of all samples for the K nearest to s.q, as the
// vote; stopped reports that it stopped early, the vote certainly
// negative, with an incomplete list.
func (m *KNNMap) vote(s *kdSearch) (stopped bool) {
	// Only a sample strictly closer than the bound can outrank every
	// visible one, so a query inside the visible samples' box (bound 0)
	// searches to the end.
	if m.npos < len(m.rank) {
		if bound := m.lowerBound(s.q); bound > 0 {
			s.rank, s.bound, s.quorum = m.rank, bound, s.best.k/2+1
		}
	}
	return s.search(0)
}

// lowerBound returns the squared distance from x to the box around the
// visible samples (boxDist2): no visible sample's dist2 is smaller. With
// no visible sample it is +Inf.
func (m *KNNMap) lowerBound(x []float64) float64 {
	if m.npos == 0 {
		return math.Inf(1)
	}
	return boxDist2(x, m.lo, m.hi)
}

// weigh appends the inverse-distance-weighted mean of near's targets to
// dst; a neighbour at distance 0 (first, if any) gives its target alone.
func (m *KNNMap) weigh(dst []float64, near []neighbor) []float64 {
	n0 := len(dst)
	dst = slices.Grow(dst, m.out)[:n0+m.out]
	pred := dst[n0:]
	clear(pred)
	var wsum float64
	for _, n := range near {
		target := m.targets[int(m.rank[n.index])*m.out:][:m.out]
		if n.dist == 0 {
			copy(pred, target)
			return dst
		}
		w := 1 / math.Sqrt(n.dist)
		wsum += w
		for j := range pred {
			pred[j] += w * target[j]
		}
	}
	for j := range pred {
		pred[j] /= wsum
	}
	return dst
}

// KNNClassifier is the paper's association classifier: a non-parametric
// K-nearest-neighbors vote over the labelled training cases, acting as "a
// special lookup table which uses the nearest case(s) in the memory to
// generate the prediction". It is a vote-only KNNMap.
type KNNClassifier struct {
	// K is the number of neighbors consulted; 0 means the default of 5.
	K int

	m *KNNMap
}

// Name implements Classifier.
func (k *KNNClassifier) Name() string { return "knn" }

// Fit indexes the training set (KNN is lazy; there is nothing to
// optimize). The index holds its own copy of x.
func (k *KNNClassifier) Fit(x [][]float64, y []bool) error {
	if _, err := checkXY(x, y); err != nil {
		return fmt.Errorf("knn classifier: %w", err)
	}
	k.m = newKNNMap(x, y, nil, k.K)
	return nil
}

// Predict returns the majority label among the K nearest training points
// (KNNMap.Visible).
func (k *KNNClassifier) Predict(x []float64) (bool, error) {
	if k.m == nil {
		return false, ErrNotFitted
	}
	return k.m.Visible(x)
}

// KNNRegressor is the paper's association regressor: it predicts the
// mapped bounding box on the target camera as the inverse-distance
// weighted average of the K nearest training correspondences. It is a
// KNNMap whose samples are all visible.
type KNNRegressor struct {
	// K is the number of neighbors consulted; 0 means the default of 5.
	K int

	m *KNNMap
}

// Name implements Regressor.
func (k *KNNRegressor) Name() string { return "knn" }

// Fit indexes the training correspondences; the index holds its own
// copy of x and y.
func (k *KNNRegressor) Fit(x [][]float64, y [][]float64) error {
	if _, _, err := checkXYReg(x, y); err != nil {
		return fmt.Errorf("knn regressor: %w", err)
	}
	visible := make([]bool, len(x))
	for i := range visible {
		visible[i] = true
	}
	k.m = newKNNMap(x, visible, y, k.K)
	return nil
}

// Predict appends the inverse-distance-weighted mean of the nearest
// neighbors' targets to dst. An exact feature match yields that case's
// target directly (true lookup-table behaviour).
func (k *KNNRegressor) Predict(dst, x []float64) ([]float64, error) {
	if k.m == nil {
		return dst, ErrNotFitted
	}
	dst, _, err := k.m.Map(dst, x)
	return dst, err
}

// dist2 returns the squared Euclidean distance between equal-length
// vectors.
func dist2(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}
