package ml

import (
	"fmt"
	"math"
)

// KNNClassifier is the paper's association classifier: a non-parametric
// K-nearest-neighbors vote over the labelled training cases, acting as "a
// special lookup table which uses the nearest case(s) in the memory to
// generate the prediction".
type KNNClassifier struct {
	// K is the number of neighbors consulted; 0 means the default of 5.
	K int

	dim    int
	points [][]float64
	labels []bool
	tree   *kdTree
}

// Name implements Classifier.
func (k *KNNClassifier) Name() string { return "knn" }

// Fit stores the training set (KNN is lazy; there is nothing to optimize).
func (k *KNNClassifier) Fit(x [][]float64, y []bool) error {
	dim, err := checkXY(x, y)
	if err != nil {
		return fmt.Errorf("knn classifier: %w", err)
	}
	k.dim = dim
	k.points = x
	k.labels = y
	k.tree = nil
	if len(x) >= kdLeafThreshold {
		k.tree = newKDTree(x)
	}
	return nil
}

// Predict returns the majority label among the K nearest training points.
// Ties break toward positive, matching the deployment bias: a missed
// association costs a redundant tracker, while the matching step
// downstream filters false positives.
func (k *KNNClassifier) Predict(x []float64) (bool, error) {
	if k.points == nil {
		return false, ErrNotFitted
	}
	if len(x) != k.dim {
		return false, fmt.Errorf("knn classifier: feature dim %d, want %d", len(x), k.dim)
	}
	var store [stackK]neighbor
	near := nearest(k.points, k.tree, x, k.kEff(), &store)
	pos := 0
	for _, n := range near {
		if k.labels[n.index] {
			pos++
		}
	}
	return pos*2 >= len(near), nil
}

func (k *KNNClassifier) kEff() int {
	if k.K > 0 {
		return k.K
	}
	return 5
}

// KNNRegressor is the paper's association regressor: it predicts the
// mapped bounding box on the target camera as the inverse-distance
// weighted average of the K nearest training correspondences.
type KNNRegressor struct {
	// K is the number of neighbors consulted; 0 means the default of 5.
	K int

	dim     int
	out     int
	points  [][]float64
	targets [][]float64
	tree    *kdTree
}

// Name implements Regressor.
func (k *KNNRegressor) Name() string { return "knn" }

// Fit stores the training correspondences.
func (k *KNNRegressor) Fit(x [][]float64, y [][]float64) error {
	dim, out, err := checkXYReg(x, y)
	if err != nil {
		return fmt.Errorf("knn regressor: %w", err)
	}
	k.dim, k.out = dim, out
	k.points = x
	k.targets = y
	k.tree = nil
	if len(x) >= kdLeafThreshold {
		k.tree = newKDTree(x)
	}
	return nil
}

// Predict returns the inverse-distance-weighted mean of the nearest
// neighbors' targets. An exact feature match returns that case's target
// directly (true lookup-table behaviour).
func (k *KNNRegressor) Predict(x []float64) ([]float64, error) {
	if k.points == nil {
		return nil, ErrNotFitted
	}
	if len(x) != k.dim {
		return nil, fmt.Errorf("knn regressor: feature dim %d, want %d", len(x), k.dim)
	}
	var store [stackK]neighbor
	near := nearest(k.points, k.tree, x, k.kEff(), &store)
	pred := make([]float64, k.out)
	var wsum float64
	for _, n := range near {
		i, d := n.index, n.dist
		if d == 0 {
			copy(pred, k.targets[i])
			return pred, nil
		}
		w := 1 / math.Sqrt(d)
		wsum += w
		for j := range pred {
			pred[j] += w * k.targets[i][j]
		}
	}
	for j := range pred {
		pred[j] /= wsum
	}
	return pred, nil
}

func (k *KNNRegressor) kEff() int {
	if k.K > 0 {
		return k.K
	}
	return 5
}

// nearest selects the k points nearest to x (all points when
// k >= len(points)) into a kBest over store, in increasing (dist, index)
// order. It dispatches between the k-d index (large training sets) and
// the linear scan (small ones); both feed the same selector, so they
// return identical neighbor lists including tie-breaks.
func nearest(points [][]float64, tree *kdTree, x []float64, k int, store *[stackK]neighbor) []neighbor {
	best := newKBest(k, len(points), store)
	if tree != nil {
		tree.search(tree.root, x, &best)
		return best.buf
	}
	for i, p := range points {
		best.offer(neighbor{dist: dist2(p, x), index: i})
	}
	return best.buf
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
