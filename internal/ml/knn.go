package ml

import (
	"fmt"
	"math"
	"slices"
)

// KNNClassifier is the paper's association classifier: a non-parametric
// K-nearest-neighbors vote over the labelled training cases, acting as "a
// special lookup table which uses the nearest case(s) in the memory to
// generate the prediction".
type KNNClassifier struct {
	// K is the number of neighbors consulted; 0 means the default of 5.
	K int

	dim    int
	labels []bool
	tree   *kdTree
}

// Name implements Classifier.
func (k *KNNClassifier) Name() string { return "knn" }

// Fit indexes the training set (KNN is lazy; there is nothing to
// optimize). The index holds its own copy of x.
func (k *KNNClassifier) Fit(x [][]float64, y []bool) error {
	dim, err := checkXY(x, y)
	if err != nil {
		return fmt.Errorf("knn classifier: %w", err)
	}
	k.dim = dim
	k.labels = y
	k.tree = newKDTree(x)
	return nil
}

// Predict returns the majority label among the K nearest training points.
// Ties break toward positive, matching the deployment bias: a missed
// association costs a redundant tracker, while the matching step
// downstream filters false positives.
func (k *KNNClassifier) Predict(x []float64) (bool, error) {
	if k.tree == nil {
		return false, ErrNotFitted
	}
	if len(x) != k.dim {
		return false, fmt.Errorf("knn classifier: feature dim %d, want %d", len(x), k.dim)
	}
	var store [stackK]neighbor
	near := k.tree.nearest(x, k.kEff(), &store)
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
	targets [][]float64
	tree    *kdTree
}

// Name implements Regressor.
func (k *KNNRegressor) Name() string { return "knn" }

// Fit indexes the training correspondences; the index holds its own
// copy of x.
func (k *KNNRegressor) Fit(x [][]float64, y [][]float64) error {
	dim, out, err := checkXYReg(x, y)
	if err != nil {
		return fmt.Errorf("knn regressor: %w", err)
	}
	k.dim, k.out = dim, out
	k.targets = y
	k.tree = newKDTree(x)
	return nil
}

// Predict appends the inverse-distance-weighted mean of the nearest
// neighbors' targets to dst. An exact feature match yields that case's
// target directly (true lookup-table behaviour).
func (k *KNNRegressor) Predict(dst, x []float64) ([]float64, error) {
	if k.tree == nil {
		return dst, ErrNotFitted
	}
	if len(x) != k.dim {
		return dst, fmt.Errorf("knn regressor: feature dim %d, want %d", len(x), k.dim)
	}
	var store [stackK]neighbor
	near := k.tree.nearest(x, k.kEff(), &store)
	n0 := len(dst)
	dst = slices.Grow(dst, k.out)[:n0+k.out]
	pred := dst[n0:]
	clear(pred)
	var wsum float64
	for _, n := range near {
		i, d := n.index, n.dist
		if d == 0 {
			copy(pred, k.targets[i])
			return dst, nil
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
	return dst, nil
}

func (k *KNNRegressor) kEff() int {
	if k.K > 0 {
		return k.K
	}
	return 5
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
