package ml

import (
	"fmt"
	"sort"
)

// TreeClassifier is a CART-style binary decision tree with Gini-impurity
// splits, one of the paper's classification baselines.
type TreeClassifier struct {
	dim  int
	root *treeNode
}

type treeNode struct {
	// Internal nodes.
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// Leaves.
	leaf  bool
	label bool
}

// Name implements Classifier.
func (t *TreeClassifier) Name() string { return "tree" }

// The tree baseline's growth bounds: the deepest a tree grows, and the
// fewest examples a leaf holds.
const (
	treeMaxDepth       = 8
	treeMinSamplesLeaf = 3
)

// Fit grows the tree greedily, choosing at each node the (feature,
// threshold) split that minimizes weighted Gini impurity.
func (t *TreeClassifier) Fit(x [][]float64, y []bool) error {
	dim, err := checkXY(x, y)
	if err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	t.dim = dim
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = grow(x, y, idx, treeMaxDepth, treeMinSamplesLeaf)
	return nil
}

// Predict implements Classifier by descending the tree.
func (t *TreeClassifier) Predict(x []float64) (bool, error) {
	if t.root == nil {
		return false, ErrNotFitted
	}
	if len(x) != t.dim {
		return false, fmt.Errorf("tree: feature dim %d, want %d", len(x), t.dim)
	}
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label, nil
}

func grow(x [][]float64, y []bool, idx []int, depth, minLeaf int) *treeNode {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	majority := pos*2 >= len(idx)
	if depth == 0 || len(idx) < 2*minLeaf || pos == 0 || pos == len(idx) {
		return &treeNode{leaf: true, label: majority}
	}

	bestGini := gini(pos, len(idx))
	bestFeature, bestThreshold := -1, 0.0
	dim := len(x[0])
	order := make([]int, len(idx))
	for f := 0; f < dim; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		leftPos := 0
		for k := 0; k < len(order)-1; k++ {
			if y[order[k]] {
				leftPos++
			}
			// Only split between distinct feature values.
			if x[order[k]][f] == x[order[k+1]][f] {
				continue
			}
			nl, nr := k+1, len(order)-k-1
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			g := (float64(nl)*gini(leftPos, nl) + float64(nr)*gini(pos-leftPos, nr)) / float64(len(order))
			if g < bestGini-1e-12 {
				bestGini = g
				bestFeature = f
				bestThreshold = (x[order[k]][f] + x[order[k+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &treeNode{leaf: true, label: majority}
	}

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x[i][bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	return &treeNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      grow(x, y, leftIdx, depth-1, minLeaf),
		right:     grow(x, y, rightIdx, depth-1, minLeaf),
	}
}

// gini returns the Gini impurity of a node with pos positives out of n.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}
