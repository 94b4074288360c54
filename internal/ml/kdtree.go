package ml

import (
	"cmp"
	"slices"
)

// kdTree is an exact k-nearest-neighbor index over low-dimensional
// points (the association models use 4-D box vectors). It returns
// exactly the same neighbors as the brute-force scan, including the
// deterministic tie-break on point index, so swapping it in cannot
// change model predictions — only their cost: queries drop from O(n) to
// roughly O(log n) on the box distributions the tracker produces.
type kdTree struct {
	points [][]float64
	// nodes is a balanced implicit tree over point indices.
	root *kdNode
	dim  int
}

type kdNode struct {
	index       int // index into points
	axis        int
	left, right *kdNode
}

// kdLeafThreshold is the dataset size below which brute force wins (no
// tree build or traversal overhead).
const kdLeafThreshold = 64

// newKDTree builds the index; points must be non-empty and rectangular
// (callers validate via checkXY/checkXYReg).
func newKDTree(points [][]float64) *kdTree {
	t := &kdTree{points: points, dim: len(points[0])}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx, 0)
	return t
}

func (t *kdTree) build(idx []int, depth int) *kdNode {
	if len(idx) == 0 {
		return nil
	}
	axis := depth % t.dim
	// Median split by the axis coordinate; ties by index keep the build
	// deterministic.
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(t.points[a][axis], t.points[b][axis]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	mid := len(idx) / 2
	node := &kdNode{index: idx[mid], axis: axis}
	node.left = t.build(idx[:mid], depth+1)
	node.right = t.build(idx[mid+1:], depth+1)
	return node
}

// neighbor is a candidate result; worseThan is the brute-force order and
// tie-break: larger distance is worse; at equal distance, larger index is
// worse.
type neighbor struct {
	dist  float64
	index int
}

func (a neighbor) worseThan(b neighbor) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.index > b.index
}

// stackK is the largest k whose candidate buffer lives in the caller's
// frame; the deployed models use k = 5.
const stackK = 16

// kBest keeps the k best candidates offered so far in increasing
// (dist, index) order, so the worst sits last and the final answer needs
// no sort. Insertion is O(k), which beats a heap for the single-digit k
// the models use, and nothing is boxed or copied out.
type kBest struct {
	k   int
	buf []neighbor // len <= k, backed by the caller's array when k <= stackK
}

// newKBest returns a selector for the k nearest of n >= 1 points (k >= 1)
// over store; it allocates only for a k past stackK, which no model in
// this repository uses.
func newKBest(k, n int, store *[stackK]neighbor) kBest {
	if k > n {
		k = n
	}
	if k > stackK {
		return kBest{k: k, buf: make([]neighbor, 0, k)}
	}
	return kBest{k: k, buf: store[:0]}
}

func (b *kBest) full() bool { return len(b.buf) == b.k }

// worst returns the current k-th best candidate; only valid when full.
func (b *kBest) worst() neighbor { return b.buf[len(b.buf)-1] }

// offer inserts c if it is among the k best seen so far.
func (b *kBest) offer(c neighbor) {
	if b.full() {
		if !b.worst().worseThan(c) {
			return
		}
		b.buf = b.buf[:len(b.buf)-1]
	}
	i := len(b.buf)
	b.buf = b.buf[:i+1]
	for i > 0 && b.buf[i-1].worseThan(c) {
		b.buf[i] = b.buf[i-1]
		i--
	}
	b.buf[i] = c
}

// search offers best the points under n that can still be among the k
// nearest to q; called on the root it leaves best.buf holding them in
// increasing (dist, index) order — identical to the linear scan.
func (t *kdTree) search(n *kdNode, q []float64, best *kBest) {
	if n == nil {
		return
	}
	best.offer(neighbor{dist: dist2(t.points[n.index], q), index: n.index})

	diff := q[n.axis] - t.points[n.index][n.axis]
	near, far := n.left, n.right
	if diff > 0 {
		near, far = n.right, n.left
	}
	t.search(near, q, best)
	// Visit the far side only if the splitting plane could still hold a
	// better candidate. With equal distances breaking ties by index, a
	// plane at exactly the current worst distance can still hide a
	// lower-index point, so use <= rather than <.
	if !best.full() || diff*diff <= best.worst().dist {
		t.search(far, q, best)
	}
}
