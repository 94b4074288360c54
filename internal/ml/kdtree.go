package ml

import (
	"cmp"
	"math"
	"slices"
)

// kdTree is an exact k-nearest-neighbor index over low-dimensional
// points (the association models use 4-D box vectors). It returns
// exactly the same neighbors as the brute-force scan, including the
// deterministic tie-break on point index, so swapping it in cannot
// change model predictions — only their cost.
//
// The layout is flat: the points are copied once, at build, into one
// dim-strided slice in tree order with each slot's original index
// beside it, the nodes live in one slice linked by int32 indices, and a
// leaf is a bucket of up to kdBucket consecutive slots scanned linearly.
//
// Each node keeps the bounding box of its points, and each inner node
// splits them at the median on the axis of their widest spread. A search
// descends the query's side of each split first and then visits the far
// side only if that side's box lies no farther than the current K-th
// best: strictly farther cannot win, and at exactly that distance a
// point can still win on index. The box's distance is dist2 itself on
// the query clamped to the box (boxDist2), so no point's dist2 is
// smaller, fused or not. On the deployed pair models a query scans 4.7
// (C16) and 5.8 (S4) leaves, against 17.4 and 24.0 with cycling axes and
// split planes alone (TestKNNSearchLeavesOnDeployedShape).
//
// A vote query (KNNMap, which the classifier is) also takes the lower
// bound its early rejection needs: the squared distance from the query
// to the box around the visible samples. The rejection fires only when
// the query lies outside that box — inside it the bound is 0 and the
// search runs to its end — and then once K/2+1 invisible neighbours lie
// strictly closer than the bound. On the deployed pairs most votes are
// such rejections. The timing of record is the benchmark's query drill
// on a C16 camera pair, ml.knn_predict_ns (bench/README.md): 372-412 ns
// a query, against 862-867 ns before the early stop (two traced runs a
// side, 2-core Xeon host). With node boxes and the widest axis it reads
// 273-274 ns against 300-412 ns before (two alternating traced runs a
// side, same host; the 300 ns run is the one at a like host speed), and
// the key frame's drills read assoc.associate_us 43-45 against 48-61 us
// and core.central_us 11.8-12.1 against 17.7-20.8 us.
type kdTree struct {
	dim    int
	coords []float64 // slot s is coords[s*dim : (s+1)*dim]
	ids    []int     // slot s holds original point ids[s]
	nodes  []kdNode  // nodes[0] is the root
	// box holds each node's bounding box: node n's points lie in
	// [box[2n*dim:][:dim], box[(2n+1)*dim:][:dim]] axis by axis.
	box []float64
}

// kdNode is an inner node (axis >= 0) or a leaf (axis < 0). An inner
// node's left subtree holds coordinates <= split on its axis and its
// right subtree coordinates >= split; a leaf owns slots [lo, hi).
type kdNode struct {
	split float64
	axis  int32
	// Inner: left and right child node indices. Leaf: lo and hi slots.
	a, b int32
}

// kdBucket is the most points a leaf holds; buckets of 4 to 16 measured
// alike on the deployed shape. A training set no larger than a bucket is
// a single leaf, i.e. the linear scan.
const kdBucket = 8

// newKDTree builds the index over a copy of points; points must be
// non-empty and rectangular (callers validate via checkXY/checkXYReg).
func newKDTree(points [][]float64) *kdTree {
	t := &kdTree{dim: len(points[0]), ids: make([]int, len(points))}
	for i := range t.ids {
		t.ids[i] = i
	}
	t.build(points, t.ids, 0, -1)
	t.coords = make([]float64, 0, len(points)*t.dim)
	for _, id := range t.ids {
		t.coords = append(t.coords, points[id]...)
	}
	return t
}

// build appends the subtree over ids (slots lo..lo+len(ids)), reordering
// ids in place into tree order, and returns its node index; parentAxis
// is the split axis of the node above it, -1 at the root.
func (t *kdTree) build(points [][]float64, ids []int, lo, parentAxis int) int32 {
	n := int32(len(t.nodes))
	// The node's bounding box, whose widest side is also its split axis.
	at := len(t.box)
	t.box = append(t.box, points[ids[0]]...)
	t.box = append(t.box, points[ids[0]]...)
	bmin, bmax := t.box[at:][:t.dim], t.box[at+t.dim:][:t.dim]
	for _, id := range ids[1:] {
		for j, v := range points[id] {
			bmin[j] = min(bmin[j], v)
			bmax[j] = max(bmax[j], v)
		}
	}
	if len(ids) <= kdBucket {
		if parentAxis >= 0 {
			// A leaf is scanned in its parent's split order. Answers do
			// not depend on the order, but it sets how many candidates
			// enter the k-best list: on the deployed models, queries
			// measured 4-9 % slower in the order selection leaves.
			slices.SortFunc(ids, byCoord(points, parentAxis))
		}
		t.nodes = append(t.nodes, kdNode{axis: -1, a: int32(lo), b: int32(lo + len(ids))})
		return n
	}
	// Split on the axis of widest spread, the lowest on a tie: box
	// coordinates are strongly correlated, so cycling through the axes
	// would cut along a narrow side as often as along a wide one.
	axis := 0
	for j := 1; j < t.dim; j++ {
		if bmax[j]-bmin[j] > bmax[axis]-bmin[axis] {
			axis = j
		}
	}
	// Median split in (coordinate, index) order. Selecting the median
	// rather than sorting gives each side the same set and the same split
	// value as a sort would, at O(n) a level instead of O(n log n).
	mid := len(ids) / 2
	selectNth(ids, mid, byCoord(points, axis))
	t.nodes = append(t.nodes, kdNode{split: points[ids[mid]][axis], axis: int32(axis)})
	left := t.build(points, ids[:mid], lo, axis)
	right := t.build(points, ids[mid:], lo+mid, axis)
	t.nodes[n].a, t.nodes[n].b = left, right
	return n
}

// boxDist returns the squared distance from x to node n's box (boxDist2).
func (t *kdTree) boxDist(n int32, x []float64) float64 {
	at := 2 * int(n) * t.dim
	return boxDist2(x, t.box[at:][:t.dim], t.box[at+t.dim:][:t.dim])
}

// boundDim is the most axes boxDist2 sums; the association models use 4.
const boundDim = 8

// boxDist2 returns a lower bound on dist2(p, x) for every point p in the
// box [lo, hi]: dist2 itself on the point of the box nearest to x, over
// the first boundDim axes at most. On each axis p lies at least as far
// from x as that point does, rounding is monotone (fused or not, as long
// as both sums are dist2's), and the terms past boundDim that dist2(p, x)
// adds are not negative, so no point's dist2 is smaller. A NaN anywhere
// gives NaN, which bounds nothing: every comparison with it is false.
func boxDist2(x, lo, hi []float64) float64 {
	var c [boundDim]float64
	n := min(len(x), boundDim)
	for j := range n {
		c[j] = min(max(x[j], lo[j]), hi[j])
	}
	return dist2(c[:n], x[:n])
}

// byCoord orders point ids by their coordinate on axis, then by id: the
// total order the build splits in.
func byCoord(points [][]float64, axis int) func(a, b int) int {
	return func(a, b int) int {
		if c := cmp.Compare(points[a][axis], points[b][axis]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// selectNth reorders ids so that ids[nth] is the element a sort by the
// total order compare would put there, with the elements before it
// smaller and those after it larger: Lomuto partitions around a
// median-of-three pivot, deterministic for a given input.
func selectNth(ids []int, nth int, compare func(a, b int) int) {
	lo, hi := 0, len(ids)
	for hi-lo > 1 {
		// Order ids[lo], ids[m], ids[hi-1] so that the median of the
		// three sits at hi-1 as the pivot.
		m := lo + (hi-lo)/2
		if compare(ids[m], ids[lo]) < 0 {
			ids[m], ids[lo] = ids[lo], ids[m]
		}
		if compare(ids[hi-1], ids[lo]) < 0 {
			ids[hi-1], ids[lo] = ids[lo], ids[hi-1]
		}
		if compare(ids[m], ids[hi-1]) < 0 {
			ids[m], ids[hi-1] = ids[hi-1], ids[m]
		}
		pivot, i := ids[hi-1], lo
		for j := lo; j < hi-1; j++ {
			if compare(ids[j], pivot) < 0 {
				ids[i], ids[j] = ids[j], ids[i]
				i++
			}
		}
		ids[i], ids[hi-1] = ids[hi-1], ids[i]
		switch {
		case nth < i:
			hi = i
		case nth > i:
			lo = i + 1
		default:
			return
		}
	}
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

// kdSearch is one query of a kdTree: the k best candidates for q among
// the indexed points, or, with only, among those rank marks positive
// (rank >= 0; rank is by point index). A search given a quorum also
// stops as soon as a negative vote is certain: once quorum of the
// candidates in best are negative and lie strictly closer than bound, a
// lower bound on every positive point's distance.
type kdSearch struct {
	t    *kdTree
	q    []float64
	best kBest

	rank   []int32
	only   bool
	bound  float64
	quorum int // 0: search to the end

	leaves int // leaves scanned, the search's work
}

// search offers s.best the points under node n that can still be among
// the k nearest to s.q; called on the root it leaves best.buf holding
// them in increasing (dist, index) order — identical to the linear scan
// — unless it returns true: the quorum was met and the search stopped.
func (s *kdSearch) search(n int32) bool {
	t, q, best := s.t, s.q, &s.best
	node := &t.nodes[n]
	if node.axis < 0 {
		s.leaves++
		// Most leaf points lose to the current k-th best: those strictly
		// farther are rejected on their distance alone, the rest by
		// offer's (dist, index) order.
		worst := math.Inf(1)
		if best.full() {
			worst = best.worst().dist
		}
		for i := int(node.a); i < int(node.b); i++ {
			if s.only && s.rank[t.ids[i]] < 0 {
				continue
			}
			d := dist2(t.coords[i*t.dim:][:t.dim], q)
			if d > worst {
				continue
			}
			best.offer(neighbor{dist: d, index: t.ids[i]})
			if best.full() {
				worst = best.worst().dist
			}
		}
		return s.quorum > 0 && s.rejected()
	}
	diff := q[node.axis] - node.split
	near, far := node.a, node.b
	if diff > 0 {
		near, far = far, near
	}
	// The near side, the query's side of the split, is always searched:
	// testing its box cost more time than the leaves it saved.
	if s.search(near) {
		return true
	}
	// Visit the far side unless its box lies strictly farther than the
	// current worst: with equal distances breaking ties by index, a point
	// at exactly the worst distance can still displace a higher-index
	// one. The box's distance is at least the plane's, diff*diff (its
	// term on this axis is, and dist2 adds terms that are not negative),
	// so the plane settles most far sides first for the price of one
	// product. Pruning by the best so far holds for any subset of the
	// points, so it holds under only.
	if !best.full() || diff*diff <= best.worst().dist && !(t.boxDist(far, q) > best.worst().dist) {
		return s.search(far)
	}
	return false
}

// rejected reports whether quorum negatives in best lie strictly closer
// than bound. Every positive point lies at bound or farther, so each of
// those negatives outranks every positive one: whatever the rest of the
// search finds, at most k-quorum positives can join them in the final
// list.
func (s *kdSearch) rejected() bool {
	neg := 0
	for _, c := range s.best.buf { // ascending dist
		if !(c.dist < s.bound) {
			return false
		}
		if s.rank[c.index] < 0 {
			if neg++; neg == s.quorum {
				return true
			}
		}
	}
	return false
}
