// Package assoc implements the paper's cross-camera object association
// module. For every ordered camera pair it trains one lightweight
// location-based KNN model on a labelled half of the trace, a single
// index over the pair's samples (ml.KNNMap) that answers both of the
// paper's questions about a bounding box seen on the source camera:
//
//  1. is it visible on the destination camera at all (the classifier's
//     vote over its K nearest samples), and
//  2. where on the destination camera does it appear (the regressor's
//     inverse-distance mean over the K nearest visible samples).
//
// One search answers the vote, and usually the regression too; a vote
// that is certainly negative stops as soon as it is certain.
//
// At key frames, each detection is mapped to every other camera and
// matched against that camera's detections by IoU through the Hungarian
// algorithm; matches are merged with a union-find into global object
// identities. The paper's Figs. 10 and 11 compare KNN with
// SVM/logistic/tree classifiers and homography/linear/RANSAC regressors
// (package experiments fits those ml models on BuildPairSamples); KNN is
// the deployed model.
//
// # Execution model and determinism
//
// Both per-pair hot loops fan out on the internal/pool worker pool:
// Train over the N*(N-1) directed pairs (bounded by Factories.Workers)
// and association (Workspace.Associate) over the N*(N-1)/2 unordered
// pairs. Every pair's computation is independent — it reads only the
// shared inputs and writes only its own slot of a per-pair result array
// — and the merge back into shared state happens sequentially after the
// fan-out, in ascending pair order. The contract callers rely on:
//
//   - Train produces a bit-identical Model at every worker count: pair
//     (src, dst) is always trained on exactly BuildPairSamples(trace,
//     src, dst), and the pair map is assembled after the fan-out;
//   - association produces bit-identical groups at every worker count,
//     on a fresh or a reused Workspace: per-pair match lists are
//     computed in isolation, each in its pair's slot, and the
//     union-find merges are applied in ascending (i, j) pair order
//     (docs/CONCURRENCY.md §5 documents why the grouping is already
//     order-invariant; the fixed order makes it checkable);
//   - errors are reported for the lowest-numbered failing pair,
//     regardless of goroutine interleaving (the pool.Do error rule);
//   - workers == 1 is the sequential reference path, byte-for-byte the
//     loop it replaced; workers <= 0 selects GOMAXPROCS.
//
// # Goroutine safety
//
// A Model is immutable after Train returns: MapBox, Associate,
// AssociateWorkers, NominalBox, CellCoverage, and CellCoverageWorkers
// only read the trained pair indexes (an ml.KNNMap is query-only), so
// any number of goroutines may call them concurrently on one shared
// Model — including concurrent AssociateWorkers calls that each fan out
// internally. Train itself must not race with readers of the Model it
// is building.
//
// The scratch of association — feature vectors, match lists, a
// Hungarian solver and prediction buffer per fan-out worker, the
// union-find, the groups — lives in a Workspace, not on the shared
// Model: one Workspace per concurrent caller, reused across its calls,
// so that a host solving a round every key frame (central.Round keeps
// one) allocates nothing for it. Associate and AssociateWorkers run on a
// fresh Workspace, whose groups the caller then owns.
package assoc

import (
	"errors"
	"fmt"
	"slices"

	"mvs/internal/geom"
	"mvs/internal/hungarian"
	"mvs/internal/ml"
	"mvs/internal/pool"
	"mvs/internal/scene"
)

// GridCols and GridRows shape every camera's cell grid: the per-cell
// coverage sets the distributed stage's ownership masks are built from
// (CellCoverage), and the overlap graph a fleet is sharded on
// (OverlapAdjacency). The cameras and the scheduler share this one
// precomputed grid, which is what lets the distributed stage decide
// ownership without communication.
const GridCols, GridRows = 16, 9

// MinIoU is the paper's preset association threshold on area overlap:
// a mapped box matches a box on the destination camera only at IoU >=
// MinIoU.
const MinIoU = 0.1

// Sample is one training or evaluation case for a camera pair: a box on
// the source camera, whether the same object is visible on the
// destination camera, and (when visible) its box there.
type Sample struct {
	// SrcBox is the object's box on the source camera.
	SrcBox geom.Rect
	// Visible reports whether the object appears on the destination
	// camera in the same frame.
	Visible bool
	// DstBox is the object's box on the destination camera; meaningful
	// only when Visible.
	DstBox geom.Rect
}

// BuildPairSamples extracts all (srcCam -> dstCam) samples from a trace.
func BuildPairSamples(trace *scene.Trace, srcCam, dstCam int) ([]Sample, error) {
	if srcCam == dstCam {
		return nil, fmt.Errorf("assoc: src and dst are both camera %d", srcCam)
	}
	if srcCam < 0 || dstCam < 0 || srcCam >= len(trace.Cameras) || dstCam >= len(trace.Cameras) {
		return nil, fmt.Errorf("assoc: camera pair (%d,%d) out of range [0,%d)", srcCam, dstCam, len(trace.Cameras))
	}
	// One sample per source observation: size the output once, and reuse
	// one map of the frame's destination boxes.
	n := 0
	for fi := range trace.Frames {
		n += len(trace.Frames[fi].PerCamera[srcCam])
	}
	out := make([]Sample, 0, n)
	dstByID := make(map[int]geom.Rect)
	for fi := range trace.Frames {
		f := &trace.Frames[fi]
		if len(f.PerCamera[srcCam]) == 0 {
			continue
		}
		clear(dstByID)
		for _, o := range f.PerCamera[dstCam] {
			dstByID[o.ObjectID] = o.Box
		}
		for _, o := range f.PerCamera[srcCam] {
			s := Sample{SrcBox: o.Box}
			if dst, ok := dstByID[o.ObjectID]; ok {
				s.Visible = true
				s.DstBox = dst
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// ClassificationData converts samples to the (features, labels) form the
// ml package consumes.
func ClassificationData(samples []Sample) (x [][]float64, y []bool) {
	x = make([][]float64, len(samples))
	y = make([]bool, len(samples))
	flat := make([]float64, 4*len(samples)) // one array for every row
	for i, s := range samples {
		x[i] = flat[4*i : 4*i+4 : 4*i+4]
		x[i][0], x[i][1], x[i][2], x[i][3] = s.SrcBox.MinX, s.SrcBox.MinY, s.SrcBox.MaxX, s.SrcBox.MaxY
		y[i] = s.Visible
	}
	return x, y
}

// RegressionData converts the visible subset of samples to (features,
// targets) form.
func RegressionData(samples []Sample) (x [][]float64, y [][]float64) {
	for _, s := range samples {
		if !s.Visible {
			continue
		}
		x = append(x, s.SrcBox.Vec4())
		y = append(y, s.DstBox.Vec4())
	}
	return x, y
}

// PairModel is the trained model of one ordered camera pair: one KNN
// index over all of the pair's samples that answers both the classifier
// (visible on the destination camera?) and the regressor (where?)
// (ml.KNNMap).
type PairModel struct {
	knn *ml.KNNMap
	// covisible reports that some training sample is visible on both
	// cameras: a pair without one can only answer "not visible".
	covisible bool
	// meanSrc is the mean training source-box size, used to synthesize
	// nominal boxes for cell-coverage queries.
	meanSrcW, meanSrcH float64
}

// TrainPair fits a pair model from samples, with K = 5.
func TrainPair(samples []Sample) (*PairModel, error) {
	if len(samples) == 0 {
		return nil, errors.New("assoc: no samples for pair")
	}
	x, visible := ClassificationData(samples)
	var targets [][]float64
	pm := &PairModel{}
	var wSum, hSum float64
	for _, s := range samples {
		if s.Visible {
			targets = append(targets, s.DstBox.Vec4())
		}
		wSum += s.SrcBox.W()
		hSum += s.SrcBox.H()
	}
	pm.covisible = len(targets) > 0
	pm.meanSrcW = wSum / float64(len(samples))
	pm.meanSrcH = hSum / float64(len(samples))
	var err error
	if pm.knn, err = ml.NewKNNMap(x, visible, targets, 5); err != nil {
		return nil, fmt.Errorf("assoc: training pair index: %w", err)
	}
	return pm, nil
}

// Map predicts whether a source box is visible on the destination camera
// and, if so, where. A pair with no co-visible training sample can only
// answer "not visible", whatever its vote says, so it answers without a
// query.
func (pm *PairModel) Map(box geom.Rect) (geom.Rect, bool, error) {
	if !pm.covisible {
		return geom.Rect{}, false, nil
	}
	var pred []float64
	return pm.mapVec(box.Vec4(), &pred)
}

// mapVec is Map for a co-visible pair, on the box's feature vector
// (geom.Rect.Vec4), which the index does not retain. The box is
// predicted into *pred, which keeps the grown buffer.
func (pm *PairModel) mapVec(vec []float64, pred *[]float64) (geom.Rect, bool, error) {
	var visible bool
	var err error
	*pred, visible, err = pm.knn.Map((*pred)[:0], vec)
	if err != nil {
		return geom.Rect{}, false, fmt.Errorf("assoc: map: %w", err)
	}
	if !visible {
		return geom.Rect{}, false, nil
	}
	return geom.RectFromVec4(*pred), true, nil
}

// Model is the full cross-camera association model: one PairModel per
// ordered camera pair. It is immutable after Train returns and safe for
// concurrent use — see the package comment's goroutine-safety contract.
type Model struct {
	numCams int
	pairs   map[[2]int]*PairModel
	// matchable lists the unordered pairs (i < j) whose (i, j) model is
	// co-visible, ascending i then j: the only pairs association can match,
	// in its merge order.
	matchable []matchPair
	// observe, when set, is called with the boxes of every association
	// before they are mapped; the tests set it to record the queries a
	// whole engine run makes.
	observe func(boxes [][]geom.Rect)
}

// matchPair is one entry of Model.matchable.
type matchPair struct {
	i, j int
	pm   *PairModel
}

// newModel wraps trained pair models and lists their matchable pairs.
func newModel(numCams int, pairs map[[2]int]*PairModel) *Model {
	m := &Model{numCams: numCams, pairs: pairs}
	for i := 0; i < numCams; i++ {
		for j := i + 1; j < numCams; j++ {
			if pm := pairs[[2]int{i, j}]; pm != nil && pm.covisible {
				m.matchable = append(m.matchable, matchPair{i, j, pm})
			}
		}
	}
	return m
}

// Factories configures training: it bounds Train's per-pair fan-out.
type Factories struct {
	// Workers bounds the goroutines training camera pairs: 1 forces the
	// sequential reference path, <= 0 (the default) selects GOMAXPROCS,
	// and any value is capped at the pair count. The trained Model is
	// bit-identical for every value.
	Workers int
}

// directedPairs enumerates the (src, dst) camera pairs with src != dst,
// in the fixed src-major order the sequential loops used. Both the Train
// fan-out and its merge walk this slice, so the pair at index k is the
// same pair on every worker count.
func directedPairs(numCams int) [][2]int {
	out := make([][2]int, 0, numCams*(numCams-1))
	for src := 0; src < numCams; src++ {
		for dst := 0; dst < numCams; dst++ {
			if src != dst {
				out = append(out, [2]int{src, dst})
			}
		}
	}
	return out
}

// Train fits pair models for every ordered camera pair from the training
// trace. Pairs whose source camera never observes anything are left out;
// Map treats them as "not visible". The N*(N-1) pairs are independent,
// so they train on up to f.Workers goroutines (see Factories.Workers);
// each pair's model lands in its own slot and the pair map is assembled
// sequentially afterwards, so the result is bit-identical at every
// worker count.
func Train(trace *scene.Trace, f Factories) (*Model, error) {
	return train(trace, f.Workers, TrainPair)
}

// train is Train with each pair fitted by fit.
func train(trace *scene.Trace, workers int, fit func([]Sample) (*PairModel, error)) (*Model, error) {
	if len(trace.Cameras) < 2 {
		return nil, fmt.Errorf("assoc: need >= 2 cameras, got %d", len(trace.Cameras))
	}
	numCams := len(trace.Cameras)
	pairs := directedPairs(numCams)
	slots := make([]*PairModel, len(pairs))
	err := pool.Do(workers, len(pairs), func(k int) error {
		src, dst := pairs[k][0], pairs[k][1]
		samples, err := BuildPairSamples(trace, src, dst)
		if err != nil {
			return err
		}
		if len(samples) == 0 {
			return nil // untrained pair: Map answers "not visible"
		}
		pm, err := fit(samples)
		if err != nil {
			return fmt.Errorf("assoc: pair (%d,%d): %w", src, dst, err)
		}
		slots[k] = pm
		return nil
	})
	if err != nil {
		return nil, err
	}
	trained := make(map[[2]int]*PairModel)
	for k, pm := range slots {
		if pm != nil {
			trained[pairs[k]] = pm
		}
	}
	return newModel(numCams, trained), nil
}

// NumCameras returns the camera count the model was trained for.
func (m *Model) NumCameras() int { return m.numCams }

// MapBox predicts visibility and location of a source-camera box on a
// destination camera. Untrained pairs answer "not visible".
func (m *Model) MapBox(src, dst int, box geom.Rect) (geom.Rect, bool, error) {
	if src == dst {
		return box, true, nil
	}
	pm, ok := m.pairs[[2]int{src, dst}]
	if !ok {
		return geom.Rect{}, false, nil
	}
	return pm.Map(box)
}

// Ref identifies one box in the per-camera input to Associate.
type Ref struct {
	// Cam is the camera index.
	Cam int
	// Index is the position in that camera's box list.
	Index int
}

// Group is one physical object as inferred by association: the set of
// per-camera boxes believed to be the same object.
type Group struct {
	// Members holds one Ref per camera observing the object.
	Members []Ref
}

// Associate clusters per-camera boxes into global objects on the
// calling goroutine — shorthand for AssociateWorkers with workers == 1,
// the sequential reference path.
func (m *Model) Associate(boxes [][]geom.Rect, minIoU float64) ([]Group, error) {
	return m.AssociateWorkers(boxes, minIoU, 1)
}

// AssociateWorkers is Workspace.Associate on a fresh workspace; the
// caller owns the returned groups.
func (m *Model) AssociateWorkers(boxes [][]geom.Rect, minIoU float64, workers int) ([]Group, error) {
	var w Workspace
	return w.Associate(m, boxes, minIoU, workers)
}

// Workspace is association's reusable scratch: the flat box index and
// every box's feature vector, the frame's matchable pairs and their match
// lists, one Hungarian solver and prediction buffer per fan-out worker,
// the union-find, and the groups with the member array they are cut
// from.
// A Model is immutable and shared by concurrent callers, so the scratch
// cannot live on it: each concurrent caller brings a Workspace of its
// own. The zero value is ready to use; a Workspace that has associated
// its largest round allocates nothing at width 1. It is not safe for
// concurrent use, and the groups Associate returns live in it: they are
// valid until its next Associate.
type Workspace struct {
	// The current call's inputs, which every pair's match reads.
	boxes  [][]geom.Rect
	minIoU float64

	// Flat indexing: box k of camera i is box offsets[i]+k, and its
	// feature vector is feat[4*(offsets[i]+k):][:4].
	offsets []int
	feat    []float64
	// pairs are the pairs that can match this frame, in the merge order
	// (ascending i, then j); matches[k] is pair k's output, and
	// scratch[w] the scratch of the fan-out's worker w.
	pairs   []matchPair
	matches [][]pairMatch
	scratch []pairScratch

	dsu            dsu
	groupOf, sizes []int
	groups         []Group
	refs           []Ref
}

// pairScratch is one fan-out worker's scratch: it matches one pair at a
// time.
type pairScratch struct {
	solver hungarian.Solver
	pred   []float64
}

// pairMatch records one Hungarian match of a camera pair in the flat
// union-find index space.
type pairMatch struct {
	a, b int
}

// pairWork is a Workspace as pool.Run's work: item k matches pair k. A
// struct of one pointer is passed in an interface without allocating.
type pairWork struct{ w *Workspace }

func (p pairWork) Item(worker, k int) error { return p.w.match(worker, k) }

// Associate clusters per-camera boxes into global objects. For each
// camera pair (i < j), every box on i that the pair model maps into j is
// matched against j's boxes by IoU (Hungarian, threshold minIoU);
// matched pairs are merged with union-find. minIoU <= 0 selects MinIoU.
//
// The unordered pairs are matched independently on up to workers
// goroutines (<= 0 selects GOMAXPROCS, 1 runs inline) — each pair
// writes only its own match list, each worker only its own scratch — and
// the union-find merges are then applied
// sequentially in ascending (i, then j) pair order, so the returned
// groups, their order, and their member order are bit-identical at every
// worker count, and whether the Workspace is fresh or reused. A pair
// with an empty side, with no co-visible training sample (it can only
// answer "not visible"), or whose boxes are all predicted invisible on the other
// camera, contributes no matches and never invokes the Hungarian solver,
// exactly as in the sequential path.
func (w *Workspace) Associate(m *Model, boxes [][]geom.Rect, minIoU float64, workers int) ([]Group, error) {
	if len(boxes) != m.numCams {
		return nil, fmt.Errorf("assoc: %d camera lists, model trained for %d", len(boxes), m.numCams)
	}
	if minIoU <= 0 {
		minIoU = MinIoU
	}
	if m.observe != nil {
		m.observe(boxes)
	}
	w.boxes, w.minIoU = boxes, minIoU

	w.offsets = append(w.offsets[:0], 0)
	w.feat = w.feat[:0]
	for i, cam := range boxes {
		w.offsets = append(w.offsets, w.offsets[i]+len(cam))
		for _, b := range cam {
			w.feat = append(w.feat, b.MinX, b.MinY, b.MaxX, b.MaxY)
		}
	}
	total := w.offsets[len(boxes)]

	w.pairs = w.pairs[:0]
	for _, p := range m.matchable {
		if len(boxes[p.i]) > 0 && len(boxes[p.j]) > 0 {
			w.pairs = append(w.pairs, p)
		}
	}
	if n := len(w.pairs) - len(w.matches); n > 0 {
		w.matches = append(w.matches, make([][]pairMatch, n)...)
	}
	workers = pool.Workers(workers, len(w.pairs))
	if n := workers - len(w.scratch); n > 0 {
		w.scratch = append(w.scratch, make([]pairScratch, n)...)
	}
	if err := pool.Run(workers, len(w.pairs), pairWork{w}); err != nil {
		return nil, err
	}

	// Deterministic merge: apply every pair's matches in ascending pair
	// order. (The grouping is a connected-components computation, so it
	// is invariant to this order anyway; fixing it makes the parallel
	// path checkably identical to the sequential one.)
	w.dsu.reset(total)
	for _, ms := range w.matches[:len(w.pairs)] {
		for _, pm := range ms {
			w.dsu.union(pm.a, pm.b)
		}
	}

	// Collect groups in deterministic order of their smallest member.
	// Sizes are counted first, so that every Members list is cut, at its
	// exact capacity, from one array.
	w.groupOf = slices.Grow(w.groupOf[:0], total)[:total] // union-find root -> group + 1
	clear(w.groupOf)
	w.sizes = w.sizes[:0]
	for k := 0; k < total; k++ {
		root := w.dsu.find(k)
		if w.groupOf[root] == 0 {
			w.sizes = append(w.sizes, 0)
			w.groupOf[root] = len(w.sizes)
		}
		w.sizes[w.groupOf[root]-1]++
	}
	w.groups = slices.Grow(w.groups[:0], len(w.sizes))[:len(w.sizes)]
	w.refs = slices.Grow(w.refs[:0], total)[:total]
	refs := w.refs
	for gi, n := range w.sizes {
		w.groups[gi].Members = refs[:0:n]
		refs = refs[n:]
	}
	for i := range boxes {
		for k := range boxes[i] {
			g := &w.groups[w.groupOf[w.dsu.find(w.offsets[i]+k)]-1]
			g.Members = append(g.Members, Ref{Cam: i, Index: k})
		}
	}
	return w.groups, nil
}

// match maps every box of pair k's camera i into camera j and matches
// the visible ones against j's boxes into the pair's match list, on the
// scratch of the worker running it. Rows that aren't predicted visible
// get zero profit everywhere.
func (w *Workspace) match(worker, k int) error {
	p, s := w.pairs[k], &w.scratch[worker]
	w.matches[k] = w.matches[k][:0]
	src, dst := w.boxes[p.i], w.boxes[p.j]
	profit := s.solver.Matrix(len(src), len(dst))
	anyVisible := false
	for bi := range src {
		at := 4 * (w.offsets[p.i] + bi)
		pred, visible, err := p.pm.mapVec(w.feat[at:at+4:at+4], &s.pred)
		if err != nil {
			return err
		}
		if !visible {
			continue
		}
		anyVisible = true
		for bj, other := range dst {
			profit[bi][bj] = pred.IoU(other)
		}
	}
	if !anyVisible {
		return nil // all-zero profit matrix: nothing to solve
	}
	assign, _, err := s.solver.MaximizeProfit(profit, w.minIoU)
	if err != nil {
		return fmt.Errorf("assoc: matching cameras (%d,%d): %w", p.i, p.j, err)
	}
	for bi, bj := range assign {
		if bj >= 0 {
			w.matches[k] = append(w.matches[k], pairMatch{a: w.offsets[p.i] + bi, b: w.offsets[p.j] + bj})
		}
	}
	return nil
}

// dsu is a minimal union-find with path halving.
type dsu struct {
	parent []int
}

// reset makes n singletons, reusing the parent array.
func (d *dsu) reset(n int) {
	d.parent = slices.Grow(d.parent[:0], n)[:n]
	for i := range d.parent {
		d.parent[i] = i
	}
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		d.parent[rb] = ra
	}
}

// Subset extracts the sub-model over the given cameras (ascending
// global indices): a Model over len(cams) cameras whose pair (i, j) is
// the original pair (cams[i], cams[j]). Trained pair models are shared,
// not copied — a Model is immutable, so the subset and the original are
// safe to use concurrently. The sharded schedulers use this to run one
// association per overlap group instead of one over the fleet
// (docs/SCALING.md §3).
func (m *Model) Subset(cams []int) (*Model, error) {
	if len(cams) == 0 {
		return nil, errors.New("assoc: empty camera subset")
	}
	seen := make(map[int]bool, len(cams))
	for k, c := range cams {
		if c < 0 || c >= m.numCams {
			return nil, fmt.Errorf("assoc: subset camera %d out of range [0,%d)", c, m.numCams)
		}
		if seen[c] {
			return nil, fmt.Errorf("assoc: subset lists camera %d twice", c)
		}
		seen[c] = true
		if k > 0 && cams[k-1] >= c {
			return nil, fmt.Errorf("assoc: subset cameras must ascend, got %v", cams)
		}
	}
	pairs := make(map[[2]int]*PairModel)
	for i, src := range cams {
		for j, dst := range cams {
			if i == j {
				continue
			}
			if pm, ok := m.pairs[[2]int{src, dst}]; ok {
				pairs[[2]int{i, j}] = pm
			}
		}
	}
	return newModel(len(cams), pairs), nil
}

// OverlapAdjacency extracts the model's pairwise overlap graph: for
// each source camera, the GridCols x GridRows cell grid is laid over its
// frame and every cell's coverage set is queried
// (CellCoverageWorkers on GOMAXPROCS workers); adj[src][dst] is true
// when any cell of src predicts dst visible. frames[i] is camera i's
// pixel frame. The matrix is directed as predicted; shard.FromAdjacency
// symmetrizes it into the overlap graph that Partition consumes. Cost: one
// CellCoverage sweep per camera (N · GridCols·GridRows · (N−1) MapBox
// queries), paid once at deployment time, like the mask precomputation
// it reuses.
func (m *Model) OverlapAdjacency(frames []geom.Rect) ([][]bool, error) {
	if len(frames) != m.numCams {
		return nil, fmt.Errorf("assoc: %d frames for model with %d cameras", len(frames), m.numCams)
	}
	adj := make([][]bool, m.numCams)
	for src := range adj {
		adj[src] = make([]bool, m.numCams)
		cover, err := m.CellCoverageWorkers(src, geom.NewGrid(frames[src], GridCols, GridRows), 0)
		if err != nil {
			return nil, fmt.Errorf("assoc: overlap for camera %d: %w", src, err)
		}
		for _, set := range cover {
			for _, dst := range set {
				if dst != src && dst >= 0 && dst < m.numCams {
					adj[src][dst] = true
				}
			}
		}
	}
	return adj, nil
}

// NominalBox synthesizes a box of the pair's mean training size centred
// at the given pixel point on the source camera. The distributed-stage
// mask computation uses it to ask "would an average object here be
// visible elsewhere?".
func (m *Model) NominalBox(src int, centre geom.Point) geom.Rect {
	// Use any trained pair with this source for the mean dims.
	for dst := 0; dst < m.numCams; dst++ {
		if pm, ok := m.pairs[[2]int{src, dst}]; ok {
			return geom.RectFromCenter(centre, pm.meanSrcW, pm.meanSrcH)
		}
	}
	return geom.RectFromCenter(centre, 48, 36)
}

// CellCoverage computes, for each cell of the source camera's grid, the
// set of cameras (indices, always including src) predicted to see an
// average object centred in that cell — the per-cell coverage sets behind
// the distributed stage's camera masks (Fig. 8). It runs on the calling
// goroutine; CellCoverageWorkers fans the cells out.
func (m *Model) CellCoverage(src int, grid geom.Grid) ([][]int, error) {
	return m.CellCoverageWorkers(src, grid, 1)
}

// CellCoverageWorkers is CellCoverage with the per-cell queries spread
// over up to workers goroutines (<= 0 selects GOMAXPROCS, 1 runs
// inline). Each cell's coverage set is written to its own slot, so the
// result is bit-identical at every worker count. A query asks its pair
// for the vote alone (MapBox's visibility, without the regression) and
// allocates nothing.
func (m *Model) CellCoverageWorkers(src int, grid geom.Grid, workers int) ([][]int, error) {
	// The co-visible pairs from src, by destination; the others answer
	// "not visible".
	from := make([]*PairModel, m.numCams)
	for dst := range from {
		if pm := m.pairs[[2]int{src, dst}]; dst != src && pm != nil && pm.covisible {
			from[dst] = pm
		}
	}
	out := make([][]int, grid.NumCells())
	err := pool.Do(workers, grid.NumCells(), func(c int) error {
		box := m.NominalBox(src, grid.CellCenter(c))
		vec := [4]float64{box.MinX, box.MinY, box.MaxX, box.MaxY}
		cover := []int{src}
		for dst, pm := range from {
			if pm == nil {
				continue
			}
			visible, err := pm.knn.Visible(vec[:])
			if err != nil {
				return fmt.Errorf("assoc: coverage cell %d: %w", c, err)
			}
			if visible {
				cover = append(cover, dst)
			}
		}
		out[c] = cover
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
