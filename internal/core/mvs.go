// Package core implements the paper's primary contribution: the
// multi-view scheduling (MVS) problem and the batch-aware
// latency-balanced (BALB) algorithm that approximately solves it.
//
// The MVS problem: given cameras with heterogeneous latency profiles and
// objects with per-camera coverage sets and target sizes, find a feasible
// object-to-camera assignment minimizing the *maximum* per-frame
// processing latency across cameras (Definition 3). The problem is
// strongly NP-hard (Claim 1, by reduction from bin packing); BALB is the
// paper's polynomial-time two-stage heuristic.
//
// This package is pure scheduling: it knows nothing about pixels,
// detectors, or sockets. The pipeline package wires it to the rest of the
// system.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"mvs/internal/profile"
)

// CameraSpec describes one camera to the scheduler.
type CameraSpec struct {
	// Index is the camera's position in the deployment roster.
	Index int
	// Profile is the offline-measured latency profile.
	Profile *profile.Profile
}

// ObjectSpec describes one physical object in the form a caller writes
// by hand; NewInstance turns a list of them into the Instance the
// solvers read.
type ObjectSpec struct {
	// ID is a scheduler-unique object identifier.
	ID int
	// Coverage lists the cameras that can see the object (C_j).
	Coverage []int
	// Size maps camera index -> quantized target size s_ij. Every camera
	// in Coverage must have an entry.
	Size map[int]int
}

// ErrInvalidInstance is wrapped by every error that rejects an instance
// before solving it: no cameras, a camera without a valid profile, or an
// object with an empty coverage set, a camera out of range or listed
// twice, or a target size the camera's profile does not have.
var ErrInvalidInstance = errors.New("core: invalid instance")

// Instance is the MVS problem's objects in flat form (PAPER.md §1):
// object j has an ID and is covered by the cameras Cameras(j), seen there
// at the quantized target sizes Sizes(j), index-aligned. All objects'
// entries share one coverage and one size array, cut by per-object
// offsets. The zero value is an empty instance, and Reset empties one
// while keeping its storage, so a host that refills the same Instance
// every round allocates only while it grows.
type Instance struct {
	ids []int
	// off[j], off[j+1] bound object j's entries in cover and size (off
	// has len(ids)+1 entries once an object was added).
	off   []int32
	cover []int32
	size  []int32
}

// NewInstance builds the instance of objects, in order: objects[i] is
// object i. Nothing is checked here; a solver rejects what is invalid,
// and a coverage camera without a Size entry has size 0.
func NewInstance(objects []ObjectSpec) *Instance {
	entries := 0
	for i := range objects {
		entries += len(objects[i].Coverage)
	}
	in := &Instance{
		ids:   make([]int, 0, len(objects)),
		off:   make([]int32, 0, len(objects)+1),
		cover: make([]int32, 0, entries),
		size:  make([]int32, 0, entries),
	}
	for i := range objects {
		o := &objects[i]
		in.Add(o.ID)
		for _, c := range o.Coverage {
			in.Cover(c, o.Size[c])
		}
	}
	return in
}

// Reset empties the instance, keeping its storage.
func (in *Instance) Reset() {
	in.ids, in.off, in.cover, in.size = in.ids[:0], in.off[:0], in.cover[:0], in.size[:0]
}

// Add appends an object with the given ID and an empty coverage set.
func (in *Instance) Add(id int) {
	if len(in.off) == 0 {
		in.off = append(in.off, 0)
	}
	in.ids = append(in.ids, id)
	in.off = append(in.off, int32(len(in.cover)))
}

// Cover adds camera cam, which sees the last added object at the given
// target size, to that object's coverage set. Nothing is checked here: a
// solver rejects a camera out of range or listed twice and a size the
// camera's profile does not have. Values outside int32 saturate, which
// keeps them invalid.
func (in *Instance) Cover(cam, size int) {
	in.cover = append(in.cover, clamp32(cam))
	in.size = append(in.size, clamp32(size))
	in.off[len(in.off)-1] = int32(len(in.cover))
}

func clamp32(v int) int32 {
	return int32(max(min(v, math.MaxInt32), math.MinInt32))
}

// Len returns the number of objects.
func (in *Instance) Len() int { return len(in.ids) }

// ID returns object j's ID.
func (in *Instance) ID(j int) int { return in.ids[j] }

// Cameras returns object j's coverage set C_j, in the order it was
// covered. The slice aliases the instance.
func (in *Instance) Cameras(j int) []int32 { return in.cover[in.off[j]:in.off[j+1]] }

// Sizes returns object j's target sizes, index-aligned with Cameras(j).
// The slice aliases the instance.
func (in *Instance) Sizes(j int) []int32 { return in.size[in.off[j]:in.off[j+1]] }

// entry returns the position in the instance's arrays at which camera
// cam covers object j, or -1 if it does not.
func (in *Instance) entry(j, cam int) int {
	for e := in.off[j]; e < in.off[j+1]; e++ {
		if int(in.cover[e]) == cam {
			return int(e)
		}
	}
	return -1
}

// check validates object j against a roster of numCams cameras: a
// non-empty coverage set of distinct in-range cameras, each with a
// positive target size.
func (in *Instance) check(j, numCams int) error {
	id, cover, size := in.ids[j], in.Cameras(j), in.Sizes(j)
	if len(cover) == 0 {
		return fmt.Errorf("%w: object %d has empty coverage set", ErrInvalidInstance, id)
	}
	for k, c := range cover {
		if c < 0 || int(c) >= numCams {
			return fmt.Errorf("%w: object %d covers camera %d out of range [0,%d)", ErrInvalidInstance, id, c, numCams)
		}
		if slices.Contains(cover[:k], c) {
			return fmt.Errorf("%w: object %d lists camera %d twice", ErrInvalidInstance, id, c)
		}
		if size[k] <= 0 {
			return fmt.Errorf("%w: object %d has no target size on camera %d", ErrInvalidInstance, id, c)
		}
	}
	return nil
}

// CheckFeasible verifies the two feasibility conditions of Definition 2:
// every object is tracked by a camera that can see it, and no object is
// assigned to a camera outside its coverage set. assign[j] is object j's
// camera; a missing or negative entry leaves the object unassigned.
func CheckFeasible(in *Instance, assign []int) error {
	for j, id := range in.ids {
		if j >= len(assign) || assign[j] < 0 {
			return fmt.Errorf("core: object %d unassigned", id)
		}
		if in.entry(j, assign[j]) < 0 {
			return fmt.Errorf("core: object %d assigned to camera %d outside coverage %v", id, assign[j], in.Cameras(j))
		}
	}
	return nil
}

// SystemLatency returns the maximum over per-camera latencies — the MVS
// objective L = max_i L_i.
func SystemLatency(lat []time.Duration) time.Duration {
	var max time.Duration
	for _, l := range lat {
		if l > max {
			max = l
		}
	}
	return max
}

// Solution is a scheduling outcome: the assignment, the per-camera
// scheduled latencies it implies, and the latency-derived camera priority
// order the distributed stage uses.
//
// A Solution a Solver returns lives in that Solver's buffers: it is valid
// until the Solver's next solve, and a caller that keeps it longer copies
// what it keeps.
type Solution struct {
	// Assign[j] is the camera tracking instance object j.
	Assign []int
	// Latencies are the scheduled per-camera latencies (with full-frame
	// time included, matching Algorithm 1's accounting).
	Latencies []time.Duration
	// Priority lists camera indices from highest to lowest distributed-
	// stage priority (i.e. ascending assigned latency; ties by index).
	Priority []int
	// extra[j] lists object j's redundant trackers (CentralRedundant);
	// empty without redundancy.
	extra [][]int
}

// System returns the solution's system latency.
func (s *Solution) System() time.Duration { return SystemLatency(s.Latencies) }

// Extra returns the redundant trackers CentralRedundant added for object
// j, in the order it added them; none for any other solver.
func (s *Solution) Extra(j int) []int {
	if j >= len(s.extra) {
		return nil
	}
	return s.extra[j]
}

// Solver is the reusable workspace of the solvers: per camera and size
// class the profile's batch limit and batch latency, each coverage
// entry's size class, the batch table, the object order and the Solution
// they fill. The zero value is ready to use; once it has solved its
// largest instance, solving again allocates nothing. A Solver is not safe
// for concurrent use, and what it returns is valid until its next solve
// (see Solution).
type Solver struct {
	// k is the row width of the per-camera tables: the most size classes
	// any roster profile has. Slot c*k+s is camera c's size class s,
	// Profile.Sizes[s].
	k     int
	limit []int           // per slot: B_i^s
	cost  []time.Duration // per slot: t_i^s
	// batch is per slot a region count: the fill of the camera's last
	// batch of that size while Central sweeps, the regions assigned to it
	// while an assignment is priced.
	batch []int
	// class[e] is the size class of instance entry e on its camera.
	class []int32
	order []uint64 // sortObjects' keys
	extra []int    // backing array of sol.extra
	sol   Solution
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is too small, and then to at least twice the old capacity, so
// a Solver fed slowly growing instances reallocates a logarithmic number
// of times. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// prepare validates the roster and the instance and fills the per-slot
// tables and the entries' size classes.
func (w *Solver) prepare(cams []CameraSpec, in *Instance) error {
	if len(cams) == 0 {
		return fmt.Errorf("%w: no cameras", ErrInvalidInstance)
	}
	w.k = 0
	for i, c := range cams {
		if c.Profile == nil {
			return fmt.Errorf("%w: camera %d has nil profile", ErrInvalidInstance, i)
		}
		if err := c.Profile.Validate(); err != nil {
			return fmt.Errorf("%w: camera %d: %w", ErrInvalidInstance, i, err)
		}
		w.k = max(w.k, len(c.Profile.Sizes))
	}
	w.limit = grow(w.limit, len(cams)*w.k)
	w.cost = grow(w.cost, len(cams)*w.k)
	for i, c := range cams {
		for s, size := range c.Profile.Sizes {
			w.limit[i*w.k+s] = c.Profile.BatchLimit[size]
			w.cost[i*w.k+s] = c.Profile.BatchLatency[size]
		}
	}
	w.class = grow(w.class, len(in.cover))
	for j, id := range in.ids {
		if err := in.check(j, len(cams)); err != nil {
			return err
		}
		for e := in.off[j]; e < in.off[j+1]; e++ {
			c, size := in.cover[e], in.size[e]
			s := slices.Index(cams[c].Profile.Sizes, int(size))
			if s < 0 {
				return fmt.Errorf("%w: object %d has size %d on camera %d, which its profile lacks", ErrInvalidInstance, id, size, c)
			}
			w.class[e] = int32(s)
		}
	}
	return nil
}

// slot returns the per-slot table index of instance entry e.
func (w *Solver) slot(in *Instance, e int32) int {
	return int(in.cover[e])*w.k + int(w.class[e])
}

// clearBatch zeroes the batch table for a roster of cams cameras.
func (w *Solver) clearBatch(cams int) []int {
	w.batch = grow(w.batch, cams*w.k)
	clear(w.batch)
	return w.batch
}

// fullFrame resets the solution's latencies to L_i := t_i^full.
func (w *Solver) fullFrame(cams []CameraSpec) []time.Duration {
	w.sol.Latencies = grow(w.sol.Latencies, len(cams))
	for i, c := range cams {
		w.sol.Latencies[i] = c.Profile.FullFrame
	}
	return w.sol.Latencies
}

// objKey is one object's place in a solver's processing order.
type objKey struct {
	cover, size int32 // |C_j|, and the largest target size
	id          int
	idx         int32 // position in the instance
}

// byFlexibility orders by ascending coverage size (least scheduling
// flexibility first), then descending size, then ID and position.
func byFlexibility(a, b objKey) int {
	if c := cmp.Compare(a.cover, b.cover); c != 0 {
		return c
	}
	if c := cmp.Compare(b.size, a.size); c != 0 {
		return c
	}
	if c := cmp.Compare(a.id, b.id); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// objKeyOf returns object j's objKey, with the coverage and size keys
// left out unless asked for.
func objKeyOf(in *Instance, j int, byCoverage, bySize bool) objKey {
	k := objKey{id: in.ids[j], idx: int32(j)}
	if byCoverage {
		k.cover = in.off[j+1] - in.off[j]
	}
	if bySize {
		k.size = slices.Max(in.Sizes(j))
	}
	return k
}

// sortObjects returns the instance's objects in byFlexibility order, as
// keys whose low 32 bits are the object's position. Where no ID is
// smaller than the one before it (central.build numbers objects in
// order) and the coverage size and the largest size fit 16 bits, the key
// packs the whole order — coverage size, 0xFFFF minus the size, position
// — and sorts as an integer; otherwise the positions are sorted by
// byFlexibility.
func (w *Solver) sortObjects(in *Instance, byCoverage, bySize bool) []uint64 {
	w.order = slices.Grow(w.order[:0], in.Len())
	packed := true
	for j := range in.ids {
		k := objKeyOf(in, j, byCoverage, bySize)
		if k.cover > 0xFFFF || k.size < 0 || k.size > 0xFFFF || j > 0 && k.id < in.ids[j-1] {
			packed = false
		}
		w.order = append(w.order, uint64(k.cover)<<48|uint64(0xFFFF-k.size)<<32|uint64(uint32(j)))
	}
	if packed {
		slices.Sort(w.order)
		return w.order
	}
	slices.SortFunc(w.order, func(a, b uint64) int {
		return byFlexibility(objKeyOf(in, int(uint32(a)), byCoverage, bySize), objKeyOf(in, int(uint32(b)), byCoverage, bySize))
	})
	return w.order
}

// count fills the batch table with the regions assign gives each camera,
// per size class.
func (w *Solver) count(cams int, in *Instance, assign []int) error {
	batch := w.clearBatch(cams)
	for j, id := range in.ids {
		if j >= len(assign) || assign[j] < 0 {
			return fmt.Errorf("core: object %d unassigned", id)
		}
		e := in.entry(j, assign[j])
		if e < 0 {
			return fmt.Errorf("core: object %d assigned to camera %d outside its coverage", id, assign[j])
		}
		batch[w.slot(in, int32(e))]++
	}
	return nil
}

// scheduledLatency is camera c's cost of the regions the batch table
// holds for it: per size class, ceil(n/B_i^s) batches of t_i^s (greedy
// same-size packing).
func (w *Solver) scheduledLatency(c int) time.Duration {
	var total time.Duration
	for s := c * w.k; s < (c+1)*w.k; s++ {
		if n := w.batch[s]; n > 0 {
			total += w.cost[s] * time.Duration((n+w.limit[s]-1)/w.limit[s])
		}
	}
	return total
}

// cameraLatencies computes, for each camera of a prepared instance, the
// scheduled per-frame latency of an assignment: the optimal batch
// sequence's cost, plus the full-frame inspection time when includeFull
// is set (key-frame accounting, as in Algorithm 1's initialization). The
// result is the solver's Solution.Latencies.
func (w *Solver) cameraLatencies(cams []CameraSpec, in *Instance, assign []int, includeFull bool) ([]time.Duration, error) {
	if err := w.count(len(cams), in, assign); err != nil {
		return nil, err
	}
	return w.batchLatencies(cams, includeFull), nil
}

// batchLatencies prices the batch table's counts per camera into the
// solution's latencies.
func (w *Solver) batchLatencies(cams []CameraSpec, includeFull bool) []time.Duration {
	lat := w.sol.Latencies[:0]
	for i, c := range cams {
		l := w.scheduledLatency(i)
		if includeFull {
			l += c.Profile.FullFrame
		}
		lat = append(lat, l)
	}
	w.sol.Latencies = lat
	return lat
}

// priorityFromLatencies orders cameras by ascending latency (ties by
// index) into dst: lightest-loaded camera first, as the distributed stage
// requires.
func priorityFromLatencies(dst []int, lat []time.Duration) []int {
	dst = grow(dst, len(lat))
	for i := range dst {
		dst[i] = i
	}
	slices.SortStableFunc(dst, func(a, b int) int { return cmp.Compare(lat[a], lat[b]) })
	return dst
}

// priced returns assign with the latencies and priority it implies on a
// prepared instance.
func (w *Solver) priced(cams []CameraSpec, in *Instance, assign []int) (*Solution, error) {
	lat, err := w.cameraLatencies(cams, in, assign, true)
	if err != nil {
		return nil, err
	}
	return &Solution{Assign: assign, Latencies: lat, Priority: priorityFromLatencies(nil, lat)}, nil
}

// BruteForce solves MVS exactly by enumerating all feasible single-camera
// assignments. It is exponential (prod |C_j|) and intended only for small
// instances in tests and optimality-gap experiments. It returns an error
// if the instance exceeds maxStates (default 5e6 when 0). The Solution is
// the caller's.
func BruteForce(cams []CameraSpec, in *Instance, maxStates int) (*Solution, error) {
	var w Solver
	if err := w.prepare(cams, in); err != nil {
		return nil, err
	}
	if maxStates <= 0 {
		maxStates = 5_000_000
	}
	states := 1
	for j := range in.ids {
		states *= len(in.Cameras(j))
		if states > maxStates {
			return nil, fmt.Errorf("core: brute force would enumerate > %d states", maxStates)
		}
	}

	cur, best := make([]int, in.Len()), make([]int, in.Len())
	var bestLat time.Duration
	found := false
	var recurse func(j int) error
	recurse = func(j int) error {
		if j == len(cur) {
			lat, err := w.cameraLatencies(cams, in, cur, true)
			if err != nil {
				return err
			}
			if sys := SystemLatency(lat); !found || sys < bestLat {
				copy(best, cur)
				bestLat, found = sys, true
			}
			return nil
		}
		for _, c := range in.Cameras(j) {
			cur[j] = int(c)
			if err := recurse(j + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, err
	}
	return w.priced(cams, in, best)
}
