package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"mvs/internal/profile"
)

// The reference implementation of the central stage: the map-based
// Central, CentralRedundant and cameraLatencies the flat Instance/Solver
// form replaced, kept verbatim (identifiers prefixed with "oracle") so
// the port can be held to them instance by instance. Do not optimise
// this file; it is the specification.

// oracleAssignment maps object ID -> the camera index responsible for
// tracking it.
type oracleAssignment map[int]int

// oracleSolution is the reference solvers' outcome.
type oracleSolution struct {
	Assign    oracleAssignment
	Latencies []time.Duration
	Priority  []int
}

func (s *oracleSolution) System() time.Duration { return SystemLatency(s.Latencies) }

func oraclePriorityFromLatencies(lat []time.Duration) []int {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	return idx
}

// oracleValidateObject is the reference ObjectSpec.Validate.
func oracleValidateObject(o *ObjectSpec, numCams int) error {
	if len(o.Coverage) == 0 {
		return fmt.Errorf("core: object %d has empty coverage set", o.ID)
	}
	seen := make(map[int]bool, len(o.Coverage))
	for _, c := range o.Coverage {
		if c < 0 || c >= numCams {
			return fmt.Errorf("core: object %d covers camera %d out of range [0,%d)", o.ID, c, numCams)
		}
		if seen[c] {
			return fmt.Errorf("core: object %d lists camera %d twice", o.ID, c)
		}
		seen[c] = true
		if o.Size[c] <= 0 {
			return fmt.Errorf("core: object %d has no target size on camera %d", o.ID, c)
		}
	}
	return nil
}

func oracleValidateInstance(cams []CameraSpec, objects []ObjectSpec) error {
	if len(cams) == 0 {
		return fmt.Errorf("core: no cameras")
	}
	for i, c := range cams {
		if c.Profile == nil {
			return fmt.Errorf("core: camera %d has nil profile", i)
		}
		if err := c.Profile.Validate(); err != nil {
			return fmt.Errorf("core: camera %d: %w", i, err)
		}
	}
	for i := range objects {
		if err := oracleValidateObject(&objects[i], len(cams)); err != nil {
			return err
		}
	}
	return nil
}

func oracleCameraLatencies(cams []CameraSpec, objects []ObjectSpec, a oracleAssignment, includeFull bool) ([]time.Duration, error) {
	counts := make([]map[int]int, len(cams))
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	for i := range objects {
		o := &objects[i]
		cam, ok := a[o.ID]
		if !ok {
			return nil, fmt.Errorf("core: object %d unassigned", o.ID)
		}
		if cam < 0 || cam >= len(cams) {
			return nil, fmt.Errorf("core: object %d assigned to camera %d out of range", o.ID, cam)
		}
		size, ok := o.Size[cam]
		if !ok {
			return nil, fmt.Errorf("core: object %d has no size on camera %d", o.ID, cam)
		}
		counts[cam][size]++
	}
	out := make([]time.Duration, len(cams))
	for i, cam := range cams {
		lat, err := oracleScheduledLatency(counts[i], cam)
		if err != nil {
			return nil, err
		}
		out[i] = lat
		if includeFull {
			out[i] += cam.Profile.FullFrame
		}
	}
	return out, nil
}

// oracleBatchLatency is t_i^s for a size, or an error for a size the
// profile does not know.
func oracleBatchLatency(p *profile.Profile, size int) (time.Duration, error) {
	lat, ok := p.BatchLatency[size]
	if !ok {
		return 0, fmt.Errorf("profile: no latency for size %d on %s", size, p.Class)
	}
	return lat, nil
}

func oracleScheduledLatency(counts map[int]int, cam CameraSpec) (time.Duration, error) {
	var total time.Duration
	for size, n := range counts {
		if n <= 0 {
			continue
		}
		limit, err := cam.Profile.BatchLimitFor(size)
		if err != nil {
			return 0, fmt.Errorf("core: camera %d: %w", cam.Index, err)
		}
		t, err := oracleBatchLatency(cam.Profile, size)
		if err != nil {
			return 0, fmt.Errorf("core: camera %d: %w", cam.Index, err)
		}
		batches := (n + limit - 1) / limit
		total += t * time.Duration(batches)
	}
	return total, nil
}

type oracleBatchState struct {
	inLast map[int]int
}

func oracleCentral(cams []CameraSpec, objects []ObjectSpec, opts CentralOptions) (*oracleSolution, error) {
	if err := oracleValidateInstance(cams, objects); err != nil {
		return nil, err
	}

	// L_i := t_i^full (line 1).
	lat := make([]time.Duration, len(cams))
	for i, c := range cams {
		lat[i] = c.Profile.FullFrame
	}
	batches := make([]oracleBatchState, len(cams))
	for i := range batches {
		batches[i] = oracleBatchState{inLast: make(map[int]int)}
	}

	// Reindex objects by non-decreasing |C_j|, ties in favour of larger
	// target size (line 2); final tie-break on ID keeps runs
	// deterministic.
	order := make([]int, len(objects))
	for i := range order {
		order[i] = i
	}
	maxSize := func(o *ObjectSpec) int {
		m := 0
		for _, c := range o.Coverage {
			if s := o.Size[c]; s > m {
				m = s
			}
		}
		return m
	}
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := &objects[order[a]], &objects[order[b]]
		if len(oa.Coverage) != len(ob.Coverage) {
			return len(oa.Coverage) < len(ob.Coverage)
		}
		sa, sb := maxSize(oa), maxSize(ob)
		if sa != sb {
			return sa > sb
		}
		return oa.ID < ob.ID
	})

	assign := make(oracleAssignment, len(objects))
	for _, oi := range order {
		o := &objects[oi]

		// C'_j: cameras in the coverage set with an incomplete batch of
		// this object's target size (line 4).
		bestCam := -1
		if !opts.DisableBatching {
			bestRel := -1.0
			for _, c := range o.Coverage {
				size := o.Size[c]
				limit, err := cams[c].Profile.BatchLimitFor(size)
				if err != nil {
					return nil, fmt.Errorf("core: central: %w", err)
				}
				in := batches[c].inLast[size]
				if in == 0 || in >= limit {
					continue // no batch open, or batch complete
				}
				// Relative capacity of the incomplete batch (Definition
				// 4, normalized by the limit so heterogeneous batch
				// limits compare fairly). Ties break toward the less
				// loaded camera, then the lower index.
				rel := float64(limit-in) / float64(limit)
				if rel > bestRel || (rel == bestRel && bestCam >= 0 && lat[c] < lat[bestCam]) {
					bestRel = rel
					bestCam = c
				}
			}
		}

		if bestCam >= 0 {
			// Join the incomplete batch (lines 5-8): latency is already
			// charged for that batch.
			assign[o.ID] = bestCam
			batches[bestCam].inLast[o.Size[bestCam]]++
			continue
		}

		// Open a new batch on the camera minimizing L_i + t_i^{s_ij}
		// (lines 9-12).
		var bestLat time.Duration
		for _, c := range o.Coverage {
			size := o.Size[c]
			t, err := oracleBatchLatency(cams[c].Profile, size)
			if err != nil {
				return nil, fmt.Errorf("core: central: %w", err)
			}
			cand := lat[c] + t
			if bestCam == -1 || cand < bestLat || (cand == bestLat && c < bestCam) {
				bestCam = c
				bestLat = cand
			}
		}
		size := o.Size[bestCam]
		t, err := oracleBatchLatency(cams[bestCam].Profile, size)
		if err != nil {
			return nil, fmt.Errorf("core: central: %w", err)
		}
		assign[o.ID] = bestCam
		lat[bestCam] += t
		batches[bestCam].inLast[size] = 1
		if opts.DisableBatching {
			// Keep the batch marked complete so nothing ever joins it.
			batches[bestCam].inLast[size] = 0
		}
	}

	return &oracleSolution{
		Assign:    assign,
		Latencies: lat,
		Priority:  oraclePriorityFromLatencies(lat),
	}, nil
}

func oracleCentralRedundant(cams []CameraSpec, objects []ObjectSpec, redundancy int, slack float64) (*oracleSolution, map[int][]int, error) {
	base, err := oracleCentral(cams, objects, CentralOptions{})
	if err != nil {
		return nil, nil, err
	}
	if redundancy <= 1 || len(objects) == 0 {
		return base, map[int][]int{}, nil
	}
	if slack < 1 {
		slack = 1
	}
	budget := time.Duration(float64(base.System()) * slack)

	// Track batch occupancy implied by the base assignment, per camera
	// and size, so extra trackers keep exploiting incomplete batches.
	counts := make([]map[int]int, len(cams))
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	for i := range objects {
		o := &objects[i]
		cam := base.Assign[o.ID]
		counts[cam][o.Size[cam]]++
	}
	lat := append([]time.Duration(nil), base.Latencies...)

	// marginal returns the latency increase of adding one size-s region
	// to camera c.
	marginal := func(c, size int) (time.Duration, error) {
		limit, err := cams[c].Profile.BatchLimitFor(size)
		if err != nil {
			return 0, err
		}
		if counts[c][size]%limit != 0 {
			return 0, nil // joins an incomplete batch
		}
		return oracleBatchLatency(cams[c].Profile, size)
	}

	extra := make(map[int][]int, len(objects))
	// Objects with the fewest existing trackers and largest coverage
	// benefit most; iterate in ID order for determinism.
	order := make([]int, len(objects))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return objects[order[a]].ID < objects[order[b]].ID })
	for _, oi := range order {
		o := &objects[oi]
		assigned := base.Assign[o.ID]
		for added := 0; added < redundancy-1; added++ {
			bestCam := -1
			var bestCost time.Duration
			for _, c := range o.Coverage {
				if c == assigned || oracleContains(extra[o.ID], c) {
					continue
				}
				cost, err := marginal(c, o.Size[c])
				if err != nil {
					return nil, nil, fmt.Errorf("core: redundant: %w", err)
				}
				if lat[c]+cost > budget {
					continue
				}
				if bestCam == -1 || cost < bestCost ||
					(cost == bestCost && lat[c] < lat[bestCam]) {
					bestCam = c
					bestCost = cost
				}
			}
			if bestCam == -1 {
				break
			}
			extra[o.ID] = append(extra[o.ID], bestCam)
			lat[bestCam] += bestCost
			counts[bestCam][o.Size[bestCam]]++
		}
	}

	sol := &oracleSolution{
		Assign:    base.Assign,
		Latencies: lat,
		Priority:  oraclePriorityFromLatencies(lat),
	}
	return sol, extra, nil
}

func oracleContains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// oracleSolve solves objects with the reference — Central under opts
// for redundancy <= 1, CentralRedundant above — and returns its outcome
// in the flat form: Assign and Extra indexed by position in objects.
func oracleSolve(cams []CameraSpec, objects []ObjectSpec, opts CentralOptions, redundancy int, slack float64) (*Solution, error) {
	var sol *oracleSolution
	var extra map[int][]int
	var err error
	if redundancy > 1 {
		sol, extra, err = oracleCentralRedundant(cams, objects, redundancy, slack)
	} else {
		sol, err = oracleCentral(cams, objects, opts)
	}
	if err != nil {
		return nil, err
	}
	out := &Solution{Latencies: sol.Latencies, Priority: sol.Priority}
	for i := range objects {
		out.Assign = append(out.Assign, sol.Assign[objects[i].ID])
		out.extra = append(out.extra, extra[objects[i].ID])
	}
	return out, nil
}

// sameSolution reports the first difference between two solutions of an
// n-object instance: assignment, extra trackers, latencies, priority.
func sameSolution(got, want *Solution, n int) error {
	if len(got.Assign) != n || len(want.Assign) != n {
		return fmt.Errorf("%d and %d assignments for %d objects", len(got.Assign), len(want.Assign), n)
	}
	for j := 0; j < n; j++ {
		if got.Assign[j] != want.Assign[j] {
			return fmt.Errorf("object %d on camera %d, want %d", j, got.Assign[j], want.Assign[j])
		}
		if !slices.Equal(got.Extra(j), want.Extra(j)) {
			return fmt.Errorf("object %d extra trackers %v, want %v", j, got.Extra(j), want.Extra(j))
		}
	}
	if !slices.Equal(got.Latencies, want.Latencies) {
		return fmt.Errorf("latencies %v, want %v", got.Latencies, want.Latencies)
	}
	if !slices.Equal(got.Priority, want.Priority) {
		return fmt.Errorf("priority %v, want %v", got.Priority, want.Priority)
	}
	return nil
}

// agreeWithOracle solves objects with the reference and on w, over
// NewInstance(objects), and reports the first difference, including in
// whether the instance is rejected.
func agreeWithOracle(w *Solver, cams []CameraSpec, objects []ObjectSpec, opts CentralOptions, redundancy int, slack float64) error {
	want, wantErr := oracleSolve(cams, objects, opts, redundancy, slack)
	in := NewInstance(objects)
	var got *Solution
	var err error
	if redundancy > 1 {
		got, err = w.CentralRedundant(cams, in, redundancy, slack)
	} else {
		got, err = w.Central(cams, in, opts)
	}
	if (err != nil) != (wantErr != nil) {
		return fmt.Errorf("error %v, reference error %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	if err := sameSolution(got, want, len(objects)); err != nil {
		return fmt.Errorf("against the reference: %w", err)
	}
	return nil
}
