package core

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// batchState tracks a camera's open (incomplete) batches during the
// central-stage sweep: per size, how many regions the last batch holds.
type batchState struct {
	// inLast maps size -> regions in the most recent batch (0 < v <=
	// limit means the batch exists; v == limit means it is complete).
	inLast map[int]int
}

// CentralOptions tunes the central-stage algorithm.
type CentralOptions struct {
	// DisableBatching makes BALB ignore incomplete batches and charge one
	// batch per object — the batch-awareness ablation. The assignment
	// then degenerates to pure latency balancing.
	DisableBatching bool
}

// Central runs the central-stage BALB algorithm (Algorithm 1): a
// single-pass greedy assignment that considers objects in non-decreasing
// coverage-set size (least scheduling flexibility first), packs objects
// into incomplete same-size batches when possible (choosing the camera
// with the largest relative batch capacity), and otherwise opens a new
// batch on the camera with the minimum post-assignment latency.
//
// Complexity: O(N log N + M N) for N objects and M cameras.
func Central(cams []CameraSpec, objects []ObjectSpec, opts CentralOptions) (*Solution, error) {
	if err := validateInstance(cams, objects); err != nil {
		return nil, err
	}

	// L_i := t_i^full (line 1).
	lat := make([]time.Duration, len(cams))
	for i, c := range cams {
		lat[i] = c.Profile.FullFrame
	}
	batches := make([]batchState, len(cams))
	for i := range batches {
		batches[i] = batchState{inLast: make(map[int]int)}
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

	assign := make(Assignment, len(objects))
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
			t, err := cams[c].Profile.BatchLatencyFor(size)
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
		t, err := cams[bestCam].Profile.BatchLatencyFor(size)
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

	return &Solution{
		Assign:    assign,
		Latencies: lat,
		Priority:  priorityFromLatencies(lat),
	}, nil
}

// ErrEmptyPriority is returned by NewDistributedPolicy for an empty
// priority order: a policy over zero cameras cannot answer any
// ownership question.
var ErrEmptyPriority = errors.New("core: empty priority order")

// DistributedPolicy is the per-horizon state each camera needs to make
// the distributed-stage decisions with zero communication: the fixed
// camera priority (from the central stage), the per-cell coverage
// sets, and — under camera faults — the shared liveness mask every
// camera consults identically so failover needs no communication
// either.
type DistributedPolicy struct {
	// Priority lists cameras highest-priority first (ascending central-
	// stage latency).
	Priority []int
	// rank[c] is camera c's position in Priority (0 = highest).
	rank []int
	// dead[c] marks camera c dead: Owner and ShouldTrack skip it, so
	// the next-priority covering camera takes over its objects
	// (docs/FAULTS.md, "Data-plane failure model"). nil = all alive.
	dead []bool
}

// NewDistributedPolicy builds the policy from a camera priority order
// (e.g. Solution.Priority). The order must be a permutation of 0..M-1;
// an empty order returns ErrEmptyPriority.
func NewDistributedPolicy(priority []int) (*DistributedPolicy, error) {
	if len(priority) == 0 {
		return nil, ErrEmptyPriority
	}
	rank := make([]int, len(priority))
	for i := range rank {
		rank[i] = -1
	}
	for pos, cam := range priority {
		if cam < 0 || cam >= len(priority) {
			return nil, fmt.Errorf("core: priority entry %d out of range", cam)
		}
		if rank[cam] != -1 {
			return nil, fmt.Errorf("core: camera %d appears twice in priority", cam)
		}
		rank[cam] = pos
	}
	return &DistributedPolicy{Priority: append([]int(nil), priority...), rank: rank}, nil
}

// NewScopedPolicy builds a policy over a camera *subset*: priority
// lists distinct global camera indices (a shard's roster) from highest
// to lowest priority; cameras outside the roster are unknown — Owner
// and ShouldTrack skip them, exactly as they skip out-of-range
// indices. A camera node handed a shard-scoped Assignment builds one of
// these from Assignment.Priority. An empty priority returns
// ErrEmptyPriority.
func NewScopedPolicy(priority []int) (*DistributedPolicy, error) {
	if len(priority) == 0 {
		return nil, ErrEmptyPriority
	}
	maxCam := 0
	for _, cam := range priority {
		if cam < 0 {
			return nil, fmt.Errorf("core: priority entry %d out of range", cam)
		}
		if cam > maxCam {
			maxCam = cam
		}
	}
	rank := make([]int, maxCam+1)
	for i := range rank {
		rank[i] = -1
	}
	for pos, cam := range priority {
		if rank[cam] != -1 {
			return nil, fmt.Errorf("core: camera %d appears twice in priority", cam)
		}
		rank[cam] = pos
	}
	return &DistributedPolicy{Priority: append([]int(nil), priority...), rank: rank}, nil
}

// SetDead installs the shared liveness mask: dead[c] == true removes
// camera c from every subsequent Owner/ShouldTrack decision, so the
// next-priority covering camera takes over its objects. A nil or empty
// mask clears all dead marks. The mask is copied; extra entries beyond
// the roster are ignored. Not safe to call concurrently with
// Owner/ShouldTrack — callers update it in the sequential section
// between frames.
func (p *DistributedPolicy) SetDead(dead []bool) {
	any := false
	for _, d := range dead {
		any = any || d
	}
	if !any {
		p.dead = nil
		return
	}
	if len(p.dead) != len(p.rank) {
		p.dead = make([]bool, len(p.rank))
	}
	copy(p.dead, dead)
	for i := len(dead); i < len(p.dead); i++ {
		p.dead[i] = false
	}
}

// Dead reports whether cam is marked dead by SetDead. Out-of-range
// cameras are not dead (they are simply unknown).
func (p *DistributedPolicy) Dead(cam int) bool {
	return p.dead != nil && cam >= 0 && cam < len(p.dead) && p.dead[cam]
}

// Owner returns the camera responsible for a new object whose coverage
// set is cover: the highest-priority *live* camera that can see it. The
// boolean is false — with camera 0 as a dummy value — when the coverage
// set is empty, contains only out-of-range cameras, or every covering
// camera is dead: the object is orphaned and no camera should track it.
func (p *DistributedPolicy) Owner(cover []int) (int, bool) {
	best := -1
	for _, c := range cover {
		if c < 0 || c >= len(p.rank) || p.rank[c] < 0 {
			continue // out of range, or outside a scoped policy's roster
		}
		if p.Dead(c) {
			continue
		}
		if best == -1 || p.rank[c] < p.rank[best] {
			best = c
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// ShouldTrack reports whether camera cam must start tracking an object
// with the given coverage set — i.e. cam is the highest-priority camera
// seeing it. Every camera evaluates this identically from shared state,
// which is what makes the stage communication-free.
func (p *DistributedPolicy) ShouldTrack(cam int, cover []int) bool {
	owner, ok := p.Owner(cover)
	return ok && owner == cam
}
