package core

import (
	"errors"
	"fmt"
	"time"
)

// CentralOptions tunes the central-stage algorithm.
type CentralOptions struct {
	// DisableBatching makes BALB ignore incomplete batches and charge one
	// batch per object — the batch-awareness ablation. The assignment
	// then degenerates to pure latency balancing.
	DisableBatching bool
}

// Central is Solver.Central on a fresh Solver over NewInstance(objects):
// objects[i] is instance object i, and the Solution is the caller's.
func Central(cams []CameraSpec, objects []ObjectSpec, opts CentralOptions) (*Solution, error) {
	var w Solver
	return w.Central(cams, NewInstance(objects), opts)
}

// Central runs the central-stage BALB algorithm (Algorithm 1): a
// single-pass greedy assignment that considers objects in non-decreasing
// coverage-set size (least scheduling flexibility first), packs objects
// into incomplete same-size batches when possible (choosing the camera
// with the largest relative batch capacity), and otherwise opens a new
// batch on the camera with the minimum post-assignment latency.
//
// Complexity: O(N log N + M N) for N objects and M cameras.
func (w *Solver) Central(cams []CameraSpec, in *Instance, opts CentralOptions) (*Solution, error) {
	if err := w.prepare(cams, in); err != nil {
		return nil, err
	}
	sol := &w.sol
	sol.Assign = grow(sol.Assign, in.Len())
	sol.extra = sol.extra[:0]
	// L_i := t_i^full (line 1); no batch open anywhere.
	lat := w.fullFrame(cams)
	inLast := w.clearBatch(len(cams))

	// Reindex objects by non-decreasing |C_j|, ties in favour of larger
	// target size (line 2); final tie-break on ID keeps runs
	// deterministic.
	for _, key := range w.sortObjects(in, true, true) {
		j := int(uint32(key))
		lo, hi := in.off[j], in.off[j+1]

		// C'_j: cameras in the coverage set with an incomplete batch of
		// this object's target size (line 4).
		bestCam, bestSlot := -1, 0
		if !opts.DisableBatching {
			bestRel := -1.0
			for e := lo; e < hi; e++ {
				c, s := int(in.cover[e]), w.slot(in, e)
				limit, n := w.limit[s], inLast[s]
				if n == 0 || n >= limit {
					continue // no batch open, or batch complete
				}
				// Relative capacity of the incomplete batch (Definition
				// 4, normalized by the limit so heterogeneous batch
				// limits compare fairly). Ties go to the less loaded
				// camera, then the one listed earlier in the object's C_j.
				rel := float64(limit-n) / float64(limit)
				if rel > bestRel || (rel == bestRel && bestCam >= 0 && lat[c] < lat[bestCam]) {
					bestRel = rel
					bestCam, bestSlot = c, s
				}
			}
		}

		if bestCam >= 0 {
			// Join the incomplete batch (lines 5-8): latency is already
			// charged for that batch.
			sol.Assign[j] = bestCam
			inLast[bestSlot]++
			continue
		}

		// Open a new batch on the camera minimizing L_i + t_i^{s_ij}
		// (lines 9-12).
		var bestLat time.Duration
		for e := lo; e < hi; e++ {
			c, s := int(in.cover[e]), w.slot(in, e)
			cand := lat[c] + w.cost[s]
			if bestCam == -1 || cand < bestLat || (cand == bestLat && c < bestCam) {
				bestCam, bestSlot = c, s
				bestLat = cand
			}
		}
		sol.Assign[j] = bestCam
		lat[bestCam] = bestLat
		inLast[bestSlot] = 1
		if opts.DisableBatching {
			// Keep the batch marked complete so nothing ever joins it.
			inLast[bestSlot] = 0
		}
	}

	sol.Priority = priorityFromLatencies(sol.Priority, lat)
	return sol, nil
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
	// (docs/FAULTS.md, "Data-plane failure model"). Empty = all alive.
	dead []bool
}

// NewDistributedPolicy builds the policy from a camera priority order
// (e.g. Solution.Priority). The order must be a permutation of 0..M-1;
// an empty order returns ErrEmptyPriority.
func NewDistributedPolicy(priority []int) (*DistributedPolicy, error) {
	p := new(DistributedPolicy)
	if err := p.Reset(priority); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset rebuilds p in place as NewDistributedPolicy(priority) builds a
// policy — every camera alive — reusing p's storage, so a host that
// keeps one policy across horizons allocates nothing. priority is
// copied. On error p is left unusable.
func (p *DistributedPolicy) Reset(priority []int) error {
	if len(priority) == 0 {
		return ErrEmptyPriority
	}
	p.rank = grow(p.rank, len(priority))
	for i := range p.rank {
		p.rank[i] = -1
	}
	for pos, cam := range priority {
		if cam < 0 || cam >= len(priority) {
			return fmt.Errorf("core: priority entry %d out of range", cam)
		}
		if p.rank[cam] != -1 {
			return fmt.Errorf("core: camera %d appears twice in priority", cam)
		}
		p.rank[cam] = pos
	}
	p.Priority = append(p.Priority[:0], priority...)
	p.dead = p.dead[:0]
	return nil
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
		p.dead = p.dead[:0]
		return
	}
	p.dead = grow(p.dead, len(p.rank))
	copy(p.dead, dead)
	for i := len(dead); i < len(p.dead); i++ {
		p.dead[i] = false
	}
}

// Dead reports whether cam is marked dead by SetDead. Out-of-range
// cameras are not dead (they are simply unknown).
func (p *DistributedPolicy) Dead(cam int) bool {
	return cam >= 0 && cam < len(p.dead) && p.dead[cam]
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
