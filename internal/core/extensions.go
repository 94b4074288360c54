package core

import (
	"slices"
	"time"
)

// This file implements the one extension of the paper's "Limitations and
// Discussion" section (§V) that a study reads (the occlusion study):
// CentralRedundant assigns each object to up to R cameras to hedge
// against dynamic occlusions and imperfect association ("we may allocate
// multiple cameras to track the same object").

// CentralRedundant runs the central BALB stage, then adds up to
// redundancy-1 extra trackers per object (Solution.Extra), chosen among
// the remaining covering cameras in ascending marginal-latency order,
// subject to no camera's latency rising above slack x the base
// solution's *system* latency.
//
// redundancy <= 1 degenerates to Central. slack <= 1 keeps the system
// latency where the base solution put it, but is not limited to free
// additions (joining incomplete batches): a camera below the maximum may
// still open a new batch that fits under it.
func (w *Solver) CentralRedundant(cams []CameraSpec, in *Instance, redundancy int, slack float64) (*Solution, error) {
	sol, err := w.Central(cams, in, CentralOptions{})
	if err != nil || redundancy <= 1 || in.Len() == 0 {
		return sol, err
	}
	if slack < 1 {
		slack = 1
	}
	budget := time.Duration(float64(sol.System()) * slack)

	// Track batch occupancy implied by the base assignment, per camera
	// and size, so extra trackers keep exploiting incomplete batches.
	if err := w.count(len(cams), in, sol.Assign); err != nil {
		return nil, err
	}
	lat := sol.Latencies

	// An object can gain at most one extra per covering camera but its
	// owner.
	stride := min(redundancy-1, len(cams)-1)
	w.extra = grow(w.extra, in.Len()*stride)
	sol.extra = grow(sol.extra, in.Len())
	for j := range sol.extra {
		sol.extra[j] = w.extra[j*stride : j*stride : (j+1)*stride]
	}
	// Objects with the fewest existing trackers and largest coverage
	// benefit most; iterate in ID order for determinism.
	for _, key := range w.sortObjects(in, false, false) {
		j := int(uint32(key))
		assigned := sol.Assign[j]
		for added := 0; added < redundancy-1; added++ {
			bestCam, bestSlot := -1, 0
			var bestCost time.Duration
			for e := in.off[j]; e < in.off[j+1]; e++ {
				c, s := int(in.cover[e]), w.slot(in, e)
				if c == assigned || slices.Contains(sol.extra[j], c) {
					continue
				}
				// The marginal latency of one more region: nothing if
				// it joins an incomplete batch, a batch otherwise.
				var cost time.Duration
				if w.batch[s]%w.limit[s] == 0 {
					cost = w.cost[s]
				}
				if lat[c]+cost > budget {
					continue
				}
				if bestCam == -1 || cost < bestCost ||
					(cost == bestCost && lat[c] < lat[bestCam]) {
					bestCam, bestSlot = c, s
					bestCost = cost
				}
			}
			if bestCam == -1 {
				break
			}
			sol.extra[j] = append(sol.extra[j], bestCam)
			lat[bestCam] += bestCost
			w.batch[bestSlot]++
		}
	}
	sol.Priority = priorityFromLatencies(sol.Priority, lat)
	return sol, nil
}
