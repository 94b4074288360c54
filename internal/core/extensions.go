package core

import (
	"fmt"
	"slices"
	"time"
)

// This file implements the extensions the paper sketches in its
// "Limitations and Discussion" section (§V):
//
//   - CentralRedundant: assign each object to up to R cameras to hedge
//     against dynamic occlusions and imperfect association ("we may
//     allocate multiple cameras to track the same object");
//   - CentralQualityAware: trade latency for tracking quality by
//     preferring cameras where the object appears larger ("assigning an
//     object to a camera that is closer ... might help improve
//     classification accuracy");
//   - MinTotalLoad: the alternative formulation minimizing cumulative
//     processed workload instead of the maximum ("an alternative
//     formulation might simply minimize the cumulative processed
//     workload");
//   - MinUploadCover: the centralized-processing extension — pick the
//     minimum set of cameras whose uploads cover all objects ("uploading
//     the minimum number of views that offers complete coverage").

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
		j := int(key.idx)
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

// QualityOptions tunes CentralQualityAware.
type QualityOptions struct {
	// Lambda in [0, 1] weighs quality against latency: 0 is pure BALB,
	// 1 considers only quality (largest view).
	Lambda float64
}

// CentralQualityAware is a quality-latency tradeoff variant of the
// central stage: when opening a new batch, cameras are scored by a convex
// combination of normalized post-assignment latency and (negated)
// normalized view size, so objects lean toward cameras where they appear
// larger — which classify more reliably — at a bounded latency cost.
// objects[i] is Solution object i.
func CentralQualityAware(cams []CameraSpec, objects []ObjectSpec, opts QualityOptions) (*Solution, error) {
	in := NewInstance(objects)
	var w Solver
	if err := w.prepare(cams, in); err != nil {
		return nil, err
	}
	if opts.Lambda < 0 || opts.Lambda > 1 {
		return nil, fmt.Errorf("core: lambda %v out of [0,1]", opts.Lambda)
	}

	lat := w.fullFrame(cams)
	assign := make([]int, in.Len())
	for _, key := range w.sortObjects(in, true, false) {
		j := int(key.idx)
		lo, hi := in.off[j], in.off[j+1]
		// Normalizers across this object's options.
		var maxLat time.Duration
		var maxSize int32
		for e := lo; e < hi; e++ {
			c := in.cover[e]
			maxLat = max(maxLat, lat[c]+w.cost[w.slot(in, e)])
			maxSize = max(maxSize, in.size[e])
		}
		bestCam, bestSlot := -1, 0
		bestScore := 0.0
		for e := lo; e < hi; e++ {
			c, s := int(in.cover[e]), w.slot(in, e)
			latScore := float64(lat[c]+w.cost[s]) / float64(maxLat) // lower better
			qualScore := 1 - float64(in.size[e])/float64(maxSize)
			score := (1-opts.Lambda)*latScore + opts.Lambda*qualScore
			if bestCam == -1 || score < bestScore ||
				(score == bestScore && c < bestCam) {
				bestCam, bestSlot = c, s
				bestScore = score
			}
		}
		assign[j] = bestCam
		lat[bestCam] += w.cost[bestSlot]
	}

	// Re-price with proper batch packing for the reported latencies.
	return w.priced(cams, in, assign)
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

// MeanAssignedSize returns the mean target size of objects on their
// assigned cameras (assign[i] is objects[i]'s) — the quality proxy
// CentralQualityAware optimizes (larger view = more pixels on target =
// better classification, per the paper's §V).
func MeanAssignedSize(objects []ObjectSpec, assign []int) (float64, error) {
	if len(objects) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range objects {
		o := &objects[i]
		if i >= len(assign) || assign[i] < 0 {
			return 0, fmt.Errorf("core: object %d unassigned", o.ID)
		}
		sum += float64(o.Size[assign[i]])
	}
	return sum / float64(len(objects)), nil
}

// MinTotalLoad solves the alternative formulation that minimizes the
// *cumulative* scheduled latency across cameras rather than the maximum:
// each object goes to its cheapest marginal camera, processing order by
// descending size to pack batches well. This matches §V's "minimize the
// cumulative processed workload" variant (e.g. for energy). objects[i]
// is Solution object i.
func MinTotalLoad(cams []CameraSpec, objects []ObjectSpec) (*Solution, error) {
	in := NewInstance(objects)
	var w Solver
	if err := w.prepare(cams, in); err != nil {
		return nil, err
	}
	counts := w.clearBatch(len(cams))
	assign := make([]int, in.Len())

	// Deterministic objects first (as in Algorithm 1): once the forced
	// batches exist, flexible objects can ride them for free. Within a
	// coverage class, larger sizes go first so they anchor the batches.
	for _, key := range w.sortObjects(in, true, true) {
		j := int(key.idx)
		bestCam, bestSlot := -1, 0
		var bestCost time.Duration
		for e := in.off[j]; e < in.off[j+1]; e++ {
			c, s := int(in.cover[e]), w.slot(in, e)
			var cost time.Duration // 0: rides an incomplete batch
			if counts[s]%w.limit[s] == 0 {
				cost = w.cost[s]
			}
			if bestCam == -1 || cost < bestCost || (cost == bestCost && c < bestCam) {
				bestCam, bestSlot = c, s
				bestCost = cost
			}
		}
		assign[j] = bestCam
		counts[bestSlot]++
	}
	return w.priced(cams, in, assign)
}

// TotalLoad returns the sum of per-camera latencies of a solution — the
// MinTotalLoad objective.
func TotalLoad(lat []time.Duration) time.Duration {
	var sum time.Duration
	for _, l := range lat {
		sum += l
	}
	return sum
}

// MinUploadCover implements the centralized-processing extension: choose
// the minimum-cardinality set of cameras whose coverage includes every
// object, so only those cameras upload their frames (greedy set cover,
// ln(n)-approximate). Ties break toward cameras with more capacity
// (lower full-frame latency), then lower index. It returns the chosen
// camera indices in selection order.
func MinUploadCover(cams []CameraSpec, objects []ObjectSpec) ([]int, error) {
	in := NewInstance(objects)
	var w Solver
	if err := w.prepare(cams, in); err != nil {
		return nil, err
	}
	uncovered := make([]bool, in.Len())
	left := in.Len()
	coveredBy := make([][]int, len(cams))
	for j := range uncovered {
		uncovered[j] = true
		for _, c := range in.Cameras(j) {
			coveredBy[c] = append(coveredBy[c], j)
		}
	}

	var chosen []int
	used := make([]bool, len(cams))
	for left > 0 {
		bestCam, bestGain := -1, 0
		for c := range cams {
			if used[c] {
				continue
			}
			gain := 0
			for _, j := range coveredBy[c] {
				if uncovered[j] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			better := gain > bestGain
			if gain == bestGain && bestCam >= 0 {
				if cams[c].Profile.FullFrame < cams[bestCam].Profile.FullFrame {
					better = true
				}
			}
			if better {
				bestCam, bestGain = c, gain
			}
		}
		if bestCam == -1 {
			return nil, fmt.Errorf("core: %d objects not coverable by any camera", left)
		}
		used[bestCam] = true
		chosen = append(chosen, bestCam)
		for _, j := range coveredBy[bestCam] {
			if uncovered[j] {
				uncovered[j] = false
				left--
			}
		}
	}
	return chosen, nil
}
