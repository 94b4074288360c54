package core

import (
	"fmt"
	"sort"
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
// redundancy-1 extra trackers per object, chosen among the remaining
// covering cameras in ascending marginal-latency order, subject to not
// raising the system latency above slack x the base solution's. The
// returned Extra maps object ID -> additional camera indices.
//
// redundancy <= 1 degenerates to Central. slack <= 1 permits only free
// additions (joining incomplete batches).
func CentralRedundant(cams []CameraSpec, objects []ObjectSpec, redundancy int, slack float64) (*Solution, map[int][]int, error) {
	base, err := Central(cams, objects, CentralOptions{})
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
		return cams[c].Profile.BatchLatencyFor(size)
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
				if c == assigned || contains(extra[o.ID], c) {
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

	sol := &Solution{
		Assign:    base.Assign,
		Latencies: lat,
		Priority:  priorityFromLatencies(lat),
	}
	return sol, extra, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
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
func CentralQualityAware(cams []CameraSpec, objects []ObjectSpec, opts QualityOptions) (*Solution, error) {
	if err := validateInstance(cams, objects); err != nil {
		return nil, err
	}
	if opts.Lambda < 0 || opts.Lambda > 1 {
		return nil, fmt.Errorf("core: lambda %v out of [0,1]", opts.Lambda)
	}

	lat := make([]time.Duration, len(cams))
	for i, c := range cams {
		lat[i] = c.Profile.FullFrame
	}
	assign := make(Assignment, len(objects))

	order := make([]int, len(objects))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := &objects[order[a]], &objects[order[b]]
		if len(oa.Coverage) != len(ob.Coverage) {
			return len(oa.Coverage) < len(ob.Coverage)
		}
		return oa.ID < ob.ID
	})

	for _, oi := range order {
		o := &objects[oi]
		// Normalizers across this object's options.
		var maxLat time.Duration
		maxSize := 0
		for _, c := range o.Coverage {
			t, err := cams[c].Profile.BatchLatencyFor(o.Size[c])
			if err != nil {
				return nil, fmt.Errorf("core: quality-aware: %w", err)
			}
			if lat[c]+t > maxLat {
				maxLat = lat[c] + t
			}
			if o.Size[c] > maxSize {
				maxSize = o.Size[c]
			}
		}
		bestCam := -1
		bestScore := 0.0
		for _, c := range o.Coverage {
			t, err := cams[c].Profile.BatchLatencyFor(o.Size[c])
			if err != nil {
				return nil, err
			}
			latScore := float64(lat[c]+t) / float64(maxLat) // lower better
			qualScore := 1 - float64(o.Size[c])/float64(maxSize)
			score := (1-opts.Lambda)*latScore + opts.Lambda*qualScore
			if bestCam == -1 || score < bestScore ||
				(score == bestScore && c < bestCam) {
				bestCam = c
				bestScore = score
			}
		}
		t, err := cams[bestCam].Profile.BatchLatencyFor(o.Size[bestCam])
		if err != nil {
			return nil, err
		}
		assign[o.ID] = bestCam
		lat[bestCam] += t
	}

	// Re-price with proper batch packing for the reported latencies.
	priced, err := cameraLatencies(cams, objects, assign, true)
	if err != nil {
		return nil, err
	}
	return &Solution{Assign: assign, Latencies: priced, Priority: priorityFromLatencies(priced)}, nil
}

// MeanAssignedSize returns the mean target size of objects on their
// assigned cameras — the quality proxy CentralQualityAware optimizes
// (larger view = more pixels on target = better classification, per the
// paper's §V).
func MeanAssignedSize(objects []ObjectSpec, a Assignment) (float64, error) {
	if len(objects) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range objects {
		o := &objects[i]
		cam, ok := a[o.ID]
		if !ok {
			return 0, fmt.Errorf("core: object %d unassigned", o.ID)
		}
		sum += float64(o.Size[cam])
	}
	return sum / float64(len(objects)), nil
}

// MinTotalLoad solves the alternative formulation that minimizes the
// *cumulative* scheduled latency across cameras rather than the maximum:
// each object goes to its cheapest marginal camera, processing order by
// descending size to pack batches well. This matches §V's "minimize the
// cumulative processed workload" variant (e.g. for energy).
func MinTotalLoad(cams []CameraSpec, objects []ObjectSpec) (*Solution, error) {
	if err := validateInstance(cams, objects); err != nil {
		return nil, err
	}
	counts := make([]map[int]int, len(cams))
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	assign := make(Assignment, len(objects))

	order := make([]int, len(objects))
	for i := range order {
		order[i] = i
	}
	maxSize := func(o *ObjectSpec) int {
		m := 0
		for _, c := range o.Coverage {
			if o.Size[c] > m {
				m = o.Size[c]
			}
		}
		return m
	}
	// Deterministic objects first (as in Algorithm 1): once the forced
	// batches exist, flexible objects can ride them for free. Within a
	// coverage class, larger sizes go first so they anchor the batches.
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

	for _, oi := range order {
		o := &objects[oi]
		bestCam := -1
		var bestCost time.Duration
		for _, c := range o.Coverage {
			size := o.Size[c]
			limit, err := cams[c].Profile.BatchLimitFor(size)
			if err != nil {
				return nil, fmt.Errorf("core: min-total-load: %w", err)
			}
			var cost time.Duration
			if counts[c][size]%limit != 0 {
				cost = 0 // rides an incomplete batch
			} else {
				cost, err = cams[c].Profile.BatchLatencyFor(size)
				if err != nil {
					return nil, err
				}
			}
			if bestCam == -1 || cost < bestCost || (cost == bestCost && c < bestCam) {
				bestCam = c
				bestCost = cost
			}
		}
		assign[o.ID] = bestCam
		counts[bestCam][o.Size[bestCam]]++
	}

	lat, err := cameraLatencies(cams, objects, assign, true)
	if err != nil {
		return nil, err
	}
	return &Solution{Assign: assign, Latencies: lat, Priority: priorityFromLatencies(lat)}, nil
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
	if err := validateInstance(cams, objects); err != nil {
		return nil, err
	}
	uncovered := make(map[int]bool, len(objects))
	coveredBy := make([][]int, len(cams))
	for i := range objects {
		o := &objects[i]
		uncovered[o.ID] = true
		for _, c := range o.Coverage {
			coveredBy[c] = append(coveredBy[c], o.ID)
		}
	}

	var chosen []int
	used := make([]bool, len(cams))
	for len(uncovered) > 0 {
		bestCam, bestGain := -1, 0
		for c := range cams {
			if used[c] {
				continue
			}
			gain := 0
			for _, id := range coveredBy[c] {
				if uncovered[id] {
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
			return nil, fmt.Errorf("core: %d objects not coverable by any camera", len(uncovered))
		}
		used[bestCam] = true
		chosen = append(chosen, bestCam)
		for _, id := range coveredBy[bestCam] {
			delete(uncovered, id)
		}
	}
	return chosen, nil
}
