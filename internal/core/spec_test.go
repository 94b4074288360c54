package core

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// The specification of the central stage, written from the paper's
// words and DESIGN.md's with plain maps and slices: instance validity,
// Definition 1's pricing of an assignment, Algorithm 1 and its
// batch-awareness ablation, and the §V redundant variant. The flat
// Solver is held to it instance by instance (spec*MeetsSpec, the fuzz
// targets), and the engine, through export_test.go, frame by frame
// (loop_test.go). Keep it literal; speed is not its concern.

// specValidate accepts an instance the paper can schedule: at least one
// camera, each with a valid profile, and every object seen by a
// non-empty set of distinct roster cameras, each at a profiled size.
func specValidate(cams []CameraSpec, objects []ObjectSpec) error {
	if len(cams) == 0 {
		return fmt.Errorf("no cameras")
	}
	for i, c := range cams {
		if c.Profile == nil || c.Profile.Validate() != nil {
			return fmt.Errorf("camera %d has no valid profile", i)
		}
	}
	for _, o := range objects {
		if len(o.Coverage) == 0 {
			return fmt.Errorf("object %d is seen by no camera", o.ID)
		}
		seen := map[int]bool{}
		for _, c := range o.Coverage {
			if c < 0 || c >= len(cams) || seen[c] {
				return fmt.Errorf("object %d: camera %d out of range or repeated", o.ID, c)
			}
			seen[c] = true
			if !slices.Contains(cams[c].Profile.Sizes, o.Size[c]) {
				return fmt.Errorf("object %d: size %d not profiled on camera %d", o.ID, o.Size[c], c)
			}
		}
	}
	return nil
}

// specLatencies prices an assignment by Definition 1: camera i runs its
// regions of each size s in ceil(n/B_i^s) batches of t_i^s each, plus
// t_i^full when the frame is a key frame.
func specLatencies(cams []CameraSpec, objects []ObjectSpec, assign []int, includeFull bool) []time.Duration {
	regions := specRegions(cams, objects, assign)
	lat := make([]time.Duration, len(cams))
	for i, c := range cams {
		for size, n := range regions[i] {
			b := c.Profile.BatchLimit[size]
			lat[i] += time.Duration((n+b-1)/b) * c.Profile.BatchLatency[size]
		}
		if includeFull {
			lat[i] += c.Profile.FullFrame
		}
	}
	return lat
}

// specRegions counts, per camera and size, the regions an assignment
// gives each camera.
func specRegions(cams []CameraSpec, objects []ObjectSpec, assign []int) []map[int]int {
	regions := make([]map[int]int, len(cams))
	for i := range regions {
		regions[i] = map[int]int{}
	}
	for j, o := range objects {
		regions[assign[j]][o.Size[assign[j]]]++
	}
	return regions
}

// upTo returns 0, 1, ..., n-1.
func upTo(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// specPriority is the distributed stage's camera order: ascending
// scheduled latency, ties to the lower index.
func specPriority(lat []time.Duration) []int {
	order := upTo(len(lat))
	sort.SliceStable(order, func(a, b int) bool { return lat[order[a]] < lat[order[b]] })
	return order
}

// specCentral is Algorithm 1. Without batching every object opens a
// batch of its own (the ablation). It returns each object's camera and
// the cameras' latencies.
func specCentral(cams []CameraSpec, objects []ObjectSpec, batching bool) ([]int, []time.Duration) {
	// Line 1: L_i := t_i^full.
	lat := make([]time.Duration, len(cams))
	for i, c := range cams {
		lat[i] = c.Profile.FullFrame
	}
	// Line 2: objects by non-decreasing |C_j|; ties to the larger
	// target size, then the smaller ID, then the earlier object.
	largest := func(o ObjectSpec) int {
		m := 0
		for _, c := range o.Coverage {
			m = max(m, o.Size[c])
		}
		return m
	}
	order := upTo(len(objects))
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := objects[order[a]], objects[order[b]]
		if len(oa.Coverage) != len(ob.Coverage) {
			return len(oa.Coverage) < len(ob.Coverage)
		}
		if largest(oa) != largest(ob) {
			return largest(oa) > largest(ob)
		}
		return oa.ID < ob.ID
	})

	// last[i][s] is how many regions camera i's last size-s batch holds.
	last := make([]map[int]int, len(cams))
	for i := range last {
		last[i] = map[int]int{}
	}
	assign := make([]int, len(objects))
	for _, j := range order {
		o := objects[j]
		// Lines 4-8: among C'_j, the cameras whose last batch of the
		// object's size is incomplete, join the one with the largest
		// relative free capacity (B-n)/B; ties to the less loaded camera,
		// then the camera listed first in C_j.
		best := -1
		for _, c := range o.Coverage {
			n, b := last[c][o.Size[c]], cams[c].Profile.BatchLimit[o.Size[c]]
			if !batching || n == 0 || n >= b {
				continue
			}
			if best < 0 {
				best = c
				continue
			}
			nb, bb := last[best][o.Size[best]], cams[best].Profile.BatchLimit[o.Size[best]]
			// (b-n)/b against (bb-nb)/bb, cross-multiplied.
			if d := (b-n)*bb - (bb-nb)*b; d > 0 || d == 0 && lat[c] < lat[best] {
				best = c
			}
		}
		if best >= 0 {
			assign[j] = best
			last[best][o.Size[best]]++
			continue
		}
		// Lines 9-12: otherwise open a batch on the camera with the least
		// L_i + t_i^{s_ij}, ties to the lower index.
		cost := func(c int) time.Duration { return lat[c] + cams[c].Profile.BatchLatency[o.Size[c]] }
		for _, c := range o.Coverage {
			if best < 0 || cost(c) < cost(best) || cost(c) == cost(best) && c < best {
				best = c
			}
		}
		assign[j] = best
		lat[best] = cost(best)
		last[best][o.Size[best]] = 1
	}
	return assign, lat
}

// specRedundant is DESIGN.md's §V extension: Algorithm 1, then, object
// by object in ascending ID order, up to R-1 extra trackers among the
// other covering cameras. An extra costs nothing when the camera's
// regions of that size leave a batch incomplete and t_i^s otherwise; it
// is allowed while the camera's latency stays within slack (at least 1)
// times the base system latency, and the cheapest allowed camera wins,
// ties to the less loaded, then to the one listed first in C_j.
func specRedundant(cams []CameraSpec, objects []ObjectSpec, r int, slack float64) ([]int, [][]int, []time.Duration) {
	assign, lat := specCentral(cams, objects, true)
	extra := make([][]int, len(objects))
	if r <= 1 || len(objects) == 0 {
		return assign, extra, lat
	}
	budget := time.Duration(float64(slices.Max(lat)) * max(slack, 1))
	regions := specRegions(cams, objects, assign)
	order := upTo(len(objects))
	sort.SliceStable(order, func(a, b int) bool { return objects[order[a]].ID < objects[order[b]].ID })
	for _, j := range order {
		o := objects[j]
		for len(extra[j]) < r-1 {
			best, bestCost := -1, time.Duration(0)
			for _, c := range o.Coverage {
				if c == assign[j] || slices.Contains(extra[j], c) {
					continue
				}
				size := o.Size[c]
				cost := cams[c].Profile.BatchLatency[size]
				if regions[c][size]%cams[c].Profile.BatchLimit[size] != 0 {
					cost = 0
				}
				if lat[c]+cost > budget {
					continue
				}
				if best < 0 || cost < bestCost || cost == bestCost && lat[c] < lat[best] {
					best, bestCost = c, cost
				}
			}
			if best < 0 {
				break
			}
			extra[j] = append(extra[j], best)
			lat[best] += bestCost
			regions[best][o.Size[best]]++
		}
	}
	return assign, extra, lat
}

// specSolve is what the specification schedules for the instance:
// Algorithm 1 under opts for redundancy <= 1, the §V variant above, as
// a Solution with Extra filled. An invalid instance is an error.
func specSolve(cams []CameraSpec, objects []ObjectSpec, opts CentralOptions, redundancy int, slack float64) (*Solution, error) {
	if err := specValidate(cams, objects); err != nil {
		return nil, err
	}
	sol := &Solution{}
	if redundancy > 1 {
		sol.Assign, sol.extra, sol.Latencies = specRedundant(cams, objects, redundancy, slack)
	} else {
		sol.Assign, sol.Latencies = specCentral(cams, objects, !opts.DisableBatching)
	}
	sol.Priority = specPriority(sol.Latencies)
	return sol, nil
}
