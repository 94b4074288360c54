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
	"fmt"
	"sort"
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

// ObjectSpec describes one physical object to the scheduler.
type ObjectSpec struct {
	// ID is a scheduler-unique object identifier.
	ID int
	// Coverage lists the cameras that can see the object (C_j).
	Coverage []int
	// Size maps camera index -> quantized target size s_ij. Every camera
	// in Coverage must have an entry.
	Size map[int]int
}

// Validate checks that the object is well-formed against a camera roster
// of the given length.
func (o *ObjectSpec) Validate(numCams int) error {
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

// Assignment maps object ID -> the camera index responsible for tracking
// it. BALB assigns each object to exactly one camera (the minimal
// feasible choice, since extra trackers only add latency).
type Assignment map[int]int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// CheckFeasible verifies the two feasibility conditions of Definition 2:
// every object is tracked by a camera that can see it, and no object is
// assigned to a camera outside its coverage set.
func CheckFeasible(objects []ObjectSpec, a Assignment) error {
	for i := range objects {
		o := &objects[i]
		cam, ok := a[o.ID]
		if !ok {
			return fmt.Errorf("core: object %d unassigned", o.ID)
		}
		covered := false
		for _, c := range o.Coverage {
			if c == cam {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("core: object %d assigned to camera %d outside coverage %v", o.ID, cam, o.Coverage)
		}
	}
	return nil
}

// cameraLatencies computes, for each camera, the scheduled per-frame
// latency of a feasible assignment: the optimal batch sequence's cost
// (greedy same-size packing, each batch charged t_i^s), plus the
// full-frame inspection time when includeFull is set (key-frame
// accounting, as in Algorithm 1's initialization).
func cameraLatencies(cams []CameraSpec, objects []ObjectSpec, a Assignment, includeFull bool) ([]time.Duration, error) {
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
		lat, err := scheduledLatency(counts[i], cam)
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
type Solution struct {
	// Assign is the object-to-camera assignment.
	Assign Assignment
	// Latencies are the scheduled per-camera latencies (with full-frame
	// time included, matching Algorithm 1's accounting).
	Latencies []time.Duration
	// Priority lists camera indices from highest to lowest distributed-
	// stage priority (i.e. ascending assigned latency; ties by index).
	Priority []int
}

// System returns the solution's system latency.
func (s *Solution) System() time.Duration { return SystemLatency(s.Latencies) }

// priorityFromLatencies orders cameras by ascending latency (ties by
// index): lightest-loaded camera first, as the distributed stage
// requires.
func priorityFromLatencies(lat []time.Duration) []int {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	return idx
}

// BruteForce solves MVS exactly by enumerating all feasible single-camera
// assignments. It is exponential (prod |C_j|) and intended only for small
// instances in tests and optimality-gap experiments. It returns an error
// if the instance exceeds maxStates (default 5e6 when 0).
func BruteForce(cams []CameraSpec, objects []ObjectSpec, maxStates int) (*Solution, error) {
	if err := validateInstance(cams, objects); err != nil {
		return nil, err
	}
	if maxStates <= 0 {
		maxStates = 5_000_000
	}
	states := 1
	for i := range objects {
		states *= len(objects[i].Coverage)
		if states > maxStates {
			return nil, fmt.Errorf("core: brute force would enumerate > %d states", maxStates)
		}
	}

	best := Assignment(nil)
	var bestLat time.Duration
	cur := make(Assignment, len(objects))
	var recurse func(k int) error
	recurse = func(k int) error {
		if k == len(objects) {
			lat, err := cameraLatencies(cams, objects, cur, true)
			if err != nil {
				return err
			}
			sys := SystemLatency(lat)
			if best == nil || sys < bestLat {
				best = cur.Clone()
				bestLat = sys
			}
			return nil
		}
		o := &objects[k]
		for _, c := range o.Coverage {
			cur[o.ID] = c
			if err := recurse(k + 1); err != nil {
				return err
			}
		}
		delete(cur, o.ID)
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, err
	}
	if best == nil {
		// No objects: empty assignment.
		best = Assignment{}
	}
	lat, err := cameraLatencies(cams, objects, best, true)
	if err != nil {
		return nil, err
	}
	return &Solution{Assign: best, Latencies: lat, Priority: priorityFromLatencies(lat)}, nil
}

// validateInstance checks the camera roster and every object.
func validateInstance(cams []CameraSpec, objects []ObjectSpec) error {
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
		if err := objects[i].Validate(len(cams)); err != nil {
			return err
		}
	}
	return nil
}
