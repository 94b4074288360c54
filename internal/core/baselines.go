package core

import (
	"fmt"
	"time"
)

// IndependentLatencies computes per-camera latencies when every camera
// independently tracks everything it sees (the BALB-Ind baseline: slicing
// and batching but no cross-camera workload sharing). Objects in
// overlapped regions are inspected redundantly by every covering camera.
func IndependentLatencies(cams []CameraSpec, in *Instance, includeFull bool) ([]time.Duration, error) {
	var w Solver
	if err := w.prepare(cams, in); err != nil {
		return nil, err
	}
	counts := w.clearBatch(len(cams))
	for e := range in.cover {
		counts[w.slot(in, int32(e))]++
	}
	return w.batchLatencies(cams, includeFull), nil
}

// CapacityWeights derives the static-partitioning capacity weight of each
// camera as the inverse of its full-frame inspection time, normalized to
// sum to 1 — faster hardware takes a proportionally larger share of the
// overlap region.
func CapacityWeights(cams []CameraSpec) ([]float64, error) {
	if len(cams) == 0 {
		return nil, fmt.Errorf("core: no cameras")
	}
	weights := make([]float64, len(cams))
	var sum float64
	for i, c := range cams {
		if c.Profile == nil || c.Profile.FullFrame <= 0 {
			return nil, fmt.Errorf("core: camera %d has no usable profile", i)
		}
		weights[i] = 1 / float64(c.Profile.FullFrame)
		sum += weights[i]
	}
	for i := range weights {
		weights[i] /= sum
	}
	return weights, nil
}

// WeightedPartition deterministically assigns each unit (a cell or an
// object, described by its coverage set) to one covering camera,
// splitting units that share a coverage signature proportionally to the
// capacity weights. This is the offline rule of the Static Partitioning
// (SP) baseline: "a fixed policy that partitions the overlap regions
// among cameras in offline according to their processing power".
//
// The split uses smooth weighted round-robin per coverage signature: each
// unit goes to the covering camera with the largest accumulated deficit,
// which converges to the weight proportions without randomness.
func WeightedPartition(units [][]int, weights []float64) ([]int, error) {
	owners := make([]int, len(units))
	type sigState struct {
		deficit map[int]float64
	}
	states := make(map[string]*sigState)
	for ui, cover := range units {
		if len(cover) == 0 {
			return nil, fmt.Errorf("core: unit %d has empty coverage", ui)
		}
		var localSum float64
		for _, c := range cover {
			if c < 0 || c >= len(weights) {
				return nil, fmt.Errorf("core: unit %d covers camera %d out of range", ui, c)
			}
			localSum += weights[c]
		}
		if localSum <= 0 {
			return nil, fmt.Errorf("core: unit %d has zero total weight", ui)
		}
		key := sigKey(cover)
		st, ok := states[key]
		if !ok {
			st = &sigState{deficit: make(map[int]float64)}
			states[key] = st
		}
		best := -1
		for _, c := range cover {
			st.deficit[c] += weights[c] / localSum
			if best == -1 || st.deficit[c] > st.deficit[best] ||
				(st.deficit[c] == st.deficit[best] && c < best) {
				best = c
			}
		}
		st.deficit[best]--
		owners[ui] = best
	}
	return owners, nil
}

func sigKey(cover []int) string {
	// Coverage sets are short (<= #cameras); a simple byte encoding is
	// fine and avoids sorting copies (callers pass sorted sets, but the
	// key must not depend on order, so sort defensively if needed).
	buf := make([]byte, 0, len(cover)*2)
	sorted := true
	for i := 1; i < len(cover); i++ {
		if cover[i] < cover[i-1] {
			sorted = false
			break
		}
	}
	cc := cover
	if !sorted {
		cc = append([]int(nil), cover...)
		insertionSort(cc)
	}
	for _, c := range cc {
		buf = append(buf, byte(c>>8), byte(c))
	}
	return string(buf)
}

func insertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// StaticPartition computes the SP baseline assignment for an instance:
// each object goes to the camera its coverage signature's weighted split
// dictates, regardless of current load. It returns a Solution so SP
// plugs into the same evaluation path as BALB.
func StaticPartition(cams []CameraSpec, in *Instance) (*Solution, error) {
	var w Solver
	if err := w.prepare(cams, in); err != nil {
		return nil, err
	}
	weights, err := CapacityWeights(cams)
	if err != nil {
		return nil, err
	}
	units := make([][]int, in.Len())
	for j := range units {
		for _, c := range in.Cameras(j) {
			units[j] = append(units[j], int(c))
		}
	}
	owners, err := WeightedPartition(units, weights)
	if err != nil {
		return nil, err
	}
	return w.priced(cams, in, owners)
}
