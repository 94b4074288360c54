// Package gpu models the task-batching execution of partial-frame DNN
// inspections on a camera's onboard GPU. Only regions with the same
// quantized spatial size can share a batch; a camera's per-frame latency
// is the sum of its batches' execution latencies, executed sequentially
// without preemption (Definition 1 in the paper).
//
// Two latency views coexist, mirroring the paper:
//
//   - the *scheduler's* view charges every batch the profiled latency
//     t_i^s measured at the batch limit (the paper's conservative
//     operating point); BALB prices with it (Profile.BatchLatency, in
//     internal/core);
//   - the *hardware's* view charges the true latency curve at the actual
//     fill level, which is what the simulated executor reports.
package gpu

import (
	"fmt"
	"slices"
	"time"

	"mvs/internal/profile"
)

// Task is one partial-region inspection request: find object ObjectID in
// a region whose quantized side length is Size pixels.
type Task struct {
	// ObjectID identifies the tracked object this region belongs to.
	ObjectID int
	// Size is the quantized side length of the region in pixels.
	Size int
}

// Batch is a set of same-size tasks executed in one GPU launch.
type Batch struct {
	// Size is the shared quantized side length of all tasks.
	Size int
	// Tasks are the regions in the batch, at most the device's batch
	// limit for Size.
	Tasks []Task
}

// FormBatches greedily packs tasks into the minimum number of batches:
// tasks are grouped by size and each group is split into ceil(n/B) full
// batches. The paper notes this greedy packing is optimal because each
// target size batches independently. Batches are ordered by ascending
// size, then formation order, giving a deterministic schedule. The
// caller owns the result; tasks is not retained.
func FormBatches(tasks []Task, prof *profile.Profile) ([]Batch, error) {
	var b batcher
	return b.form(tasks, prof)
}

// batcher is FormBatches' working storage. A zero batcher allocates what
// it needs; one that is kept (Executor) reuses it frame after frame, and
// the batches it returns then point into its buffers.
type batcher struct {
	sizes   []int   // distinct task sizes, ascending
	grouped []Task  // the tasks reordered by size, arrival order within a size
	batches []Batch // sub-slices of grouped
}

func (b *batcher) form(tasks []Task, prof *profile.Profile) ([]Batch, error) {
	b.sizes = b.sizes[:0]
	for _, t := range tasks {
		if _, err := prof.BatchLimitFor(t.Size); err != nil {
			return nil, fmt.Errorf("gpu: task for object %d: %w", t.ObjectID, err)
		}
		if !slices.Contains(b.sizes, t.Size) {
			b.sizes = append(b.sizes, t.Size)
		}
	}
	slices.Sort(b.sizes)

	// Sized up front, so grouped never reallocates below: batches keep
	// pointing into it.
	b.grouped = slices.Grow(b.grouped[:0], len(tasks))
	b.batches = b.batches[:0]
	for _, s := range b.sizes {
		limit, err := prof.BatchLimitFor(s)
		if err != nil {
			return nil, err
		}
		first := len(b.grouped)
		for _, t := range tasks {
			if t.Size == s {
				b.grouped = append(b.grouped, t)
			}
		}
		group := b.grouped[first:]
		for start := 0; start < len(group); start += limit {
			end := min(start+limit, len(group))
			b.batches = append(b.batches, Batch{Size: s, Tasks: group[start:end:end]})
		}
	}
	return b.batches, nil
}

// batchOccupancy returns the mean fill fraction of formed batches: each
// batch contributes len(tasks)/limit(size), averaged over batches. 1.0
// means every launch ran at the device's batch limit; 0 means no batches
// ran. This is the live "batch occupancy" figure the observability layer
// exports per camera.
func batchOccupancy(batches []Batch, prof *profile.Profile) float64 {
	if len(batches) == 0 {
		return 0
	}
	var sum float64
	for _, b := range batches {
		limit, err := prof.BatchLimitFor(b.Size)
		if err != nil || limit <= 0 {
			continue // unprofiled size: FormBatches would have rejected it
		}
		sum += float64(len(b.Tasks)) / float64(limit)
	}
	return sum / float64(len(batches))
}

// FrameResult reports the execution of one frame's batches on the
// simulated device.
type FrameResult struct {
	// Batches lists the executed batches in order. They live in the
	// executor's buffers: valid until its next RunFrame.
	Batches []Batch
	// Latency is the true (hardware-view) total execution latency.
	Latency time.Duration
	// Images is the total number of regions inspected.
	Images int
}

// Executor simulates one camera's GPU. The zero value is unusable; create
// with NewExecutor. Executor is not safe for concurrent use — each camera
// owns one and frames are strictly sequential, matching the no-preemption
// execution model.
type Executor struct {
	prof    *profile.Profile
	stats   Stats
	batcher batcher
}

// Stats accumulates executor counters across frames.
type Stats struct {
	// Frames is the number of frames run, partial and full.
	Frames int
	// Batches is the total batches launched.
	Batches int
	// Images is the total regions inspected.
	Images int
	// BusyTime is the cumulative true execution latency.
	BusyTime time.Duration
	// FullFrames is the number of full-frame inspections executed.
	FullFrames int
}

// NewExecutor builds an executor over a validated profile.
func NewExecutor(prof *profile.Profile) (*Executor, error) {
	if prof == nil {
		return nil, fmt.Errorf("gpu: nil profile")
	}
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	return &Executor{prof: prof}, nil
}

// RunFrame batches and "executes" the given partial-region tasks,
// returning the formed batches and their true latency. The batches are
// formed in the executor's own buffers (see FrameResult.Batches); tasks
// is copied, not retained.
func (e *Executor) RunFrame(tasks []Task) (FrameResult, error) {
	batches, err := e.batcher.form(tasks, e.prof)
	if err != nil {
		return FrameResult{}, err
	}
	res := FrameResult{Batches: batches}
	for _, b := range batches {
		res.Latency += profile.TrueBatchLatency(e.prof.Class, b.Size, len(b.Tasks))
		res.Images += len(b.Tasks)
	}
	e.stats.Frames++
	e.stats.Batches += len(batches)
	e.stats.Images += res.Images
	e.stats.BusyTime += res.Latency
	return res, nil
}

// Cost is what one camera-frame's inspection costs: the modelled
// latency (Definition 1: the sum of the frame's batch latencies) and,
// for partial-region tasks, the batches launched, the regions inspected
// and the batches' mean fill fraction. A full-frame inspection sets
// Latency only.
type Cost struct {
	Latency   time.Duration
	Batches   int
	Images    int
	Occupancy float64
}

// Price runs one camera-frame on the executor — a full-frame inspection
// when full, else tasks batched as RunFrame batches them — and returns
// its cost. It is the one pricing of a camera-frame: the camera kernel,
// the single-tenant serve passthrough and the engine's test executors
// all go through it.
func (e *Executor) Price(full bool, tasks []Task) (Cost, error) {
	if full {
		return Cost{Latency: e.runFullFrame()}, nil
	}
	res, err := e.RunFrame(tasks)
	if err != nil {
		return Cost{}, err
	}
	return Cost{
		Latency:   res.Latency,
		Batches:   len(res.Batches),
		Images:    res.Images,
		Occupancy: batchOccupancy(res.Batches, e.prof),
	}, nil
}

// runFullFrame "executes" a full-frame inspection and returns its
// latency.
func (e *Executor) runFullFrame() time.Duration {
	lat := profile.TrueFullFrameLatency(e.prof.Class)
	e.stats.Frames++
	e.stats.FullFrames++
	e.stats.BusyTime += lat
	return lat
}

// Stats returns a copy of the accumulated counters.
func (e *Executor) Stats() Stats { return e.stats }
