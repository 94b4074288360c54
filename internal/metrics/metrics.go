// Package metrics implements the evaluation quantities the paper
// reports: object recall (Fig. 12), per-frame inference latency on the
// slowest camera (Fig. 13), speedups, overhead breakdowns (Table II),
// and simple descriptive statistics over time series.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// RecallAccumulator computes the paper's object recall: "at every
// timestamp, for each groundtruth object, as long as there is at least
// one camera detects it, then it is counted as a true positive" — the
// denominator being objects visible to at least one camera.
type RecallAccumulator struct {
	tp int
	fn int
}

// Observe records one frame: truth is the set of objects visible to at
// least one camera; detected is the set of objects tracked/detected by at
// least one camera this frame.
func (r *RecallAccumulator) Observe(truth map[int]bool, detected map[int]bool) {
	for id := range truth {
		if detected[id] {
			r.tp++
		} else {
			r.fn++
		}
	}
}

// Recall returns TP / (TP + FN), or 1 when nothing was ever visible.
func (r *RecallAccumulator) Recall() float64 {
	if r.tp+r.fn == 0 {
		return 1
	}
	return float64(r.tp) / float64(r.tp+r.fn)
}

// Counts returns the raw true-positive / false-negative counts.
func (r *RecallAccumulator) Counts() (tp, fn int) { return r.tp, r.fn }

// LatencySeries accumulates a per-frame latency series (one value per
// frame: the slowest camera's inference latency).
type LatencySeries struct {
	values []time.Duration
}

// Add appends one frame's latency.
func (l *LatencySeries) Add(d time.Duration) { l.values = append(l.values, d) }

// Max returns the maximum latency, or 0 when empty.
func (l *LatencySeries) Max() time.Duration {
	var max time.Duration
	for _, v := range l.values {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank, or 0 when empty.
func (l *LatencySeries) Percentile(p float64) (time.Duration, error) {
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %v out of (0,100]", p)
	}
	if len(l.values) == 0 {
		return 0, nil
	}
	sorted := append([]time.Duration(nil), l.values...)
	slices.Sort(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], nil
}

// Speedup returns baseline/improved as a multiplicative factor (e.g.
// full-frame latency over BALB latency), or an error when improved is
// non-positive.
func Speedup(baseline, improved time.Duration) (float64, error) {
	if improved <= 0 {
		return 0, fmt.Errorf("metrics: non-positive improved latency %v", improved)
	}
	return float64(baseline) / float64(improved), nil
}

// The framework components Table II breaks the per-frame overhead into.
// Breakdown and CameraSample know exactly these; another name is a
// programming error and panics.
const (
	Central     = "central"
	Tracking    = "tracking"
	Distributed = "distributed"
	Batching    = "batching"
)

// componentNames lists the components in sorted order; a component's
// position is its slot in Breakdown and CameraSample.
var componentNames = [...]string{Batching, Central, Distributed, Tracking}

func componentSlot(component string) int {
	i := slices.Index(componentNames[:], component)
	if i < 0 {
		panic(fmt.Sprintf("metrics: unknown overhead component %q", component))
	}
	return i
}

// Breakdown accumulates the per-frame overhead of named framework
// components (Table II): for each component, the maximum across cameras
// is recorded per frame, then averaged across frames. It keeps a running
// sum and a frame count per component, so an engine that runs for days
// holds as much as one that ran a frame.
type Breakdown struct {
	slots [len(componentNames)]struct {
		sum     time.Duration // over the frames that observed the component
		frames  int
		current time.Duration // this frame's maximum across cameras; 0 = not observed
	}
}

// NewBreakdown returns an empty breakdown accumulator.
func NewBreakdown() *Breakdown { return &Breakdown{} }

// EndFrame seals the current frame: every component observed this frame
// (with a positive cost) contributes its cross-camera maximum to the
// running mean.
func (b *Breakdown) EndFrame() {
	for i := range b.slots {
		s := &b.slots[i]
		if s.current > 0 {
			s.sum += s.current
			s.frames++
			s.current = 0
		}
	}
}

// CameraSample holds one camera's component observations for a single
// frame: a camera kernel records its share of a frame into its own
// CameraSample, and the host folds the samples into the Breakdown
// afterwards, in camera order, with Absorb. It is a plain value: the
// zero value is empty, and assigning it resets it.
type CameraSample struct {
	durations [len(componentNames)]time.Duration
}

// Observe records one component cost on this camera; repeated
// observations of the same component within the frame keep the maximum.
func (s *CameraSample) Observe(component string, d time.Duration) {
	slot := componentSlot(component)
	if d > s.durations[slot] {
		s.durations[slot] = d
	}
}

// Absorb folds a camera's frame sample into the current frame: the
// per-frame figure of each component keeps the maximum across cameras.
func (b *Breakdown) Absorb(s *CameraSample) {
	if s == nil {
		return
	}
	for slot, d := range s.durations {
		if d > b.slots[slot].current {
			b.slots[slot].current = d
		}
	}
}

// MeanOf returns the mean per-frame overhead of a component, or 0 if it
// was never observed.
func (b *Breakdown) MeanOf(component string) time.Duration {
	i := slices.Index(componentNames[:], component)
	if i < 0 || b.slots[i].frames == 0 {
		return 0
	}
	return b.slots[i].sum / time.Duration(b.slots[i].frames)
}
