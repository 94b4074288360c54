// Package profile models the heterogeneous edge devices of the paper's
// testbed (NVIDIA Jetson Nano, TX2, and Xavier) as detector latency
// profiles. A profile answers the three questions the BALB scheduler asks
// offline:
//
//   - t_i^full: how long does a full-frame DNN inspection take?
//   - t_i^s:    how long does a batch of partial regions of size s take
//     (evaluated at the batch limit, per the paper's footnote)?
//   - B_i^s:    how many size-s regions fit in one batch?
//
// The underlying latency curve is a synthetic stand-in for the paper's
// offline YOLO profiling (200 timed runs per configuration on each
// board): execution time grows only slightly with batch size up to the
// batch limit, then inflects upward — exactly the regime the paper
// exploits. Relative speeds between device classes follow published
// Jetson inference benchmarks (Nano ≈ 5x slower than Xavier, TX2 ≈ 2.5x).
package profile

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// DeviceClass identifies a hardware class in the testbed.
type DeviceClass int

// Device classes, ordered from weakest to strongest.
const (
	JetsonNano DeviceClass = iota
	JetsonTX2
	JetsonXavier
)

// String implements fmt.Stringer.
func (d DeviceClass) String() string {
	switch d {
	case JetsonNano:
		return "nano"
	case JetsonTX2:
		return "tx2"
	case JetsonXavier:
		return "xavier"
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// deviceParams are the ground-truth latency parameters for each class.
// baseLatency is the single-image inference time for a 64px region;
// sizeExp controls how latency scales with input side length (inference
// cost grows roughly with pixel count but sub-quadratically because of
// fixed per-launch overheads); batchSlope is the marginal cost per extra
// image within the batch limit; inflectSlope the much steeper cost past
// it.
type deviceParams struct {
	baseLatency  time.Duration
	sizeExp      float64
	batchSlope   float64
	inflectSlope float64
	batchLimits  map[int]int
	fullFrame    time.Duration
}

// classParams is the ground-truth table, indexed by DeviceClass. It is
// read on every simulated batch launch, so it is built once, here.
var classParams = [...]deviceParams{
	JetsonNano: {
		baseLatency:  15 * time.Millisecond,
		sizeExp:      0.92,
		batchSlope:   0.12,
		inflectSlope: 1.0,
		batchLimits:  map[int]int{64: 4, 128: 2, 256: 1, 512: 1},
		fullFrame:    470 * time.Millisecond,
	},
	JetsonTX2: {
		baseLatency:  8 * time.Millisecond,
		sizeExp:      0.88,
		batchSlope:   0.08,
		inflectSlope: 0.85,
		batchLimits:  map[int]int{64: 8, 128: 4, 256: 2, 512: 1},
		fullFrame:    240 * time.Millisecond,
	},
	JetsonXavier: {
		baseLatency:  4 * time.Millisecond,
		sizeExp:      0.80,
		batchSlope:   0.06,
		inflectSlope: 0.75,
		batchLimits:  map[int]int{64: 16, 128: 8, 256: 4, 512: 2},
		fullFrame:    95 * time.Millisecond,
	},
}

// paramsFor returns the class's parameters; anything unknown degrades to
// the weakest class. The result is shared and read-only.
func paramsFor(class DeviceClass) *deviceParams {
	if class < 0 || int(class) >= len(classParams) {
		class = JetsonNano
	}
	return &classParams[class]
}

// TrueBatchLatency returns the ground-truth execution latency of a batch
// of n regions with side length size on the given device class. It is the
// quantity the simulated GPU "hardware" charges; the Profiler below
// estimates it with measurement noise, as offline profiling would.
func TrueBatchLatency(class DeviceClass, size, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	p := paramsFor(class)
	single := float64(p.baseLatency) * math.Pow(float64(size)/64.0, p.sizeExp)
	limit := p.batchLimits[size]
	if limit == 0 {
		limit = 1
	}
	within := n
	if within > limit {
		within = limit
	}
	lat := single * (1 + p.batchSlope*float64(within-1))
	if n > limit {
		// Past the inflection point batching stops being nearly free.
		lat += single * p.inflectSlope * float64(n-limit)
	}
	return time.Duration(lat)
}

// TrueFullFrameLatency returns the ground-truth full-frame inspection
// latency for the device class.
func TrueFullFrameLatency(class DeviceClass) time.Duration {
	return paramsFor(class).fullFrame
}

// Profile is the offline-measured latency profile the scheduler consumes:
// t_i^full, t_i^s, and B_i^s for every quantized target size.
type Profile struct {
	// Class is the device class the profile was measured on.
	Class DeviceClass
	// Sizes lists the quantized target sizes, ascending.
	Sizes []int
	// FullFrame is t_i^full, the full-frame inspection latency.
	FullFrame time.Duration
	// BatchLimit maps size -> B_i^s, the max regions per batch.
	BatchLimit map[int]int
	// BatchLatency maps size -> t_i^s, the latency of a batch executed at
	// the batch limit (the paper's operating point).
	BatchLatency map[int]time.Duration
}

// Validate checks internal consistency; a zero Profile is invalid.
func (p *Profile) Validate() error {
	if len(p.Sizes) == 0 {
		return fmt.Errorf("profile: no sizes")
	}
	if p.FullFrame <= 0 {
		return fmt.Errorf("profile: non-positive full-frame latency %v", p.FullFrame)
	}
	for i, s := range p.Sizes {
		if i > 0 && s <= p.Sizes[i-1] {
			return fmt.Errorf("profile: sizes not strictly ascending at %d", i)
		}
		if p.BatchLimit[s] <= 0 {
			return fmt.Errorf("profile: size %d has batch limit %d", s, p.BatchLimit[s])
		}
		if p.BatchLatency[s] <= 0 {
			return fmt.Errorf("profile: size %d has latency %v", s, p.BatchLatency[s])
		}
	}
	return nil
}

// BatchLimitFor returns B_i^s for a size, or an error for an unknown size.
func (p *Profile) BatchLimitFor(size int) (int, error) {
	b, ok := p.BatchLimit[size]
	if !ok {
		return 0, fmt.Errorf("profile: no batch limit for size %d on %s", size, p.Class)
	}
	return b, nil
}

// Clone returns a deep copy, so callers can perturb profiles (e.g. for
// heterogeneity sweeps) without aliasing.
func (p *Profile) Clone() *Profile {
	out := &Profile{
		Class:        p.Class,
		Sizes:        append([]int(nil), p.Sizes...),
		FullFrame:    p.FullFrame,
		BatchLimit:   make(map[int]int, len(p.BatchLimit)),
		BatchLatency: make(map[int]time.Duration, len(p.BatchLatency)),
	}
	for k, v := range p.BatchLimit {
		out.BatchLimit[k] = v
	}
	for k, v := range p.BatchLatency {
		out.BatchLatency[k] = v
	}
	return out
}

// MaxSweepBatch bounds the profiler's batch-size sweep: latencies are
// measured at n = 1..MaxSweepBatch per size, enough to see past every
// plausible inflection point on the supported hardware.
const MaxSweepBatch = 32

// inflectFrac is the knee-detection threshold: the batch limit is the
// largest n whose marginal latency (over n-1) stays below this fraction
// of the single-image latency. It sits between the in-limit marginal
// slope (6–12% of a single image across the Jetson classes) and the
// post-inflection slope (75–100%), with more than ten standard
// deviations of margin to either side at the default measurement noise,
// so a 200-run average never mis-places the knee.
const inflectFrac = 0.4

// inflectionLimit finds the batch-limit knee of a measured latency
// curve: lat[n-1] is the (possibly noisy) latency of an n-image batch,
// and the limit is the last batch size before the marginal cost of one
// more image inflects. This is how batch limits are *derived* from the
// profiler's sweep — there is no static per-class limit table on the
// scheduler side of the fence; the paper's offline profiling captures
// the post-limit inflation, and the knee of that curve is the limit.
func inflectionLimit(lat []time.Duration) int {
	if len(lat) == 0 {
		return 1
	}
	threshold := float64(lat[0]) * inflectFrac
	limit := 1
	for n := 2; n <= len(lat); n++ {
		if float64(lat[n-1]-lat[n-2]) > threshold {
			break
		}
		limit = n
	}
	return limit
}

// Profiler estimates a device's latency profile by repeated timed runs,
// mirroring the paper's offline stage ("we profile the YOLO inference
// time with 200 runs on each Jetson board"). For every size it sweeps
// batch sizes 1..MaxSweepBatch and derives the batch limit from the
// measured latency inflection point (inflectionLimit) — the profile's
// limits are a property of the measured curve, not a constant table.
type Profiler struct {
	// Runs is the number of timed executions per configuration
	// (default 200).
	Runs int
	// NoiseFrac is the relative standard deviation of a single timing
	// measurement (default 0.05).
	NoiseFrac float64
	// Seed makes the measurement noise reproducible.
	Seed int64
}

// Measure produces the profile for a device class over the given sizes
// (nil means the standard set {64, 128, 256, 512}): a full batch-size
// sweep per size, with the batch limit read off the knee of the measured
// curve and the operating-point latency taken at that limit.
func (pr *Profiler) Measure(class DeviceClass, sizes []int) (*Profile, error) {
	if len(sizes) == 0 {
		sizes = []int{64, 128, 256, 512}
	}
	runs := pr.Runs
	if runs <= 0 {
		runs = 200
	}
	noise := pr.NoiseFrac
	if noise <= 0 {
		noise = 0.05
	}
	rng := rand.New(rand.NewSource(pr.Seed*2654435761 + int64(class) + 1))

	p := &Profile{
		Class:        class,
		Sizes:        append([]int(nil), sizes...),
		BatchLimit:   make(map[int]int, len(sizes)),
		BatchLatency: make(map[int]time.Duration, len(sizes)),
	}
	p.FullFrame = measured(rng, TrueFullFrameLatency(class), runs, noise)
	curve := make([]time.Duration, MaxSweepBatch)
	for _, s := range sizes {
		for n := 1; n <= MaxSweepBatch; n++ {
			curve[n-1] = measured(rng, TrueBatchLatency(class, s, n), runs, noise)
		}
		limit := inflectionLimit(curve)
		p.BatchLimit[s] = limit
		p.BatchLatency[s] = curve[limit-1]
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("profile: measurement produced invalid profile: %w", err)
	}
	return p, nil
}

// measured simulates averaging n noisy timing measurements of a true
// latency value.
func measured(rng *rand.Rand, truth time.Duration, runs int, noise float64) time.Duration {
	var sum float64
	for i := 0; i < runs; i++ {
		sum += float64(truth) * (1 + rng.NormFloat64()*noise)
	}
	mean := sum / float64(runs)
	if mean < 1 {
		mean = 1
	}
	return time.Duration(mean)
}

// Derived returns the noiseless profile for a device class: the exact
// ground-truth latency curve, with the batch limits derived from its
// inflection points by the same knee detection the noisy Profiler uses.
// Convenient for tests and deterministic experiments.
func Derived(class DeviceClass) *Profile {
	sizes := []int{64, 128, 256, 512}
	p := &Profile{
		Class:        class,
		Sizes:        sizes,
		FullFrame:    TrueFullFrameLatency(class),
		BatchLimit:   make(map[int]int, len(sizes)),
		BatchLatency: make(map[int]time.Duration, len(sizes)),
	}
	curve := make([]time.Duration, MaxSweepBatch)
	for _, s := range sizes {
		for n := 1; n <= MaxSweepBatch; n++ {
			curve[n-1] = TrueBatchLatency(class, s, n)
		}
		limit := inflectionLimit(curve)
		p.BatchLimit[s] = limit
		p.BatchLatency[s] = curve[limit-1]
	}
	return p
}
