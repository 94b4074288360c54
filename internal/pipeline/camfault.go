package pipeline

// The data-plane failure model: deterministic camera-level faults —
// hard failure windows, randomly arriving outages with a recovery boot
// delay, and single-frame drops — precomputed from a seed so every run
// replays the identical schedule.
//
// Where internal/faults breaks the *network* (connections, dials), a
// FaultSchedule breaks the *sensor*: a camera that is down produces no
// observations and runs no inspection. The engine injects one through
// Config.Fault.CamFaults, and its healthTracker is the health model both
// BALB stages consult: a camera silent for K consecutive frames is
// marked unhealthy, the central stage reschedules over the healthy
// subset, and the distributed stage's ownership rules skip it
// (docs/FAULTS.md, "Data-plane failure model").
//
// Determinism: every schedule is generated up front by GenerateFaults,
// one PRNG per camera seeded from (FaultSpec.Seed, camera index), so the
// schedule is a pure function of the spec — independent of worker
// counts, wall-clock time, and query order. A FaultSchedule is immutable
// after GenerateFaults and safe for concurrent readers.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// FaultWindow is a half-open frame interval [Start, End) during which a
// camera is down.
type FaultWindow struct {
	Start, End int
}

// FaultSpec describes a fault schedule. The zero value injects nothing.
type FaultSpec struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// Rate is the target long-run fraction of camera-frames lost to
	// randomly arriving outages, in [0, 1). Together with MeanOutage it
	// fixes the up-state hazard: outages arrive so that the stationary
	// downtime fraction matches Rate.
	Rate float64
	// MeanOutage is the mean outage length in frames (geometric;
	// default 20). Small values give flapping cameras, large values
	// sustained failures.
	MeanOutage int
	// BootDelay extends every outage by a fixed recovery boot time in
	// frames — a restarted camera is not instantly useful.
	BootDelay int
	// DropRate is the per-frame probability of an isolated single-frame
	// glitch (the frame is lost, the camera stays up), in [0, 1].
	DropRate float64
	// Outages adds explicit per-camera windows (camera index -> down
	// intervals) on top of the generated schedule — for scripted hard
	// failures and flapping scenarios in tests and flags.
	Outages map[int][]FaultWindow
}

// ParseFaultSpec parses the -cam-faults flag syntax: comma-separated
// key=value pairs. Keys: seed, rate, mean, boot, drop, down. Explicit
// windows use down=<cam>:<start>-<end>, several joined by '+':
//
//	seed=7,rate=0.1,mean=20,boot=3,drop=0.01,down=1:100-200+3:50-80
func ParseFaultSpec(spec string) (FaultSpec, error) {
	var cfg FaultSpec
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return cfg, fmt.Errorf("cam faults: bad field %q (want key=value)", field)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			cfg.Rate, err = parseRate(val)
		case "mean":
			cfg.MeanOutage, err = strconv.Atoi(val)
		case "boot":
			cfg.BootDelay, err = strconv.Atoi(val)
		case "drop":
			cfg.DropRate, err = parseRate(val)
		case "down":
			err = parseDown(val, &cfg)
		default:
			return cfg, fmt.Errorf("cam faults: unknown key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("cam faults: field %q: %w", field, err)
		}
	}
	return cfg, nil
}

func parseRate(val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("rate %v out of [0,1]", r)
	}
	return r, nil
}

func parseDown(val string, cfg *FaultSpec) error {
	for _, w := range strings.Split(val, "+") {
		camStr, rangeStr, ok := strings.Cut(w, ":")
		if !ok {
			return fmt.Errorf("window %q (want cam:start-end)", w)
		}
		cam, err := strconv.Atoi(camStr)
		if err != nil {
			return err
		}
		lo, hi, ok := strings.Cut(rangeStr, "-")
		if !ok {
			return fmt.Errorf("window %q (want cam:start-end)", w)
		}
		start, err := strconv.Atoi(lo)
		if err != nil {
			return err
		}
		end, err := strconv.Atoi(hi)
		if err != nil {
			return err
		}
		if start < 0 || end <= start {
			return fmt.Errorf("window %q is empty or negative", w)
		}
		if cfg.Outages == nil {
			cfg.Outages = make(map[int][]FaultWindow)
		}
		cfg.Outages[cam] = append(cfg.Outages[cam], FaultWindow{Start: start, End: end})
	}
	return nil
}

// FaultSchedule is a precomputed fault schedule: for every (camera,
// frame), whether the camera is down. Immutable; safe for concurrent
// readers.
type FaultSchedule struct {
	down       [][]bool
	downFrames int
}

// ParseFaults parses a -cam-faults spec (ParseFaultSpec) and expands it
// for numCams cameras over numFrames frames (GenerateFaults). An empty
// spec is no schedule: it returns (nil, nil).
func ParseFaults(spec string, numCams, numFrames int) (*FaultSchedule, error) {
	if spec == "" {
		return nil, nil
	}
	cfg, err := ParseFaultSpec(spec)
	if err != nil {
		return nil, err
	}
	return GenerateFaults(cfg, numCams, numFrames)
}

// GenerateFaults expands a FaultSpec into the schedule for numCams
// cameras over numFrames frames. The same (cfg, numCams, numFrames)
// always yields the identical schedule.
func GenerateFaults(cfg FaultSpec, numCams, numFrames int) (*FaultSchedule, error) {
	if numCams <= 0 || numFrames <= 0 {
		return nil, fmt.Errorf("cam faults: need positive cameras (%d) and frames (%d)", numCams, numFrames)
	}
	if cfg.Rate < 0 || cfg.Rate >= 1 {
		if cfg.Rate != 0 {
			return nil, fmt.Errorf("cam faults: rate %v out of [0,1)", cfg.Rate)
		}
	}
	if cfg.DropRate < 0 || cfg.DropRate > 1 {
		return nil, fmt.Errorf("cam faults: drop rate %v out of [0,1]", cfg.DropRate)
	}
	mean := cfg.MeanOutage
	if mean <= 0 {
		mean = 20
	}
	boot := cfg.BootDelay
	if boot < 0 {
		boot = 0
	}
	for cam := range cfg.Outages {
		if cam < 0 || cam >= numCams {
			return nil, fmt.Errorf("cam faults: explicit window for camera %d out of range [0,%d)", cam, numCams)
		}
	}

	// Up-state hazard p so the two-state chain's stationary downtime is
	// Rate: downtime = E[down]/(E[up]+E[down]) with E[down] = mean+boot
	// and E[up] = 1/p.
	var hazard float64
	if cfg.Rate > 0 {
		hazard = cfg.Rate / (float64(mean+boot) * (1 - cfg.Rate))
	}

	m := &FaultSchedule{down: make([][]bool, numCams)}
	for cam := 0; cam < numCams; cam++ {
		row := make([]bool, numFrames)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(cam)*1_000_003))
		for f := 0; f < numFrames; {
			if hazard > 0 && rng.Float64() < hazard {
				length := sampleOutage(rng, mean, numFrames-f) + boot
				for j := 0; j < length && f+j < numFrames; j++ {
					row[f+j] = true
				}
				f += length
				continue
			}
			if cfg.DropRate > 0 && rng.Float64() < cfg.DropRate {
				row[f] = true
			}
			f++
		}
		for _, w := range cfg.Outages[cam] {
			for f := w.Start; f < w.End && f < numFrames; f++ {
				row[f] = true
			}
		}
		for _, d := range row {
			if d {
				m.downFrames++
			}
		}
		m.down[cam] = row
	}
	return m, nil
}

// sampleOutage draws a geometric outage length with the given mean
// (>= 1 frame), capped at 100x the mean so a pathological draw cannot
// dominate a schedule, and at left, the frames the stream has left. A
// longer outage is clipped to the stream anyway and each camera draws
// from its own generator, so the second cap changes no schedule; it
// keeps a huge mean from costing draws the stream never uses.
func sampleOutage(rng *rand.Rand, mean, left int) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / float64(mean)
	limit := min(100*mean, left)
	length := 1
	for length < limit && rng.Float64() > p {
		length++
	}
	return length
}

// Down reports whether cam is down at frame. Out-of-range queries
// return false (the schedule says nothing about them).
func (m *FaultSchedule) Down(cam, frame int) bool {
	if m == nil || cam < 0 || cam >= len(m.down) {
		return false
	}
	if frame < 0 || frame >= len(m.down[cam]) {
		return false
	}
	return m.down[cam][frame]
}

// NumCameras returns the roster size the schedule was generated for.
func (m *FaultSchedule) NumCameras() int { return len(m.down) }

// NumFrames returns the schedule length in frames.
func (m *FaultSchedule) NumFrames() int {
	if len(m.down) == 0 {
		return 0
	}
	return len(m.down[0])
}

// DownFrames returns the total number of camera-frames the schedule
// marks down.
func (m *FaultSchedule) DownFrames() int { return m.downFrames }

// healthTracker is the camera-health model: a camera silent for K
// consecutive frames is unhealthy (dead) until it produces a frame
// again. K <= 0 disables tracking — every camera always reads healthy.
// The engine observes its cameras in the sequential section between
// frames.
type healthTracker struct {
	k      int
	silent []int
}

// newHealthTracker builds a health tracker for numCams cameras with the
// given silence threshold K.
func newHealthTracker(numCams, k int) *healthTracker {
	return &healthTracker{k: k, silent: make([]int, numCams)}
}

// observe records whether cam produced a frame this tick: produced
// resets the silence counter, silence increments it.
func (t *healthTracker) observe(cam int, produced bool) {
	if cam < 0 || cam >= len(t.silent) {
		return
	}
	if produced {
		t.silent[cam] = 0
	} else {
		t.silent[cam]++
	}
}

// healthy reports whether cam is currently healthy. Unknown cameras and
// disabled trackers (K <= 0) are healthy.
func (t *healthTracker) healthy(cam int) bool {
	if t.k <= 0 || cam < 0 || cam >= len(t.silent) {
		return true
	}
	return t.silent[cam] < t.k
}

// deadMask fills dst (allocating when nil or mis-sized) with the
// per-camera dead flags — the mask shape core.DistributedPolicy.SetDead
// consumes.
func (t *healthTracker) deadMask(dst []bool) []bool {
	if len(dst) != len(t.silent) {
		dst = make([]bool, len(t.silent))
	}
	for cam := range t.silent {
		dst[cam] = !t.healthy(cam)
	}
	return dst
}
