// Package adapt closes the configuration loop the paper leaves open: a
// deterministic controller that watches a sliding window of modeled
// per-frame latency, ingest queue depth, and camera-health state, and
// walks a graceful-degradation ladder to keep frame latency inside an
// SLO when offered load or fault pressure exceeds capacity.
//
// The ladder has three actuators, one per rung family:
//
//  1. batch limits come from the profiler's measured latency inflection
//     point (profile.Derived / Profiler.Measure) rather than static
//     constants, so the controller's latency model tracks the hardware;
//  2. the key-frame association interval stretches under load
//     (1<<level) and shrinks back when association drift — orphaned
//     objects and ownership reassignments — says tracking is decaying;
//  3. per-object inspection input sizes are capped, 512 → 256 → 128 → 64,
//     so regular-frame inspection work shrinks with each rung.
//
// Hysteresis and a cooldown keep the ladder from flapping: the
// controller degrades when the window-high latency exceeds the SLO (or
// queues back up, or a camera dies) and recovers only when it falls
// below LowerFrac·SLO with queues drained, with at least Cooldown ticks
// between any two level changes.
//
// Determinism contract (docs/ARCHITECTURE.md): the controller is a pure
// function of the observed sample window and the policy (including its
// seed) — wall-clock time never influences a decision, so the same
// trace and policy produce the same level sequence at every worker
// count, and recorded runs replay byte-identically.
package adapt

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Standard ladder tables. Level 0 is the undegraded baseline; rungs
// deepen monotonically. MaxLevel clamps how deep a controller may walk.
var sizeCaps = []int{0, 256, 128, 64}

// StretchFor returns the key-frame interval multiplier at a ladder
// level: 1, 2, 4, 8, ... — the association interval stretches
// geometrically so each rung roughly halves key-frame (full-frame
// inspection) density.
func StretchFor(level int) int {
	if level < 0 {
		return 1
	}
	if level > 6 { // 64x: far past any configured MaxLevel
		level = 6
	}
	return 1 << level
}

// KeyFrame is the key-frame cadence, the one rule every host follows
// (pipeline.Engine, node.Runtime): frame fi is a key frame when it lies
// on the horizon grid and its horizon index is a multiple of stretch.
// Stretches are powers of two, so the grids nest — every key frame at
// stretch 2s is one at stretch s — and a host that missed a level change
// is back on its peers' grid at the next key frame of the coarser of the
// two. Stretch 1 (no controller, or level 0) is the plain fi%horizon == 0.
func KeyFrame(fi, horizon, stretch int) bool {
	return fi%horizon == 0 && (fi/horizon)%stretch == 0
}

// SizeCapFor returns the per-object inspection size cap at a ladder
// level: 0 means uncapped; deeper rungs cap the quantized input size at
// 256, 128, and finally 64 pixels.
func SizeCapFor(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(sizeCaps) {
		return sizeCaps[len(sizeCaps)-1]
	}
	return sizeCaps[level]
}

// Policy configures a Controller. The zero value is a disabled
// controller (SLO == 0); NewController fills the remaining defaults.
type Policy struct {
	// SLO is the modeled per-frame latency objective. 0 disables the
	// controller entirely: it observes nothing and stays at level 0.
	SLO time.Duration
	// Window is the sliding-window length in frames over which latency,
	// queue depth, and drift are aggregated (default 40).
	Window int
	// LowerFrac positions the recovery edge of the hysteresis band: the
	// controller steps back up only when the window-high latency is
	// below LowerFrac·SLO (default 0.7).
	LowerFrac float64
	// Cooldown is the minimum number of ticks between two level
	// changes, in either direction (default 2).
	Cooldown int
	// MaxLevel is the deepest ladder rung (default 3).
	MaxLevel int
	// QueueHigh is the mean ingest queue depth that forces degradation;
	// recovery additionally requires the mean to drain below half of
	// it. 0 (the default) ignores queue depth.
	QueueHigh int
	// DriftHigh is the window sum of association-drift events (orphaned
	// objects + reassignments) past which the key-frame stretch is
	// halved so association re-anchors sooner. 0 (the default) ignores
	// drift.
	DriftHigh int
	// Seed feeds any stochastic policy extension. The built-in ladder
	// is deterministic without it, but the seed is part of the recorded
	// spec so a replayed run reconstructs an identical controller.
	Seed int64
}

// Enabled reports whether the policy actually engages the controller.
func (p Policy) Enabled() bool { return p.SLO > 0 }

func (p Policy) withDefaults() Policy {
	if p.Window <= 0 {
		p.Window = 40
	}
	if p.LowerFrac <= 0 || p.LowerFrac >= 1 {
		p.LowerFrac = 0.7
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2
	}
	if p.MaxLevel <= 0 {
		p.MaxLevel = 3
	}
	if p.QueueHigh < 0 {
		p.QueueHigh = 0
	}
	if p.DriftHigh < 0 {
		p.DriftHigh = 0
	}
	return p
}

// Spec serializes the policy in the -adapt flag syntax, canonical key
// order, so a run's manifest can reconstruct the exact controller.
func (p Policy) Spec() string {
	if !p.Enabled() {
		return ""
	}
	p = p.withDefaults()
	parts := []string{
		"slo=" + p.SLO.String(),
		"window=" + strconv.Itoa(p.Window),
		"lower=" + strconv.FormatFloat(p.LowerFrac, 'g', -1, 64),
		"cooldown=" + strconv.Itoa(p.Cooldown),
		"max=" + strconv.Itoa(p.MaxLevel),
		"queue=" + strconv.Itoa(p.QueueHigh),
		"drift=" + strconv.Itoa(p.DriftHigh),
	}
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(p.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the -adapt flag syntax: comma-separated key=value
// pairs. Keys: slo (duration, required to enable), window, lower,
// cooldown, max, queue, drift, seed:
//
//	slo=500ms,window=40,lower=0.7,cooldown=2,max=3,queue=64,drift=8
//
// An empty spec returns a disabled policy.
func ParseSpec(spec string) (Policy, error) {
	var p Policy
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("adapt: bad field %q (want key=value)", field)
		}
		var err error
		switch key {
		case "slo":
			p.SLO, err = time.ParseDuration(val)
			if err == nil && p.SLO <= 0 {
				err = fmt.Errorf("slo %v must be positive", p.SLO)
			}
		case "window":
			p.Window, err = parsePositive(val)
		case "lower":
			p.LowerFrac, err = strconv.ParseFloat(val, 64)
			if err == nil && (p.LowerFrac <= 0 || p.LowerFrac >= 1) {
				err = fmt.Errorf("lower %v out of (0,1)", p.LowerFrac)
			}
		case "cooldown":
			p.Cooldown, err = parsePositive(val)
		case "max":
			p.MaxLevel, err = parsePositive(val)
		case "queue":
			p.QueueHigh, err = strconv.Atoi(val)
		case "drift":
			p.DriftHigh, err = strconv.Atoi(val)
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return p, fmt.Errorf("adapt: unknown key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("adapt: field %q: %w", field, err)
		}
	}
	if !p.Enabled() {
		return p, fmt.Errorf("adapt: spec %q sets no slo", spec)
	}
	return p, nil
}

func parsePositive(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("%d must be positive", n)
	}
	return n, nil
}

// Sample is one frame's worth of controller input, all modeled
// quantities: the frame's modeled latency, the ingest queue depth
// behind it (0 for trace sources), the number of cameras currently
// marked dead, and the association-drift events (orphaned objects +
// reassignments) charged on this frame.
type Sample struct {
	Latency     time.Duration
	QueueDepth  int
	DeadCameras int
	Drift       int
}

// Controller walks the degradation ladder. Observe feeds it one sample
// per frame; Tick, called between association horizons, re-evaluates
// the window and moves at most one rung. Not safe for concurrent use —
// the engine and scheduler drive it from their round loops.
type Controller struct {
	pol Policy

	win  []Sample
	n    int // samples in window (≤ len(win))
	next int // ring write index

	level   int
	cool    int // ticks until another change is allowed
	ticks   int
	stretch int

	transitions   int
	sloViolations int
}

// NewController builds a controller for the policy. A disabled policy
// (SLO == 0) yields a controller that is inert but safe to drive.
func NewController(pol Policy) *Controller {
	pol = pol.withDefaults()
	return &Controller{
		pol:     pol,
		win:     make([]Sample, pol.Window),
		stretch: 1,
	}
}

// Observe records one frame's sample and charges an SLO violation if
// the frame's modeled latency exceeded the objective.
func (c *Controller) Observe(s Sample) {
	if !c.pol.Enabled() {
		return
	}
	c.win[c.next] = s
	c.next = (c.next + 1) % len(c.win)
	if c.n < len(c.win) {
		c.n++
	}
	if s.Latency > c.pol.SLO {
		c.sloViolations++
	}
}

// window aggregates the current sample window: the high-water latency,
// mean queue depth, drift-event sum, and the most recent dead-camera
// count.
func (c *Controller) window() (hi time.Duration, queueMean float64, drift, dead int) {
	if c.n == 0 {
		return 0, 0, 0, 0
	}
	var queueSum int
	for i := 0; i < c.n; i++ {
		s := c.win[i]
		if s.Latency > hi {
			hi = s.Latency
		}
		queueSum += s.QueueDepth
		drift += s.Drift
	}
	last := (c.next - 1 + len(c.win)) % len(c.win)
	dead = c.win[last].DeadCameras
	return hi, float64(queueSum) / float64(c.n), drift, dead
}

// Tick re-evaluates the window and moves the ladder at most one rung,
// returning the level now in force and whether it changed. The engine
// calls it once per association horizon, before the key frame applies
// the level's stretch and size cap.
func (c *Controller) Tick() (level int, changed bool) {
	c.ticks++
	if c.cool > 0 {
		c.cool--
	}
	if !c.pol.Enabled() || c.n == 0 {
		return c.level, false
	}
	hi, queueMean, drift, dead := c.window()

	overQueue := c.pol.QueueHigh > 0 && queueMean > float64(c.pol.QueueHigh)
	degrade := hi > c.pol.SLO || overQueue || (dead > 0 && c.level < 1)
	lowLatency := hi < time.Duration(float64(c.pol.SLO)*c.pol.LowerFrac)
	queueDrained := c.pol.QueueHigh == 0 || queueMean <= float64(c.pol.QueueHigh)/2
	// A dead camera holds the ladder at rung ≥ 1 (inspection-size
	// relief for the fleet absorbing its objects) until it recovers.
	recover := lowLatency && queueDrained && (c.level > 1 || dead == 0)

	if c.cool == 0 {
		switch {
		case degrade && c.level < c.pol.MaxLevel:
			c.level++
			changed = true
		case !degrade && recover && c.level > 0:
			c.level--
			changed = true
		}
		if changed {
			c.cool = c.pol.Cooldown
			c.transitions++
		}
	}

	// The load rung sets the stretch; association drift shrinks it so
	// key-frame re-association happens sooner when tracking decays.
	st := StretchFor(c.level)
	if c.pol.DriftHigh > 0 && drift > c.pol.DriftHigh && st > 1 {
		st >>= 1
	}
	c.stretch = st
	return c.level, changed
}

// Level returns the rung currently in force.
func (c *Controller) Level() int { return c.level }

// Stretch returns the key-frame interval multiplier currently in force
// (computed at the last Tick; 1 at level 0 or before any tick).
func (c *Controller) Stretch() int { return c.stretch }

// SizeCap returns the per-object inspection size cap currently in
// force (0 = uncapped).
func (c *Controller) SizeCap() int { return SizeCapFor(c.level) }

// Transitions returns the total number of level changes so far.
func (c *Controller) Transitions() int { return c.transitions }

// SLOViolations returns the number of observed frames whose modeled
// latency exceeded the SLO.
func (c *Controller) SLOViolations() int { return c.sloViolations }
