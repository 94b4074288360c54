// Package node implements a camera node's runtime for the distributed
// deployment: one camera kernel (internal/camera — the local half of the
// BALB framework: tracking-based slicing, batched partial inspection,
// and the distributed stage) driven by assignments received from the
// central scheduler over the cluster protocol.
//
// The in-process pipeline package hosts the same kernel for evaluation;
// this package is the deployable host. It owns what only a node has: the
// frame loop's body (Step: the key-frame cadence, the reports it returns
// and the assignment or miss it takes back, degrade and rejoin), the
// ownership policy built from the wire, the scheduler's degradation
// rung, the fault counters, and the snapshot stream. It does no I/O and
// reads no clock: the exchange is its shell's (cmd/mvnode).
package node

import (
	"fmt"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/camera"
	"mvs/internal/cluster"
	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/vision"
)

// Runtime is one camera node's state.
type Runtime struct {
	// numCams is the fleet size: every camera index an assignment names
	// is checked against it.
	numCams int
	kernel  *camera.Kernel
	policy  *core.DistributedPolicy
	sink    metrics.Sink
	label   string
	// out is the kernel's frame record, reused every frame.
	out camera.Frame

	horizon int

	// degraded is set from a key frame whose assignment never arrived to
	// the next one whose does: the node keeps inspecting all of its own
	// tracks under the last-known priority order and cell masks.
	degraded bool

	// adaptLevel is the ladder rung of the last applied assignment: the
	// kernel's size cap and Step's key-frame stretch follow it.
	// adaptTransitions counts the level changes applied.
	adaptLevel       int
	adaptTransitions int

	// Stats.
	frames         int
	latencySum     time.Duration
	detected       map[int]bool
	degradedFrames int
	reconnects     int
	outageFrames   int
	reassignments  int
	orphaned       int
}

// Config assembles a runtime.
type Config struct {
	// Camera is the node's index.
	Camera int
	// Frame is the camera's pixel frame.
	Frame geom.Rect
	// Profile is the node's device profile.
	Profile *profile.Profile
	// GridCols, GridRows and Coverage come from the scheduler's
	// registration ack.
	GridCols, GridRows int
	Coverage           [][]int
	// NumCameras sizes the default priority order used before the first
	// assignment arrives.
	NumCameras int
	// Seed drives detector noise.
	Seed int64
	// Detector tunes the simulated DNN.
	Detector vision.Config
	// Sink, when non-nil, receives one metrics.Snapshot per processed
	// frame (SourceNode): this camera's modelled latency, batch
	// occupancy, and track/shadow/detected counts. The node cannot score
	// recall — it never sees the cross-camera truth denominator — so the
	// recall fields stay zero.
	Sink metrics.Sink
	// Horizon is T, the frames per scheduling horizon: Step full-inspects
	// and reports on the adapt.KeyFrame grid of it.
	Horizon int
}

// New builds a camera runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Frame.Empty() {
		return nil, fmt.Errorf("node: empty camera frame")
	}
	if cfg.NumCameras <= 0 {
		return nil, fmt.Errorf("node: NumCameras must be positive")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("node: Horizon must be positive")
	}
	grid := geom.NewGrid(cfg.Frame, max(cfg.GridCols, 1), max(cfg.GridRows, 1))
	if len(cfg.Coverage) > 0 && len(cfg.Coverage) != grid.NumCells() {
		return nil, fmt.Errorf("node: coverage has %d cells, grid has %d", len(cfg.Coverage), grid.NumCells())
	}
	// Without coverage data (the scheduler did not send masks) the camera
	// owns everything it sees.
	own := camera.OwnAll
	if len(cfg.Coverage) > 0 {
		own = camera.OwnMasks
	}
	kernel, err := camera.New(camera.Config{
		Index: cfg.Camera, Grid: grid, Profile: cfg.Profile,
		Seed: cfg.Seed, Detector: cfg.Detector,
		Own: own, Coverage: cfg.Coverage,
	})
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	idx := make([]int, cfg.NumCameras)
	for i := range idx {
		idx[i] = i
	}
	policy, err := core.NewDistributedPolicy(idx)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	return &Runtime{
		numCams:  cfg.NumCameras,
		kernel:   kernel,
		policy:   policy,
		sink:     cfg.Sink,
		label:    fmt.Sprintf("camera%d", cfg.Camera),
		detected: make(map[int]bool),

		horizon: cfg.Horizon,
	}, nil
}

// Step processes frame fi of this camera's stream; reconnects is the
// scheduler connection's reconnect count so far, which the frame's
// snapshot reports. On a key frame (adapt.KeyFrame, stretched by the
// last assignment's level) it runs the full-frame inspection and returns
// the track reports to upload with settle, which takes the round's
// outcome once the exchange is over: the assignment, applied, or nil —
// the miss — which puts the node in degraded mode until a later key
// frame's assignment rejoins it. The runtime is not to be stepped before
// settle has run. On every other frame it runs the sliced inspection and
// the distributed stage and returns neither. A returned error is the
// node's own (kernel, malformed assignment).
func (r *Runtime) Step(fi int, obs []scene.Observation, reconnects int) (reports []cluster.TrackReport, settle func(*cluster.Assignment) error, err error) {
	r.reconnects = max(r.reconnects, reconnects)
	if !adapt.KeyFrame(fi, r.horizon, adapt.StretchFor(r.adaptLevel)) {
		return nil, nil, r.regularFrame(obs)
	}
	if reports, err = r.keyFrame(obs); err != nil {
		return nil, nil, err
	}
	return reports, func(a *cluster.Assignment) error {
		if a == nil {
			r.degraded = true
			return nil
		}
		return r.applyAssignment(a)
	}, nil
}

// finishFrame prices the kernel's frame record on the node's own GPU,
// folds it into the running counters, and records the frame's snapshot
// if a sink is attached.
func (r *Runtime) finishFrame() error {
	if err := r.kernel.Price(&r.out); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	r.latencySum += r.out.Latency
	r.frames++
	if r.degraded {
		r.degradedFrames++
	}
	for _, id := range r.out.TruthIDs {
		r.detected[id] = true
	}
	r.reassignments += r.out.Reassigned
	r.orphaned += r.out.Orphaned
	if r.sink == nil {
		return nil
	}
	fi := r.frames - 1
	r.sink.RecordFrame(metrics.Snapshot{
		Source:           metrics.SourceNode,
		Label:            r.label,
		Seq:              fi,
		Frame:            fi,
		Detected:         len(r.detected),
		DegradedFrames:   r.degradedFrames,
		Reconnects:       r.reconnects,
		OutageFrames:     r.outageFrames,
		OrphanedObjects:  r.orphaned,
		Reassignments:    r.reassignments,
		AdaptLevel:       r.adaptLevel,
		AdaptTransitions: r.adaptTransitions,
		FrameLatency:     r.out.Latency,
		Cameras:          []metrics.CameraSnapshot{r.kernel.Snapshot(&r.out)},
	})
	return nil
}

// keyFrame runs the full-frame inspection and returns the track reports
// to upload.
func (r *Runtime) keyFrame(obs []scene.Observation) ([]cluster.TrackReport, error) {
	r.out.Reset()
	if err := r.kernel.KeyFrame(obs, &r.out); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if err := r.finishFrame(); err != nil {
		return nil, err
	}
	return cluster.ReportTracks(r.kernel.Tracks()), nil
}

// OutageFrame records one frame lost to a camera fault: the node's
// sensor was down, so nothing was inspected, nothing was reported, and
// no snapshot is emitted — the camera is silent, which is exactly what
// the scheduler's liveness lease observes. State freezes until the
// camera recovers.
func (r *Runtime) OutageFrame() { r.outageFrames++ }

// Degraded reports whether the runtime is currently in degraded mode:
// its last key frame got no assignment. Frames processed while degraded
// are counted in Stats.DegradedFrames and the per-frame snapshots.
func (r *Runtime) Degraded() bool { return r.degraded }

// applyAssignment installs the scheduler's reply: shadowed tracks are
// demoted, and the horizon's priority order replaces the old one. A
// successful assignment also clears degraded mode — the scheduler is
// answering again.
func (r *Runtime) applyAssignment(a *cluster.Assignment) error {
	if a == nil {
		return fmt.Errorf("node: nil assignment")
	}
	// The assignment came off the wire: an index outside the fleet is
	// refused before it sizes the policy or the dead mask, or names a
	// shadow's owner.
	for _, cams := range [][]int{a.Priority, a.Roster, a.Dead} {
		for _, c := range cams {
			if c < 0 || c >= r.numCams {
				return fmt.Errorf("node: assignment names camera %d, fleet has %d", c, r.numCams)
			}
		}
	}
	for _, sh := range a.Shadows {
		if c := sh.AssignedCamera; c < 0 || c >= r.numCams {
			return fmt.Errorf("node: assignment shadows track %d to camera %d, fleet has %d", sh.TrackID, c, r.numCams)
		}
	}
	// A shard-scoped assignment (Roster present) carries a priority
	// over the shard's global camera indices rather than a 0..M-1
	// permutation; the scoped policy skips foreign-shard cameras in
	// coverage sets so ownership stays communication-free within the
	// shard.
	var policy *core.DistributedPolicy
	var err error
	if len(a.Roster) > 0 {
		policy, err = core.NewScopedPolicy(a.Priority)
	} else {
		policy, err = core.NewDistributedPolicy(a.Priority)
	}
	if err != nil {
		return fmt.Errorf("node: %w", err)
	}
	if len(a.Dead) > 0 {
		// The scheduler's liveness leases feed the distributed stage:
		// every node installs the identical dead set, so failover
		// ownership decisions stay communication-free. The mask spans the
		// fleet: a scoped assignment's priority holds sparse global
		// indices, and the dead set may name foreign-shard cameras (which
		// the scoped policy ignores).
		mask := make([]bool, r.numCams)
		for _, c := range a.Dead {
			mask[c] = true
		}
		policy.SetDead(mask)
	}
	r.policy = policy
	r.degraded = false
	// Apply the scheduler's degradation rung: cap the sizes future
	// spawns and key-frame refreshes quantize to. Level 0 (or an
	// assignment from a pre-adapt scheduler) restores the full set.
	if a.AdaptLevel != r.adaptLevel {
		r.adaptLevel = a.AdaptLevel
		r.adaptTransitions++
		r.kernel.SetSizeCap(adapt.SizeCapFor(r.adaptLevel))
	}
	for _, sh := range a.Shadows {
		r.kernel.Demote(sh.TrackID, sh.AssignedCamera)
	}
	return nil
}

// regularFrame runs one regular-frame step: advance shadows, inspect
// active track regions plus owned new regions, update the tracker, and
// apply the distributed-stage ownership rules.
func (r *Runtime) regularFrame(obs []scene.Observation) error {
	r.out.Reset()
	if err := r.kernel.RegularFrame(obs, r.policy, &r.out); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	return r.finishFrame()
}

// Stats summarizes the node's run so far.
type Stats struct {
	// Frames processed.
	Frames int
	// MeanLatency is the mean modelled inference latency per frame.
	MeanLatency time.Duration
	// ActiveTracks is the current live track count.
	ActiveTracks int
	// Shadows is the current shadow count.
	Shadows int
	// DetectedObjects is the number of distinct ground-truth objects this
	// node has detected at least once.
	DetectedObjects int
	// DegradedFrames is how many frames ran in degraded mode (no
	// scheduler assignment; see Degraded).
	DegradedFrames int
	// Reconnects is the connection's reconnect count as of the last Step.
	Reconnects int
	// OutageFrames is how many frames were lost to camera faults (see
	// OutageFrame).
	OutageFrames int
	// Reassignments counts shadow promotions because the scheduler
	// declared the owning camera dead; Orphaned counts shadows dropped
	// because their owner died and no live camera covers them.
	Reassignments int
	Orphaned      int
	// AdaptLevel is the degradation rung currently applied;
	// AdaptTransitions counts the level changes applied so far.
	AdaptLevel       int
	AdaptTransitions int
}

// Stats returns the node's running counters.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Frames:           r.frames,
		ActiveTracks:     r.kernel.Len(),
		Shadows:          r.kernel.Shadows(),
		DetectedObjects:  len(r.detected),
		DegradedFrames:   r.degradedFrames,
		Reconnects:       r.reconnects,
		OutageFrames:     r.outageFrames,
		Reassignments:    r.reassignments,
		Orphaned:         r.orphaned,
		AdaptLevel:       r.adaptLevel,
		AdaptTransitions: r.adaptTransitions,
	}
	if r.frames > 0 {
		s.MeanLatency = r.latencySum / time.Duration(r.frames)
	}
	return s
}

// DetectedIDs returns the set of ground-truth objects seen so far
// (scoring only).
func (r *Runtime) DetectedIDs() map[int]bool {
	out := make(map[int]bool, len(r.detected))
	for k := range r.detected {
		out[k] = true
	}
	return out
}
