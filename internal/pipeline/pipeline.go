// Package pipeline wires every substrate into the end-to-end system of
// Fig. 5: per-camera full-frame inspection at key frames, cross-camera
// association and central BALB scheduling on key frames, tracking-based
// slicing with batched partial inspection on regular frames, and the
// distributed BALB stage (camera masks) handling object dynamics in
// between — plus the evaluation baselines the paper compares against.
//
// The package's public shape is streaming-first (docs/STREAMING.md): a
// Source yields timestamped frames (simulator trace, test channel, or
// the run store's deterministic replay), an Engine built from a grouped
// Config consumes them one at a time and emits per-frame
// metrics.Snapshot and per-round metrics.Round records, and the batch
// Run helper is a thin wrapper — build a TraceSource, drain the engine,
// return its Report.
//
// Time is two-layered, as in the paper's evaluation: GPU inference
// latencies are *modelled* from the device profiles (the quantity the
// scheduler optimizes, Fig. 13), while framework overheads — tracking,
// association, scheduling, batching — are *measured* wall-clock costs of
// this implementation (Table II).
//
// An Engine steps its cameras one after another on the goroutine that
// calls Step, and runs the key frame's central stage on it too; the only
// work that fans out is the central stage's pairwise association and
// NewEngine's per-cell coverage precomputation, both bounded by
// Config.Sched.Workers (docs/CONCURRENCY.md). Modelled results are
// bit-identical at every Workers value.
//
// Run is safe to call concurrently from multiple goroutines as long as
// each call gets its own profiles slice (trace and model are only
// read); each call owns a private Engine.
package pipeline

import (
	"fmt"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/camera"
	"mvs/internal/central"
	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/profile"
	"mvs/internal/scene"
)

// Mode selects the scheduling algorithm under evaluation.
type Mode int

const (
	// Full runs full-frame detection on every frame of every camera (the
	// paper's recall upper bound and latency worst case).
	Full Mode = iota
	// Independent is BALB-Ind: slicing and batching per camera, no
	// cross-camera sharing.
	Independent
	// CentralOnly is BALB-Cen: the central stage alone, no distributed
	// stage between key frames.
	CentralOnly
	// BALB is the complete two-stage algorithm.
	BALB
	// StaticPartition is the SP baseline: overlap cells partitioned
	// offline by processing power.
	StaticPartition
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Full:
		return "Full"
	case Independent:
		return "BALB-Ind"
	case CentralOnly:
		return "BALB-Cen"
	case BALB:
		return "BALB"
	case StaticPartition:
		return "SP"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Report is the outcome of a pipeline run.
type Report struct {
	// Mode echoes the algorithm evaluated.
	Mode Mode
	// Frames is the number of frames processed.
	Frames int
	// Horizon echoes T.
	Horizon int
	// Recall is the paper's object recall (Fig. 12).
	Recall float64
	// TP, FN are the recall counts.
	TP, FN int
	// MeanSlowest is the Fig. 13 metric: per horizon, each camera's mean
	// per-frame inference latency is computed, the slowest camera taken,
	// and the result averaged across horizons.
	MeanSlowest time.Duration
	// PerCameraMean is each camera's mean per-frame inference latency.
	PerCameraMean []time.Duration
	// CentralPerFrame is the measured central-stage overhead (association
	// + central BALB), amortized per frame (Table II).
	CentralPerFrame time.Duration
	// TrackingPerFrame is the measured per-frame tracking overhead,
	// maximum across cameras, averaged over frames (Table II).
	TrackingPerFrame time.Duration
	// DistributedPerFrame is the measured distributed-stage overhead
	// (Table II).
	DistributedPerFrame time.Duration
	// BatchingPerFrame is the measured batch-formation overhead
	// (Table II).
	BatchingPerFrame time.Duration
	// P95Slowest, P99Slowest and MaxSlowest summarize the tail of the
	// per-frame system latency (max across cameras per frame): the
	// paper's motivation is responsiveness, so the tail matters as much
	// as the mean.
	P95Slowest time.Duration
	P99Slowest time.Duration
	MaxSlowest time.Duration
	// OutageFrames counts camera-frames lost to the fault schedule;
	// OrphanedObjects counts shadows dropped because no live camera
	// covered them; Reassignments counts failover ownership transfers
	// (shadow promotions after the owner died). All zero in fault-free
	// runs; all modelled (deterministic), so Modeled() keeps them.
	OutageFrames    int
	OrphanedObjects int
	Reassignments   int
	// AdaptLevel is the degradation-ladder rung in force at the end of
	// the run, AdaptTransitions the number of level changes, and
	// SLOViolations the number of frames whose modelled latency exceeded
	// the configured SLO (Config.Adapt). All zero with the controller
	// disabled; all modelled (deterministic), so Modeled() keeps them.
	AdaptLevel       int
	AdaptTransitions int
	SLOViolations    int
	// Tenant echoes Config.Serve.Tenant, and the Exec* counters mirror
	// the shared executor pool's final per-tenant figures
	// (pipeline.ExecStats): batches shared with other tenants, tasks
	// dropped by pool admission control, and epochs priced over this
	// tenant's SLO. All zero without a serve executor; all modelled
	// (deterministic), so Modeled() keeps them (docs/SERVING.md).
	Tenant            string
	ExecSharedBatches int
	ExecShedTasks     int
	ExecSLOViolations int
}

// OverheadTotal returns the summed per-frame framework overhead.
func (r *Report) OverheadTotal() time.Duration {
	return r.CentralPerFrame + r.TrackingPerFrame + r.DistributedPerFrame + r.BatchingPerFrame
}

// Modeled returns the deterministic projection of the report: every
// field derived from the simulation model (recall counts, modelled GPU
// latencies, tail statistics), with the wall-clock-measured overhead
// fields (CentralPerFrame, TrackingPerFrame, DistributedPerFrame,
// BatchingPerFrame) zeroed out. The determinism contract — the same
// (source, profiles, model, Config modulo Sched.Workers) produces
// identical results — holds exactly for this projection; the measured
// overheads are timings of this host and vary run to run even
// sequentially.
func (r *Report) Modeled() Report {
	out := *r
	out.CentralPerFrame = 0
	out.TrackingPerFrame = 0
	out.DistributedPerFrame = 0
	out.BatchingPerFrame = 0
	out.PerCameraMean = append([]time.Duration(nil), r.PerCameraMean...)
	return out
}

// Run executes the pipeline over a pre-generated trace: it builds a
// TraceSource, drains a private Engine, and returns its Report. The
// association model may be nil for Full and Independent modes; every
// other mode requires one trained on a disjoint (earlier) part of the
// deployment. Sink errors surface here even though the trace is fully
// consumed on success — the engine flushes the sink at end of stream
// and Run propagates the result.
func Run(trace *scene.Trace, profiles []*profile.Profile, model *assoc.Model, cfg Config) (*Report, error) {
	if len(trace.Frames) == 0 {
		return nil, fmt.Errorf("pipeline: empty trace")
	}
	if cfg.Fault.CamFaults != nil && cfg.Fault.CamFaults.NumFrames() < len(trace.Frames) {
		return nil, fmt.Errorf("pipeline: fault schedule covers %d frames, trace has %d",
			cfg.Fault.CamFaults.NumFrames(), len(trace.Frames))
	}
	e, err := NewEngine(NewTraceSource(trace), profiles, model, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return e.Report()
}

// ownership maps the mode under evaluation onto the camera kernel's
// rule for what a camera keeps between key frames: Independent keeps
// all; SP keeps its statically owned cells; BALB follows the
// latency-priority masks; CentralOnly has no distributed stage (and
// Full never runs a regular frame).
func (m Mode) ownership() camera.Ownership {
	switch m {
	case Independent:
		return camera.OwnAll
	case StaticPartition:
		return camera.OwnCells
	case BALB:
		return camera.OwnMasks
	default:
		return camera.OwnNone
	}
}

// buildCameras builds one kernel per camera, after the static
// precomputation every kernel of a masked mode needs: the per-cell
// coverage sets (the cameras are statically mounted, so this happens
// once, as in the paper) and, for SP, the offline cell partition.
func buildCameras(cameras []*scene.Camera, profiles []*profile.Profile, model *assoc.Model, cfg Config) ([]*camera.Kernel, error) {
	grids := make([]geom.Grid, len(cameras))
	coverage := make([][][]int, len(cameras))
	owners := make([][]int, len(cameras))
	for i, sc := range cameras {
		grids[i] = geom.NewGrid(sc.Frame(), assoc.GridCols, assoc.GridRows)
		if cfg.Sched.Mode == CentralOnly || cfg.Sched.Mode == BALB || cfg.Sched.Mode == StaticPartition {
			cover, err := model.CellCoverageWorkers(i, grids[i], cfg.Sched.Workers)
			if err != nil {
				return nil, fmt.Errorf("pipeline: camera %d coverage: %w", i, err)
			}
			coverage[i] = cover
		}
	}
	if cfg.Sched.Mode == StaticPartition {
		var err error
		if owners, err = computeStaticOwners(coverage, profiles); err != nil {
			return nil, err
		}
	}
	cams := make([]*camera.Kernel, len(cameras))
	for i := range cameras {
		k, err := camera.New(camera.Config{
			Index: i, Grid: grids[i], Profile: profiles[i],
			Seed: cfg.Sim.Seed, Detector: cfg.Sim.Detector,
			Own: cfg.Sched.Mode.ownership(), Coverage: coverage[i], CellOwner: owners[i],
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		cams[i] = k
	}
	return cams, nil
}

// computeStaticOwners implements the SP baseline's offline step: all
// cells across all cameras are partitioned by capacity-weighted
// round-robin over their coverage sets.
func computeStaticOwners(coverage [][][]int, profiles []*profile.Profile) ([][]int, error) {
	specs := make([]core.CameraSpec, len(profiles))
	for i, p := range profiles {
		specs[i] = core.CameraSpec{Index: i, Profile: p}
	}
	weights, err := core.CapacityWeights(specs)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	owners := make([][]int, len(coverage))
	for i := range coverage {
		owners[i], err = core.WeightedPartition(coverage[i], weights)
		if err != nil {
			return nil, fmt.Errorf("pipeline: camera %d owners: %w", i, err)
		}
	}
	return owners, nil
}

// mergeCamFrames folds per-camera frame records into the run accumulators
// in camera-index order.
func mergeCamFrames(results []camera.Frame, detected map[int]bool,
	breakdown *metrics.Breakdown, horizonCam []time.Duration) {
	for i := range results {
		r := &results[i]
		horizonCam[i] += r.Latency
		for _, id := range r.TruthIDs {
			detected[id] = true
		}
		breakdown.Absorb(&r.Sample)
	}
}

// emitFrameSnapshot assembles and records the current frame's
// observability snapshot: cumulative recall, the frame's modelled system
// latency, and one camera row per kernel (camera.Kernel.Snapshot), in
// ascending camera order. Every field is modelled (deterministic); the
// snapshot is built from the same merged frame records the report
// accumulators consume.
func (e *Engine) emitFrameSnapshot(frameMax time.Duration, ingest *IngestCounters) {
	tp, fn := e.recall.Counts()
	snap := metrics.Snapshot{
		Source:            metrics.SourcePipeline,
		Label:             e.label,
		Seq:               e.fi,
		Frame:             e.fi,
		TP:                tp,
		FN:                fn,
		Recall:            e.recall.Recall(),
		OutageFrames:      e.outageFrames,
		OrphanedObjects:   e.orphaned,
		Reassignments:     e.reassigned,
		Tenant:            e.cfg.Serve.Tenant,
		ExecQueueDepth:    e.lastExec.QueueDepth,
		ExecSharedBatches: e.lastExec.SharedBatches,
		ExecShedTasks:     e.lastExec.ShedTasks,
		ExecSLOViolations: e.lastExec.SLOViolations,
		FrameLatency:      frameMax,
		Cameras:           make([]metrics.CameraSnapshot, len(e.cams)),
	}
	if e.ctrl != nil {
		snap.AdaptLevel = e.ctrl.Level()
		snap.AdaptTransitions = e.ctrl.Transitions()
		snap.SLOViolations = e.ctrl.SLOViolations()
	}
	if ingest != nil {
		snap.IngestedFrames = ingest.Ingested
		snap.ShedFrames = ingest.Shed
		snap.QueueDepth = ingest.QueueDepth
	}
	for i, k := range e.cams {
		snap.Cameras[i] = k.Snapshot(&e.results[i])
	}
	e.cfg.Obs.Sink.RecordFrame(snap)
}

// runCameras steps every live camera through one frame, in camera order:
// each kernel runs its share — the full-frame inspection of a key frame
// or a Full-mode frame, else sliced partial inspection plus the
// distributed stage — into its own record of results, which must hold
// one reset camera.Frame per camera. Without a serve executor the work
// is priced here on the kernel's own GPU; otherwise resolveServe prices
// the records afterwards. A non-nil down mask skips those cameras
// entirely (their record stays zero and their state freezes).
func (e *Engine) runCameras(isKey bool, obs [][]scene.Observation, down []bool, results []camera.Frame) error {
	for i, k := range e.cams {
		if down != nil && down[i] {
			continue
		}
		out := &results[i]
		var err error
		switch {
		case isKey:
			err = k.KeyFrame(obs[i], out)
		case e.cfg.Sched.Mode == Full:
			k.FullFrame(obs[i], out)
		default:
			err = k.RegularFrame(obs[i], e.policy, out)
		}
		if err == nil && e.cfg.Serve.Executor == nil {
			err = k.Price(out)
		}
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	return nil
}

// roundInfo is one central-stage round's decision summary, feeding the
// metrics.Round record the engine emits (Config.Obs.Rounds): the
// composed priority order (global camera indices), per-camera assigned
// object counts, and the scheduled object-group count. The engine keeps
// one and refills it every round; emitRound copies it out.
type roundInfo struct {
	objects  int
	priority []int
	assigned []int
}

// centralStage runs the central-stage round, applies the assignment —
// unassigned members become shadows — and rebuilds the engine's policy
// in place from the round's priority order, leaving the round's summary
// in e.info. The pairwise association — the stage's O(N^2) term — fans
// out per camera pair on Sched.Workers (assoc.Workspace.Associate); the
// BALB solve and the shadow bookkeeping stay inline. For SP the round
// is skipped (its partition is static, and the kernels prune by cell
// owner at the key frame): it reports false, and the policy stays.
//
// The stage runs once per roster (Engine.rosters: the whole fleet, or
// with Sched.Shards each shard's cameras in shard order) under the model
// scoped to it, so that no association pair, MVS instance, or priority
// order ever spans two shards. The rosters' priority orders, end to end,
// are the horizon's ownership order: an object seen from two shards goes
// to the lower shard's best-ranked live covering camera.
//
// A non-nil dead mask excludes those cameras' (stale, frozen) tracks
// from the round, so the MVS instance is built over the healthy subset
// only and every orphaned object is implicitly reassigned to a live
// covering camera by Central.
func (e *Engine) centralStage() (bool, error) {
	if e.cfg.Sched.Mode == StaticPartition {
		return false, nil
	}
	info := &e.info
	info.objects = 0
	info.priority = info.priority[:0]
	info.assigned = append(info.assigned[:0], make([]int, len(e.cams))...)
	for s := range e.rosters {
		if err := e.centralShard(s, info); err != nil {
			return false, fmt.Errorf("pipeline: roster %d: %w", s, err)
		}
	}
	if err := e.policy.Reset(info.priority); err != nil {
		return false, fmt.Errorf("pipeline: %w", err)
	}
	return true, nil
}

// centralShard runs one central-stage round over roster s and adds its
// outcome to info: the priority order appended, the object groups
// scheduled and the per-camera assigned counts summed in. The roster's
// model is scoped to it (assoc.Model.Subset, or the fleet model for the
// whole fleet); the round kernel works in local indices — positions in
// the roster — throughout, and only the applied shadows and what info
// records are translated back to fleet-wide ones.
func (e *Engine) centralShard(s int, info *roundInfo) error {
	roster, r := e.rosters[s], &e.round
	// Gather each live camera's view from its tracker, in local order.
	total := 0
	for _, g := range roster {
		total += e.cams[g].Len()
	}
	r.Views.Reset(len(roster), total)
	for li, g := range roster {
		if e.deadMask != nil && g < len(e.deadMask) && e.deadMask[g] {
			continue
		}
		for _, t := range e.cams[g].Tracks() {
			r.Views.Add(li, t.Box, central.Track{ID: t.ID, Size: t.QuantSize})
		}
	}
	sched := &e.cfg.Sched
	if err := central.Solve(central.Params{
		Model: e.models[s], Cameras: e.rosterCams[s],
		MinIoU: assoc.MinIoU, Workers: sched.Workers,
		Redundancy: sched.Redundancy, Slack: sched.RedundancySlack,
	}, r); err != nil {
		return err
	}

	// Apply: members on non-assigned (and non-redundant) cameras become
	// shadows, with the assignment recorded in global indices.
	sol := r.Solution
	for j, cam := range sol.Assign {
		info.assigned[roster[cam]]++
		for _, ec := range sol.Extra(j) {
			info.assigned[roster[ec]]++
		}
	}
	r.Walk(func(m central.Member) {
		if !m.Kept {
			e.cams[roster[m.Cam]].Demote(r.Views.Tracks[m.Cam][m.Index].ID, roster[m.Owner])
		}
	})

	for _, li := range sol.Priority {
		info.priority = append(info.priority, roster[li])
	}
	info.objects += r.Objects.Len()
	return nil
}
