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
// # Execution model
//
// The paper's cameras are independent devices, and the engine mirrors
// that: within each frame the per-camera work (detection, tracking,
// slicing, batched GPU execution, distributed-stage decisions) fans out
// across a bounded worker pool sized by Config.Sched.Workers (default:
// GOMAXPROCS, capped at the camera count). Each camera's mutable state —
// its RNG, tracker, executor, shadows — lives in its cameraState and is
// touched by exactly one goroutine per frame; per-camera outputs are
// collected into camFrame shards and merged in fixed camera order, so
// the modelled results are bit-identical for every worker count (the
// determinism contract, docs/CONCURRENCY.md). The key-frame central
// stage runs between per-camera fan-outs, as the paper's central
// scheduler is a single node, but is not purely sequential: its pairwise
// association fans out per camera pair on the same Workers bound
// (assoc.AssociateWorkers), with the union-find merge applied in
// deterministic pair order; only the BALB solve and the SP ownership
// pass remain inline. Workers=1 runs everything — fan-outs included —
// inline on the calling goroutine.
//
// Run is safe to call concurrently from multiple goroutines as long as
// each call gets its own profiles slice (trace and model are only
// read); each call owns a private Engine.
package pipeline

import (
	"fmt"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/core"
	"mvs/internal/flow"
	"mvs/internal/geom"
	"mvs/internal/gpu"
	"mvs/internal/metrics"
	"mvs/internal/pool"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/vision"
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

// shadow is a camera's knowledge of an object assigned to another camera:
// its last known box here, coasting on the key-frame velocity, so the
// camera can take over tracking without communication if the object
// leaves its assigned camera's view.
type shadow struct {
	box      geom.Rect
	vel      geom.Point
	truthID  int
	assigned int
	size     int
}

// cameraState is all per-camera runtime state.
type cameraState struct {
	index    int
	cam      *scene.Camera
	exec     *gpu.Executor
	det      *vision.Detector
	tracker  *flow.Tracker
	grid     geom.Grid
	coverage [][]int // static per-cell coverage sets (BALB modes)
	spOwner  []int   // static per-cell owners (SP mode)
	shadows  []*shadow
	// remote defers GPU pricing to Config.Serve.Executor: the per-camera
	// fan-out collects inspection requests into the camFrame shard
	// instead of running them on the private executor, and the engine
	// resolves them at a barrier after the fan-out (resolveServe).
	remote bool
	// Per-frame scratch of regularFrame, reused across frames. Like the
	// rest of cameraState it is touched by one goroutine per frame and
	// nothing outside the camera keeps a reference past the frame (the
	// one slice that leaves — the tasks of a remote camera — is never
	// taken from here).
	regions, explained, moving []geom.Rect
	tasks                      []gpu.Task
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

func buildCameraStates(cameras []*scene.Camera, profiles []*profile.Profile, model *assoc.Model, cfg Config) ([]*cameraState, error) {
	cams := make([]*cameraState, len(cameras))
	for i, sc := range cameras {
		exec, err := gpu.NewExecutor(profiles[i])
		if err != nil {
			return nil, fmt.Errorf("pipeline: camera %d: %w", i, err)
		}
		tracker, err := flow.NewTracker(sc.Frame(), flow.Config{})
		if err != nil {
			return nil, fmt.Errorf("pipeline: camera %d: %w", i, err)
		}
		cs := &cameraState{
			index:   i,
			cam:     sc,
			exec:    exec,
			det:     vision.NewDetector(cfg.Sim.Seed+int64(i)*101, cfg.Sim.Detector),
			tracker: tracker,
			grid:    geom.NewGrid(sc.Frame(), cfg.Sim.GridCols, cfg.Sim.GridRows),
			remote:  cfg.Serve.Executor != nil,
		}
		cams[i] = cs
	}

	// Static precomputation: cell coverage sets (the cameras are
	// statically mounted, so this happens once, as in the paper).
	if cfg.Sched.Mode == CentralOnly || cfg.Sched.Mode == BALB || cfg.Sched.Mode == StaticPartition {
		for _, cs := range cams {
			cover, err := model.CellCoverageWorkers(cs.index, cs.grid, cfg.Sched.Workers)
			if err != nil {
				return nil, fmt.Errorf("pipeline: camera %d coverage: %w", cs.index, err)
			}
			cs.coverage = cover
		}
	}
	if cfg.Sched.Mode == StaticPartition {
		if err := computeStaticOwners(cams, profiles); err != nil {
			return nil, err
		}
	}
	return cams, nil
}

// computeStaticOwners implements the SP baseline's offline step: all
// cells across all cameras are partitioned by capacity-weighted
// round-robin over their coverage sets.
func computeStaticOwners(cams []*cameraState, profiles []*profile.Profile) error {
	specs := make([]core.CameraSpec, len(profiles))
	for i, p := range profiles {
		specs[i] = core.CameraSpec{Index: i, Profile: p}
	}
	weights, err := core.CapacityWeights(specs)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	for _, cs := range cams {
		owners, err := core.WeightedPartition(cs.coverage, weights)
		if err != nil {
			return fmt.Errorf("pipeline: camera %d owners: %w", cs.index, err)
		}
		cs.spOwner = owners
	}
	return nil
}

// camFrame is one camera's contribution to a frame, produced by exactly
// one worker goroutine and merged into the shared accumulators (detected
// set, horizon latencies, overhead breakdown) in fixed camera order —
// the mechanism that keeps parallel runs bit-identical to sequential
// ones. The batch counters feed the per-frame observability snapshot;
// like latency they are modelled quantities, deterministic per camera.
type camFrame struct {
	latency time.Duration
	// truthIDs keeps its backing array from frame to frame (Engine.process
	// resets the shard but hands the buffer back).
	truthIDs  []int
	sample    metrics.CameraSample
	batches   int
	images    int
	occupancy float64
	// reassigned counts shadow promotions because the owning camera is
	// dead; orphaned counts shadows dropped with no live covering
	// camera. Both stay zero in fault-free runs.
	reassigned int
	orphaned   int
	// tasks and full carry the camera's deferred GPU work when pricing
	// is delegated to Config.Serve.Executor (cameraState.remote): the
	// partial-region tasks of a regular frame, or a full-frame
	// inspection marker. resolveServe fills latency/batches/images/
	// occupancy from the executor's reply before the merge.
	tasks []gpu.Task
	full  bool
}

// mergeCamFrames folds per-camera frame shards into the run accumulators
// in camera-index order.
func mergeCamFrames(results []camFrame, detected map[int]bool,
	breakdown *metrics.Breakdown, horizonCam []time.Duration) {
	for i := range results {
		r := &results[i]
		horizonCam[i] += r.latency
		for _, id := range r.truthIDs {
			detected[id] = true
		}
		breakdown.Absorb(&r.sample)
	}
}

// emitFrameSnapshot assembles and records one frame's observability
// snapshot: cumulative recall, this frame's modelled system latency, and
// the per-camera latency/batch figures, in ascending camera order. Every
// field is modelled (deterministic); the snapshot is built from the same
// merged camFrame shards the report accumulators consume.
func emitFrameSnapshot(sink metrics.Sink, label string, frame int,
	recall *metrics.RecallAccumulator, frameMax time.Duration,
	cams []*cameraState, results []camFrame,
	outageFrames, orphaned, reassigned int,
	adaptLevel, adaptTransitions, sloViolations int, ingest IngestMeter,
	tenant string, exec ExecStats) {
	tp, fn := recall.Counts()
	snap := metrics.Snapshot{
		Source:            metrics.SourcePipeline,
		Label:             label,
		Seq:               frame,
		Frame:             frame,
		TP:                tp,
		FN:                fn,
		Recall:            recall.Recall(),
		OutageFrames:      outageFrames,
		OrphanedObjects:   orphaned,
		Reassignments:     reassigned,
		AdaptLevel:        adaptLevel,
		AdaptTransitions:  adaptTransitions,
		SLOViolations:     sloViolations,
		Tenant:            tenant,
		ExecQueueDepth:    exec.QueueDepth,
		ExecSharedBatches: exec.SharedBatches,
		ExecShedTasks:     exec.ShedTasks,
		ExecSLOViolations: exec.SLOViolations,
		FrameLatency:      frameMax,
		Cameras:           make([]metrics.CameraSnapshot, len(cams)),
	}
	if ingest != nil {
		c := ingest.Counters()
		snap.IngestedFrames = c.Ingested
		snap.ShedFrames = c.Shed
		snap.QueueDepth = c.QueueDepth
	}
	for i, cs := range cams {
		snap.Cameras[i] = metrics.CameraSnapshot{
			Camera:         i,
			Latency:        results[i].latency,
			Batches:        results[i].batches,
			Images:         results[i].images,
			BatchOccupancy: results[i].occupancy,
			Tracks:         cs.tracker.Len(),
			Shadows:        len(cs.shadows),
		}
	}
	sink.RecordFrame(snap)
}

// runKeyFrame performs the full-frame inspections, fanned out per
// camera. results must hold one zeroed camFrame per camera; it carries
// the per-camera shards out to the caller, which resolves any deferred
// GPU pricing and merges them in camera order. A non-nil down mask
// skips those cameras entirely (their shard stays zero and their state
// freezes).
func runKeyFrame(cams []*cameraState, obs [][]scene.Observation, down []bool,
	results []camFrame, cfg Config) error {
	return pool.Do(cfg.Sched.Workers, len(cams), func(i int) error {
		if down != nil && down[i] {
			return nil
		}
		return cams[i].keyFrame(obs[i], &results[i])
	})
}

// pruneStaticPartition applies SP's key-frame ownership rule: each
// camera keeps only tracks in cells it owns. Full/Independent/Central
// modes keep everything (the central stage reassigns right after).
func pruneStaticPartition(cams []*cameraState, down []bool, cfg Config) {
	if cfg.Sched.Mode != StaticPartition {
		return
	}
	for _, cs := range cams {
		if down != nil && down[cs.index] {
			continue
		}
		for _, t := range cs.tracker.Tracks() {
			cell, _ := cs.grid.CellIndex(t.Box.Center())
			if cs.spOwner[cell] != cs.index {
				cs.tracker.Remove(t.ID)
			}
		}
	}
}

// keyFrame is one camera's share of a key frame: full-frame inspection
// plus track refresh. It touches only this camera's state and its own
// camFrame shard.
func (cs *cameraState) keyFrame(obs []scene.Observation, out *camFrame) error {
	if cs.remote {
		out.full = true
	} else {
		out.latency = cs.exec.RunFullFrame()
	}
	dets := cs.det.DetectFull(obs)
	for _, d := range dets {
		out.truthIDs = append(out.truthIDs, d.TruthID)
	}
	start := time.Now()
	if _, err := cs.tracker.Update(dets); err != nil {
		return fmt.Errorf("pipeline: camera %d key-frame tracking: %w", cs.index, err)
	}
	cs.tracker.RefreshSizes()
	out.sample.Observe(metrics.Tracking, time.Since(start))
	cs.shadows = cs.shadows[:0]
	return nil
}

// roundInfo is one central-stage round's decision summary, feeding the
// metrics.Round record the engine emits (Config.Obs.Rounds): the
// composed priority order (global camera indices), per-camera assigned
// object counts, and the scheduled object-group count.
type roundInfo struct {
	objects  int
	priority []int
	assigned []int
}

// centralStage runs association plus the central-stage scheduler and
// applies the assignment: unassigned members become shadows. The
// pairwise association — the stage's O(N^2) term — fans out per camera
// pair on Sched.Workers (assoc.AssociateWorkers); the BALB solve and the
// shadow bookkeeping stay inline. For SP the association is skipped
// (its partition is static), so the stage only reconciles track
// ownership by cell owner, which key-frame handling already did — it
// returns a nil policy (keep the previous one) and a nil round.
//
// With Sched.Shards set the stage runs once per shard over that shard's
// cameras only (subModels[s] is the model restricted to the shard's
// roster), and the per-shard priorities compose into a
// core.ShardedPolicy; no association pair, MVS instance, or priority
// order ever spans two shards.
//
// A non-nil dead mask excludes those cameras' (stale, frozen) tracks
// from association, so the MVS instance is built over the healthy
// subset only and every orphaned object is implicitly reassigned to a
// live covering camera by Central.
func centralStage(cams []*cameraState, coreCams []core.CameraSpec, model *assoc.Model,
	subModels []*assoc.Model, dead []bool, cfg Config) (core.Policy, *roundInfo, error) {
	if cfg.Sched.Mode == StaticPartition {
		return nil, nil, nil
	}
	info := &roundInfo{assigned: make([]int, len(cams))}
	if cfg.Sched.Shards == nil {
		prio, objects, err := centralShard(cams, coreCams, model, dead, nil, cfg, info.assigned)
		if err != nil {
			return nil, nil, err
		}
		policy, err := core.NewDistributedPolicy(prio)
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: %w", err)
		}
		info.priority = prio
		info.objects = objects
		return policy, info, nil
	}
	priorities := make([][]int, cfg.Sched.Shards.NumShards())
	for s, roster := range cfg.Sched.Shards.Shards {
		prio, objects, err := centralShard(cams, coreCams, subModels[s], dead, roster, cfg, info.assigned)
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: shard %d: %w", s, err)
		}
		priorities[s] = prio
		info.priority = append(info.priority, prio...)
		info.objects += objects
	}
	policy, err := core.NewShardedPolicy(cfg.Sched.Shards.ShardOf, priorities)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: %w", err)
	}
	return policy, info, nil
}

// centralShard runs one central-stage round over a camera roster (nil
// = the whole fleet, with local index == global index) and returns the
// resulting priority order in *global* camera indices plus the number
// of object groups scheduled. The model must be scoped to the roster
// (assoc.Model.Subset); boxes, coverage sets, and the BALB instance all
// use local (roster) indices internally, and only the applied shadows,
// the returned priority, and the assigned counts (incremented into the
// fleet-indexed assigned slice) are translated back to global.
func centralShard(cams []*cameraState, coreCams []core.CameraSpec, model *assoc.Model,
	dead []bool, roster []int, cfg Config, assigned []int) ([]int, int, error) {
	n := len(cams)
	if roster != nil {
		n = len(roster)
	}
	glob := func(li int) int {
		if roster == nil {
			return li
		}
		return roster[li]
	}

	// Gather per-camera track boxes (live cameras only), local order.
	// The per-camera lists are cut from two arrays sized for the roster.
	boxes := make([][]geom.Rect, n)
	trackIDs := make([][]int, n)
	total := 0
	for li := 0; li < n; li++ {
		total += cams[glob(li)].tracker.Len()
	}
	boxArena := make([]geom.Rect, 0, total)
	idArena := make([]int, 0, total)
	for li := 0; li < n; li++ {
		g := glob(li)
		if dead != nil && g < len(dead) && dead[g] {
			continue
		}
		first := len(boxArena)
		for _, t := range cams[g].tracker.Tracks() {
			boxArena = append(boxArena, t.Box)
			idArena = append(idArena, t.ID)
		}
		boxes[li] = boxArena[first:len(boxArena):len(boxArena)]
		trackIDs[li] = idArena[first:len(idArena):len(idArena)]
	}
	groups, err := model.AssociateWorkers(boxes, cfg.Sched.AssocMinIoU, cfg.Sched.Workers)
	if err != nil {
		return nil, 0, fmt.Errorf("pipeline: association: %w", err)
	}

	// Build the MVS instance: one object per associated group, coverage
	// in local indices.
	objects := make([]core.ObjectSpec, 0, len(groups))
	for gi, g := range groups {
		spec := core.ObjectSpec{ID: gi + 1, Size: make(map[int]int)}
		for _, ref := range g.Members {
			cs := cams[glob(ref.Cam)]
			track := cs.tracker.Get(trackIDs[ref.Cam][ref.Index])
			if track == nil {
				continue
			}
			if _, seen := spec.Size[ref.Cam]; !seen {
				spec.Coverage = append(spec.Coverage, ref.Cam)
			}
			if track.QuantSize > spec.Size[ref.Cam] {
				spec.Size[ref.Cam] = track.QuantSize
			}
		}
		if len(spec.Coverage) > 0 {
			objects = append(objects, spec)
		}
	}

	localCore := make([]core.CameraSpec, n)
	for li := range localCore {
		localCore[li] = core.CameraSpec{Index: li, Profile: coreCams[glob(li)].Profile}
	}
	var sol *core.Solution
	extra := map[int][]int{}
	if cfg.Sched.Redundancy > 1 {
		var err error
		sol, extra, err = core.CentralRedundant(localCore, objects, cfg.Sched.Redundancy, cfg.Sched.RedundancySlack)
		if err != nil {
			return nil, 0, fmt.Errorf("pipeline: redundant central BALB: %w", err)
		}
	} else {
		var err error
		sol, err = core.Central(localCore, objects, core.CentralOptions{})
		if err != nil {
			return nil, 0, fmt.Errorf("pipeline: central BALB: %w", err)
		}
	}

	// Apply: members on non-assigned (and non-redundant) cameras become
	// shadows, with the assignment recorded in global indices.
	for gi, g := range groups {
		assignedCam, ok := sol.Assign[gi+1]
		if !ok {
			continue // group with no live members
		}
		assigned[glob(assignedCam)]++
		for _, ec := range extra[gi+1] {
			assigned[glob(ec)]++
		}
		for _, ref := range g.Members {
			if ref.Cam == assignedCam || containsCam(extra[gi+1], ref.Cam) {
				continue
			}
			cs := cams[glob(ref.Cam)]
			id := trackIDs[ref.Cam][ref.Index]
			track := cs.tracker.Get(id)
			if track == nil {
				continue
			}
			cs.shadows = append(cs.shadows, &shadow{
				box:      track.Box,
				vel:      track.Velocity,
				truthID:  track.TruthID,
				assigned: glob(assignedCam),
				size:     track.QuantSize,
			})
			cs.tracker.Remove(id)
		}
	}

	prio := make([]int, len(sol.Priority))
	for k, li := range sol.Priority {
		prio[k] = glob(li)
	}
	return prio, len(objects), nil
}

func containsCam(cams []int, cam int) bool {
	for _, c := range cams {
		if c == cam {
			return true
		}
	}
	return false
}

// runRegularFrame performs sliced, batched partial inspection plus the
// distributed stage, fanned out per camera. The shared policy is only
// read by the workers; every write stays inside one camera's state and
// camFrame shard.
func runRegularFrame(cams []*cameraState, obs [][]scene.Observation, down []bool,
	results []camFrame, policy core.Policy, cfg Config) error {
	if cfg.Sched.Mode == Full {
		return pool.Do(cfg.Sched.Workers, len(cams), func(i int) error {
			if down != nil && down[i] {
				return nil
			}
			cams[i].fullFrame(obs[i], &results[i])
			return nil
		})
	}
	return pool.Do(cfg.Sched.Workers, len(cams), func(i int) error {
		if down != nil && down[i] {
			return nil
		}
		return cams[i].regularFrame(obs[i], policy, cfg, &results[i])
	})
}

// fullFrame is one camera's share of a Full-mode regular frame.
func (cs *cameraState) fullFrame(obs []scene.Observation, out *camFrame) {
	if cs.remote {
		out.full = true
	} else {
		out.latency = cs.exec.RunFullFrame()
	}
	for _, d := range cs.det.DetectFull(obs) {
		out.truthIDs = append(out.truthIDs, d.TruthID)
	}
}

// regularFrame is one camera's share of a non-Full regular frame:
// shadow advance, slicing, new-region proposals, batched GPU execution,
// tracking update, and the distributed-stage ownership decisions.
func (cs *cameraState) regularFrame(obs []scene.Observation, policy core.Policy,
	cfg Config, out *camFrame) error {
	useDistributed := cfg.Sched.Mode == BALB || cfg.Sched.Mode == Independent || cfg.Sched.Mode == StaticPartition

	// --- Tracking: advance shadows, slice regions. ---
	trackStart := time.Now()
	alive := cs.shadows[:0]
	for _, sh := range cs.shadows {
		sh.box = sh.box.Translate(sh.vel)
		if cs.cam.Frame().Contains(sh.box.Center()) {
			alive = append(alive, sh)
		}
	}
	cs.shadows = alive

	// A remote camera's tasks outlive the frame (the serving pool, or a
	// recorder in front of it, may keep them), so they get fresh storage;
	// a local camera's stay in its scratch.
	tracks := cs.tracker.Tracks()
	regions, explained, tasks := cs.regions[:0], cs.explained[:0], cs.tasks[:0]
	if cs.remote {
		tasks = make([]gpu.Task, 0, len(tracks))
	}
	for _, t := range tracks {
		regions = append(regions, cs.tracker.Region(t))
		tasks = append(tasks, gpu.Task{ObjectID: t.ID, Size: t.QuantSize})
		explained = append(explained, t.Predicted())
	}
	out.sample.Observe(metrics.Tracking, time.Since(trackStart))

	// --- Distributed stage part 1: new-region proposals. ---
	if useDistributed {
		distStart := time.Now()
		moving := cs.moving[:0]
		for _, o := range obs {
			moving = append(moving, o.Box)
		}
		cs.moving = moving
		// Motion is explained by a predicted track box or a shadow.
		for _, sh := range cs.shadows {
			explained = append(explained, sh.box)
		}
		for _, nr := range flow.NewRegions(moving, explained, 0) {
			// The camera masks filter *before* inspection: a camera
			// never spends GPU time on new regions another camera is
			// responsible for (Fig. 8).
			if !cs.keepNewTrack(nr.Center(), policy, cfg) {
				continue
			}
			// Quantize against the tracker's (possibly capped) size set
			// so new-region proposals degrade with the ladder too.
			q, size := geom.QuantizeRect(nr, cs.cam.Frame(), cs.tracker.Sizes())
			regions = append(regions, q)
			tasks = append(tasks, gpu.Task{ObjectID: -1, Size: size})
		}
		out.sample.Observe(metrics.Distributed, time.Since(distStart))
	}
	cs.regions, cs.explained = regions, explained
	if !cs.remote {
		cs.tasks = tasks
	}

	// --- Batched GPU execution (deferred to the serving pool when the
	// camera is remote; the engine prices the tasks after the fan-out). ---
	batchStart := time.Now()
	if cs.remote {
		out.tasks = tasks
	} else {
		res, err := cs.exec.RunFrame(tasks)
		if err != nil {
			return fmt.Errorf("pipeline: camera %d inspection: %w", cs.index, err)
		}
		out.latency = res.Latency
		out.batches = len(res.Batches)
		out.images = res.Images
		out.occupancy = gpu.BatchOccupancy(res.Batches, cs.exec.Profile())
	}
	out.sample.Observe(metrics.Batching, time.Since(batchStart))

	dets, err := cs.det.DetectRegions(regions, obs)
	if err != nil {
		return fmt.Errorf("pipeline: camera %d detect: %w", cs.index, err)
	}
	for _, d := range dets {
		out.truthIDs = append(out.truthIDs, d.TruthID)
	}

	// --- Tracking update. ---
	trackStart = time.Now()
	created, err := cs.tracker.Update(dets)
	if err != nil {
		return fmt.Errorf("pipeline: camera %d tracking: %w", cs.index, err)
	}
	out.sample.Observe(metrics.Tracking, time.Since(trackStart))

	// --- Distributed stage part 2: ownership decisions. ---
	distStart := time.Now()
	for _, id := range created {
		t := cs.tracker.Get(id)
		if t == nil {
			continue
		}
		if !cs.keepNewTrack(t.Box.Center(), policy, cfg) {
			cs.tracker.Remove(id)
		}
	}
	if cfg.Sched.Mode == BALB {
		cs.takeoverCheck(policy, out)
	}
	out.sample.Observe(metrics.Distributed, time.Since(distStart))
	return nil
}

// keepNewTrack decides whether this camera keeps a freshly spawned track,
// by mode: Independent keeps all; SP keeps tracks in its owned cells;
// BALB keeps tracks whose cell it owns under the latency-priority masks;
// CentralOnly never spawns between key frames (no distributed stage).
func (cs *cameraState) keepNewTrack(centre geom.Point, policy core.Policy, cfg Config) bool {
	switch cfg.Sched.Mode {
	case Independent:
		return true
	case StaticPartition:
		cell, _ := cs.grid.CellIndex(centre)
		return cs.spOwner[cell] == cs.index
	case BALB:
		cell, _ := cs.grid.CellIndex(centre)
		return policy.ShouldTrack(cs.index, cs.coverage[cell])
	default:
		return false
	}
}

// takeoverCheck implements the second distributed-stage rule: when a
// shadowed object's assigned camera can no longer see it — it lost
// coverage per the static cell masks, or it is marked dead by the
// health tracker — the highest-priority live camera still covering it
// takes over, without any communication, because every camera evaluates
// the same masks and the same shared dead set.
func (cs *cameraState) takeoverCheck(policy core.Policy, out *camFrame) {
	alive := cs.shadows[:0]
	for _, sh := range cs.shadows {
		cell, inside := cs.grid.CellIndex(sh.box.Center())
		if !inside {
			continue // left this camera's view; drop the shadow
		}
		cover := cs.coverage[cell]
		assignedSees := false
		for _, c := range cover {
			if c == sh.assigned {
				assignedSees = true
				break
			}
		}
		deadOwner := assignedSees && policy.Dead(sh.assigned)
		if assignedSees && !deadOwner {
			alive = append(alive, sh)
			continue
		}
		// Assigned camera lost it (coverage or death): does this camera
		// take over?
		if policy.ShouldTrack(cs.index, cover) {
			if deadOwner {
				out.reassigned++
			}
			cs.tracker.Spawn(vision.Detection{Box: sh.box, Score: 0.5, TruthID: sh.truthID})
			continue // shadow promoted to active track
		}
		if owner, ok := policy.Owner(cover); ok {
			sh.assigned = owner // another camera takes it; keep shadowing
			alive = append(alive, sh)
		} else if deadOwner {
			out.orphaned++ // no live camera covers it; the object is lost
		}
	}
	cs.shadows = alive
}
