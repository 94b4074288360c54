package pipeline

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/camera"
	"mvs/internal/central"
	"mvs/internal/core"
	"mvs/internal/gpu"
	"mvs/internal/metrics"
	"mvs/internal/profile"
	"mvs/internal/scene"
)

// Engine is the long-running streaming form of the pipeline: it
// consumes frames one at a time from a Source, runs the BALB central
// and distributed stages incrementally per horizon, and emits the same
// per-frame metrics.Snapshot stream as the batch Run wrapper — which is
// now just "build a TraceSource, drain the engine". Every modelled
// field is bit-identical between the two paths at every worker count:
// the engine holds exactly the state the batch loop held across
// iterations, nothing about the algorithm changed shape.
//
// Lifecycle: NewEngine validates and builds per-camera state, Step
// processes one frame (or reports end of stream), Run drains the
// source, Report summarizes the frames processed so far (it may be
// called mid-stream; it never mutates engine state), and Err returns
// the terminal error after the stream ends. At end of stream — clean
// or not — the engine Flushes the frame sink exactly once and folds
// the first sink error into Err (the sink ownership rule, Config.Obs).
//
// An Engine is not safe for concurrent use; run one goroutine through
// Step/Run. Distinct engines are independent (they share only
// read-only inputs: trace frames, profiles slice elements, model).
type Engine struct {
	src   Source
	cfg   Config
	label string

	needsModel bool
	// rosters are the camera sets the central stage schedules, one round
	// each in this order, and models[i] is the association model scoped
	// to rosters[i]: the whole fleet under the model as given, or with
	// Sched.Shards each shard's cameras under its subset model.
	rosters [][]int
	models  []*assoc.Model
	// rosterCams[i] describes rosters[i]'s cameras to the scheduler in
	// local indices (positions in the roster), and round is the central
	// stage's workspace: the stage is sequential, so one serves every
	// roster's round.
	rosterCams [][]core.CameraSpec
	round      central.Round
	// info is the latest central-stage round's summary, refilled in
	// place every round.
	info roundInfo

	cams []*camera.Kernel

	// policy is the horizon's ownership policy, rebuilt in place by every
	// central-stage round.
	policy   *core.DistributedPolicy
	health   *healthTracker
	deadMask []bool

	recall       metrics.RecallAccumulator
	horizonCam   []time.Duration
	horizonLen   int
	slowestSum   time.Duration
	horizons     int
	centralTotal time.Duration
	breakdown    *metrics.Breakdown
	frameSeries  metrics.LatencySeries

	// busy accumulates each camera's modelled inspection latency across
	// frames (Report.PerCameraMean). It is fed from the merged frame
	// records rather than the private executors so the same accounting
	// covers both local pricing and a shared serve pool. lastExec holds
	// the serving pool's cumulative per-tenant counters as of the latest
	// priced frame (zero without Config.Serve.Executor).
	busy     []time.Duration
	lastExec ExecStats

	outageFrames int
	orphaned     int
	reassigned   int

	// Degradation control loop (Config.Adapt): the controller observes
	// every frame and ticks at key frames, before the key frame runs, so
	// a new rung's size cap applies to that frame's RefreshSizes and its
	// stretch to the frames after it (adapt.KeyFrame is the cadence).
	// lastDrift remembers the orphan+reassignment total at the previous
	// frame so each Sample carries the per-frame delta.
	ctrl      *adapt.Controller
	lastDrift int

	// Per-frame scratch of process, reused across frames: each camera's
	// view of the scene, the mask of cameras the fault schedule has down,
	// the per-camera records (whose TruthIDs buffers are kept), and the
	// frame's visible / detected object sets. None of it leaves the
	// engine: sinks and executors get freshly built values.
	obs         [][]scene.Observation
	down        []bool
	results     []camera.Frame
	truthIDs    map[int]bool
	detectedIDs map[int]bool

	fi       int // frames processed so far
	roundSeq int
	done     bool
	err      error
}

// NewEngine builds a streaming engine over a source. The association
// model may be nil for Full and Independent modes; every other mode
// requires one trained on a disjoint (earlier) part of the deployment.
func NewEngine(src Source, profiles []*profile.Profile, model *assoc.Model, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	cameras := src.Cameras()
	if len(cameras) == 0 {
		return nil, fmt.Errorf("pipeline: source has no cameras")
	}
	if len(profiles) != len(cameras) {
		return nil, fmt.Errorf("pipeline: %d profiles for %d cameras", len(profiles), len(cameras))
	}
	needsModel := cfg.Sched.Mode == CentralOnly || cfg.Sched.Mode == BALB || cfg.Sched.Mode == StaticPartition
	if needsModel {
		if model == nil {
			return nil, fmt.Errorf("pipeline: mode %v requires an association model", cfg.Sched.Mode)
		}
		if model.NumCameras() != len(cameras) {
			return nil, fmt.Errorf("pipeline: model trained for %d cameras, trace has %d",
				model.NumCameras(), len(cameras))
		}
	}

	fleet := make([]int, len(cameras))
	for i := range fleet {
		fleet[i] = i
	}
	rosters, models := [][]int{fleet}, []*assoc.Model{model}
	if cfg.Sched.Shards != nil {
		if cfg.Sched.Mode != BALB && cfg.Sched.Mode != CentralOnly {
			return nil, fmt.Errorf("pipeline: Shards requires BALB or CentralOnly mode, got %v", cfg.Sched.Mode)
		}
		if err := cfg.Sched.Shards.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		if cfg.Sched.Shards.NumCameras() != len(cameras) {
			return nil, fmt.Errorf("pipeline: shard map covers %d cameras, trace has %d",
				cfg.Sched.Shards.NumCameras(), len(cameras))
		}
		rosters = cfg.Sched.Shards.Shards
		models = make([]*assoc.Model, len(rosters))
		for s, roster := range rosters {
			sub, err := model.Subset(roster)
			if err != nil {
				return nil, fmt.Errorf("pipeline: shard %d model: %w", s, err)
			}
			models[s] = sub
		}
	}

	if cfg.Fault.CamFaults != nil && cfg.Fault.CamFaults.NumCameras() != len(cameras) {
		return nil, fmt.Errorf("pipeline: fault schedule for %d cameras, trace has %d",
			cfg.Fault.CamFaults.NumCameras(), len(cameras))
	}

	cams, err := buildCameras(cameras, profiles, model, cfg)
	if err != nil {
		return nil, err
	}
	rosterCams := make([][]core.CameraSpec, len(rosters))
	for s, roster := range rosters {
		for li, g := range roster {
			rosterCams[s] = append(rosterCams[s], core.CameraSpec{Index: li, Profile: profiles[g]})
		}
	}

	e := &Engine{
		src:        src,
		cfg:        cfg,
		label:      cfg.label(),
		needsModel: needsModel,
		rosters:    rosters,
		models:     models,
		rosterCams: rosterCams,
		cams:       cams,
		horizonCam: make([]time.Duration, len(cams)),
		breakdown:  metrics.NewBreakdown(),
		busy:       make([]time.Duration, len(cams)),

		obs:         make([][]scene.Observation, len(cams)),
		down:        make([]bool, len(cams)),
		results:     make([]camera.Frame, len(cams)),
		truthIDs:    make(map[int]bool),
		detectedIDs: make(map[int]bool),
	}
	// Default policy (before the first central stage): priority by index
	// within each roster, rosters end to end as the central stage composes
	// them, so the pre-key-frame decisions of a sharded run match the
	// unsharded ones on single-shard coverage sets.
	if needsModel || cfg.Sched.Mode == Independent {
		order := make([]int, 0, len(cams))
		for _, roster := range rosters {
			order = append(order, roster...)
		}
		if e.policy, err = core.NewDistributedPolicy(order); err != nil {
			return nil, err
		}
	}

	// A live ingest source meters its own admissions; pick the meter up
	// so every snapshot carries the shed/queued/ingested counters
	// (Config.Obs.Ingest overrides for wrapped sources).
	if e.cfg.Obs.Ingest == nil {
		if m, ok := src.(IngestMeter); ok {
			e.cfg.Obs.Ingest = m
		}
	}

	// Health tracking: mark cameras dead after HealthK silent frames and
	// feed the mask into the ownership policy so the distributed stage
	// fails over and the central stage reschedules over the survivors.
	if cfg.Fault.CamFaults != nil && cfg.Fault.HealthK > 0 && e.policy != nil {
		e.health = newHealthTracker(len(cams), cfg.Fault.HealthK)
	}
	if cfg.Adapt.Policy.Enabled() {
		e.ctrl = adapt.NewController(cfg.Adapt.Policy)
	}
	return e, nil
}

// Step pulls and processes one frame. It returns (true, nil) after a
// processed frame, (false, nil) at clean end of stream, and
// (false, err) when the source, the frame, or the end-of-stream sink
// flush failed. Once it has returned false, every further call returns
// (false, Err()).
func (e *Engine) Step() (bool, error) {
	if e.done {
		return false, e.err
	}
	frame, err := e.src.Next()
	if errors.Is(err, io.EOF) {
		e.finish(nil)
		return false, e.err
	}
	if err != nil {
		e.finish(fmt.Errorf("pipeline: source: %w", err))
		return false, e.err
	}
	if err := e.process(frame); err != nil {
		e.finish(err)
		return false, e.err
	}
	return true, nil
}

// Run drains the source: Step until end of stream. It returns Err().
func (e *Engine) Run() error {
	for {
		ok, err := e.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// Err returns the engine's terminal error: nil while streaming and
// after a clean end of stream, otherwise the first source, processing,
// or sink-flush error.
func (e *Engine) Err() error { return e.err }

// Frames returns the number of frames processed so far.
func (e *Engine) Frames() int { return e.fi }

// finish seals the stream and flushes the frame sink exactly once,
// folding the first sink error into Err (Config.Obs ownership rule).
func (e *Engine) finish(err error) {
	e.done = true
	e.err = err
	if e.cfg.Obs.Sink != nil {
		if ferr := e.cfg.Obs.Sink.Flush(); ferr != nil && e.err == nil {
			e.err = fmt.Errorf("pipeline: sink flush: %w", ferr)
		}
	}
}

// process runs one frame through the two-stage pipeline — the body of
// the old batch loop, with e.fi as the stream index.
func (e *Engine) process(frame *scene.FrameTruth) error {
	fi := e.fi
	cams := e.cams
	if len(frame.PerCamera) != len(cams) {
		return fmt.Errorf("pipeline: frame %d has %d camera lists, want %d",
			fi, len(frame.PerCamera), len(cams))
	}
	if e.cfg.Fault.CamFaults != nil && fi >= e.cfg.Fault.CamFaults.NumFrames() {
		return fmt.Errorf("pipeline: fault schedule covers %d frames, stream reached frame %d",
			e.cfg.Fault.CamFaults.NumFrames(), fi)
	}
	// A camera down per the fault schedule sees nothing and does no work
	// this frame; its state freezes until it recovers. down stays nil on
	// a frame with every camera up.
	obs := e.obs
	var down []bool
	for i := range cams {
		obs[i] = nil
		if e.cfg.Fault.CamFaults.Down(i, fi) {
			if down == nil {
				down = e.down
				clear(down)
			}
			down[i] = true
			e.outageFrames++
			continue
		}
		obs[i] = frame.PerCamera[i]
	}
	if e.health != nil {
		for i := range cams {
			e.health.observe(i, down == nil || !down[i])
		}
		e.deadMask = e.health.deadMask(e.deadMask)
		e.policy.SetDead(e.deadMask) // all-false mask clears
	}
	stretch := 1
	if e.ctrl != nil {
		stretch = e.ctrl.Stretch()
	}
	isKey := adapt.KeyFrame(fi, e.cfg.Sched.Horizon, stretch)
	if isKey && e.ctrl != nil {
		// Tick the control loop between horizons, before this key frame
		// runs: a freshly engaged rung caps this frame's RefreshSizes
		// and stretches the cadence from here on.
		e.ctrl.Tick()
		sizeCap := e.ctrl.SizeCap()
		for _, k := range cams {
			k.SetSizeCap(sizeCap)
		}
	}
	results := e.results
	for i := range results {
		results[i].Reset()
	}

	if isKey {
		e.flushHorizon()
	}
	if err := e.runCameras(isKey, obs, down, results); err != nil {
		return err
	}

	// Price any deferred GPU work at the post-fan-out barrier, then fold
	// the per-camera records into the run accumulators in camera order —
	// the same merge point whether the work ran on private executors
	// during the fan-out or on the shared serving pool just now.
	if err := e.resolveServe(results, down); err != nil {
		return err
	}
	clear(e.detectedIDs)
	mergeCamFrames(results, e.detectedIDs, e.breakdown, e.horizonCam)

	if isKey && e.needsModel {
		start := time.Now()
		ran, err := e.centralStage()
		if err != nil {
			return err
		}
		e.centralTotal += time.Since(start)
		if ran {
			e.policy.SetDead(e.deadMask)
			if e.cfg.Obs.Rounds != nil {
				e.emitRound(fi)
			}
		}
	}

	e.breakdown.EndFrame()
	e.horizonLen++
	clear(e.truthIDs)
	frame.AddVisibleObjectIDs(e.truthIDs)
	e.recall.Observe(e.truthIDs, e.detectedIDs)
	for i := range results {
		e.reassigned += results[i].Reassigned
		e.orphaned += results[i].Orphaned
	}

	// Per-frame system latency (max across cameras) for tail stats, and
	// the per-camera busy accumulators behind Report.PerCameraMean. With
	// a serve executor the record latencies include pool queueing delay,
	// so overload at the shared GPU surfaces in the same tail statistics
	// (and the same adapt samples) as local overload.
	var frameMax time.Duration
	for i := range results {
		e.busy[i] += results[i].Latency
		if results[i].Latency > frameMax {
			frameMax = results[i].Latency
		}
	}
	e.frameSeries.Add(frameMax)

	// The live admission counters are read once: the controller acts on
	// the queue depth the frame's snapshot reports.
	var ingest *IngestCounters
	if e.cfg.Obs.Ingest != nil && (e.ctrl != nil || e.cfg.Obs.Sink != nil) {
		c := e.cfg.Obs.Ingest.Counters()
		ingest = &c
	}

	// Feed the control loop one sample per frame: the frame's modelled
	// latency, the live queue depth behind it (0 for trace sources), the
	// current dead-camera count, and this frame's association-drift
	// events.
	if e.ctrl != nil {
		drift := e.orphaned + e.reassigned - e.lastDrift
		e.lastDrift = e.orphaned + e.reassigned
		var queueDepth, dead int
		if ingest != nil {
			queueDepth = ingest.QueueDepth
		}
		for _, d := range e.deadMask {
			if d {
				dead++
			}
		}
		e.ctrl.Observe(adapt.Sample{
			Latency: frameMax, QueueDepth: queueDepth, DeadCameras: dead, Drift: drift,
		})
	}

	// Live export: one snapshot per frame, fixed camera order, modelled
	// fields only — the sink sees exactly what Modeled() would report
	// for the frames so far, so attaching one cannot perturb the
	// determinism contract.
	if e.cfg.Obs.Sink != nil {
		e.emitFrameSnapshot(frameMax, ingest)
	}
	e.fi++
	return nil
}

// resolveServe prices the frame's deferred GPU work on the shared
// executor (Config.Serve.Executor): it submits one ExecRequest per live
// camera in ascending camera order — including cameras with no tasks,
// so the pool's epoch barrier sees every active tenant every frame —
// blocks until the pool has priced the epoch, and writes the replies
// back into the frame records. The executor may keep the requests (the
// pool does not; a recorder in front of it may), so this is where a
// task list leaves the kernel's scratch: the frame's lists are copied
// into one arena of their total size, allocated per frame, and each
// request gets its own capped sub-slice, so a keeper's append never
// runs into a neighbour's tasks. An empty list gets none. A no-op
// without a serve executor.
func (e *Engine) resolveServe(results []camera.Frame, down []bool) error {
	if e.cfg.Serve.Executor == nil {
		return nil
	}
	total := 0
	for i := range results {
		if down == nil || !down[i] {
			total += len(results[i].Tasks)
		}
	}
	arena := make([]gpu.Task, 0, total)
	reqs := make([]ExecRequest, 0, len(results))
	for i := range results {
		if down != nil && down[i] {
			continue
		}
		req := ExecRequest{Cam: i, Full: results[i].Full}
		if len(results[i].Tasks) > 0 {
			lo := len(arena)
			arena = append(arena, results[i].Tasks...)
			req.Tasks = arena[lo:len(arena):len(arena)]
		}
		reqs = append(reqs, req)
	}
	res, stats, err := e.cfg.Serve.Executor.SubmitFrame(e.fi, reqs)
	if err != nil {
		return fmt.Errorf("pipeline: serve executor: %w", err)
	}
	if len(res) != len(reqs) {
		return fmt.Errorf("pipeline: serve executor returned %d results for %d requests",
			len(res), len(reqs))
	}
	for k := range reqs {
		results[reqs[k].Cam].Cost = res[k].Cost
	}
	e.lastExec = stats
	return nil
}

// emitRound records the latest central-stage decision, e.info
// (docs/STREAMING.md). The sink may keep the record, so its lists are
// copies of the engine's.
func (e *Engine) emitRound(fi int) {
	r := metrics.Round{
		Source:        metrics.SourcePipeline,
		Label:         e.label,
		Seq:           e.roundSeq,
		Frame:         fi,
		Objects:       e.info.objects,
		Priority:      slices.Clone(e.info.priority),
		Assigned:      slices.Clone(e.info.assigned),
		Reassignments: e.reassigned,
		Orphaned:      e.orphaned,
	}
	if e.cfg.Sched.Shards != nil {
		r.Shards = e.cfg.Sched.Shards.NumShards()
	}
	e.cfg.Obs.Rounds.RecordRound(r)
	e.roundSeq++
}

// flushHorizon seals the current scheduling horizon into the Fig. 13
// accumulator: per camera the mean per-frame latency over the horizon,
// the slowest camera taken, summed for the cross-horizon average.
func (e *Engine) flushHorizon() {
	if e.horizonLen == 0 {
		return
	}
	e.slowestSum += e.horizonSlowest()
	e.horizons++
	clear(e.horizonCam)
	e.horizonLen = 0
}

// horizonSlowest is the pending horizon's Fig. 13 term: the largest
// per-camera mean latency over its frames. It reads engine state only,
// so Report folds a partial horizon with it too. The horizon must hold
// at least one frame.
func (e *Engine) horizonSlowest() time.Duration {
	var slowest time.Duration
	for _, sum := range e.horizonCam {
		slowest = max(slowest, sum/time.Duration(e.horizonLen))
	}
	return slowest
}

// Report summarizes the frames processed so far. It may be called
// mid-stream — the pending partial horizon is folded into MeanSlowest
// on a copy, so engine state is never mutated — and any number of
// times. It errors until at least one frame has been processed.
func (e *Engine) Report() (*Report, error) {
	if e.fi == 0 {
		return nil, fmt.Errorf("pipeline: no frames processed")
	}
	frames := time.Duration(e.fi)
	perCam := make([]time.Duration, len(e.cams))
	for i := range e.cams {
		perCam[i] = e.busy[i] / frames
	}
	rep := &Report{
		Mode:                e.cfg.Sched.Mode,
		Frames:              e.fi,
		Horizon:             e.cfg.Sched.Horizon,
		Recall:              e.recall.Recall(),
		PerCameraMean:       perCam,
		CentralPerFrame:     e.centralTotal / frames,
		TrackingPerFrame:    e.breakdown.MeanOf(metrics.Tracking),
		DistributedPerFrame: e.breakdown.MeanOf(metrics.Distributed),
		BatchingPerFrame:    e.breakdown.MeanOf(metrics.Batching),
	}
	rep.TP, rep.FN = e.recall.Counts()
	// Fold the pending partial horizon without mutating engine state.
	slowestSum, horizons := e.slowestSum, e.horizons
	if e.horizonLen > 0 {
		slowestSum += e.horizonSlowest()
		horizons++
	}
	if horizons > 0 {
		rep.MeanSlowest = slowestSum / time.Duration(horizons)
	}
	rep.MaxSlowest = e.frameSeries.Max()
	p95, err := e.frameSeries.Percentile(95)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	rep.P95Slowest = p95
	p99, err := e.frameSeries.Percentile(99)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	rep.P99Slowest = p99
	rep.OutageFrames = e.outageFrames
	rep.OrphanedObjects = e.orphaned
	rep.Reassignments = e.reassigned
	if e.ctrl != nil {
		rep.AdaptLevel = e.ctrl.Level()
		rep.AdaptTransitions = e.ctrl.Transitions()
		rep.SLOViolations = e.ctrl.SLOViolations()
	}
	rep.Tenant = e.cfg.Serve.Tenant
	rep.ExecSharedBatches = e.lastExec.SharedBatches
	rep.ExecShedTasks = e.lastExec.ShedTasks
	rep.ExecSLOViolations = e.lastExec.SLOViolations
	return rep, nil
}
