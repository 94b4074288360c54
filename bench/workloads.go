package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/serve"
	"mvs/internal/store"
	"mvs/internal/workload"
)

// env is what a run hands its workload.
type env struct {
	// seed is --seed. It seeds what the cameras sense: the detector noise
	// of every engine (and, on tenants16-pool, each tenant's own seed).
	seed int64
	// tmp is a scratch directory inside the checkout, removed at exit.
	tmp string
	// exe is this binary, re-executed as the open-loop sender.
	exe string
}

// workloadDef names one workload. The names are a contract: later
// issues cite them.
type workloadDef struct {
	name string
	why  string
	// passFrames is the fixed unit of work of a timed pass, per engine;
	// warmFrames that of the discarded first pass.
	passFrames, warmFrames int
	// openLoop marks the workload whose frames arrive on a schedule:
	// frames_per_s is then completed/elapsed, not speed-corrected, and
	// the other timings are corrected by the sender's probe.
	openLoop bool
	// scenario builds the workload's world; train and test are the
	// frames the association model trains on and the engines run over.
	scenario    func() (*workload.Scenario, error)
	train, test int
	setup       func(def *workloadDef, e *env) (instance, error)
}

// instance is a workload after set-up: everything that outlives a pass.
type instance interface {
	// prepare builds one pass — fresh engine(s), pool, store, listener —
	// outside the timed region.
	prepare(spec passSpec) (pass, error)
	// inputs is the generated input the layer drills draw on.
	inputs() *fleet
	close() error
}

// passSpec is what the harness asks of one pass.
type passSpec struct {
	no     int  // pass number, for span ids and scratch names
	frames int  // the per-engine unit of work
	traced bool // record spans
}

// pass is one fixed unit of work: run is the timed region, finish
// (always called, also after a failed run) checks outputs and releases
// what prepare built.
type pass interface {
	run() error
	finish() (*passResult, error)
}

// passResult is what one pass measured and checked.
type passResult struct {
	// attempted and completed count frames (tenant-frames on the pool
	// workload); failed counts frames lost or whose output check failed.
	attempted, completed, failed int
	// elapsed is the wall time the completed frames took.
	elapsed time.Duration
	// lat holds one latency per completed frame in nanoseconds, keyLat
	// the key frames' (frame % 10 == 0) among them.
	lat, keyLat []int64
	// recall and slowestMS are Report.Recall (mean over tenants) and
	// Report.MeanSlowest (worst tenant).
	recall, slowestMS float64
	// table2 is the program's own per-frame overhead breakdown, in
	// microseconds: central, tracking, distributed, batching.
	table2 [4]float64
	// layer carries the pass's workload-specific counters, keyed by
	// per-layer metric name.
	layer map[string]float64
	// probeUS is the reference kernel's median time as the open loop's
	// sender measured it between frames; 0 on a closed-loop pass, whose
	// yardstick the harness measures around it.
	probeUS float64
	// tracers hold the pass's spans when it was traced.
	tracers []*tracer
	// checkErr reports a failed output check; the run then exits
	// non-zero.
	checkErr error
}

const horizon = 10 // key frames are frame % horizon == 0 (default T, no adapt stretch)

var workloads = []*workloadDef{
	{
		name:       "corridor16-steady",
		why:        "closed loop, 1 client: the paper's loop alone; flow+hungarian, assoc+ml, vision, gpu, core work; serve, store, ingest, metrics encoding idle",
		passFrames: 3000, warmFrames: 3000,
		scenario: corridor16, train: 150, test: 3000,
		setup: setupSteady,
	},
	{
		name:       "tenants16-pool",
		why:        "closed loop at the pool's epoch barrier, 16 clients: serve (barrier, WFQ, gpu.Packer), goroutine hand-off work; assoc, ml, core bypassed; pool saturated, so modeled_slowest_ms is a backlog",
		passFrames: 1500, warmFrames: 1500,
		scenario: func() (*workload.Scenario, error) { return workload.S1(worldSeed), nil },
		train:    0, test: 1500,
		setup: setupTenants,
	},
	{
		name:       "corridor16-live-record",
		why:        "open loop, 250 frames/s over TCP from a sender process: part decode, admission queues, snapshot marshal and store append work; shows queueing",
		passFrames: 500, warmFrames: 250,
		openLoop: true,
		scenario: corridor16, train: 150, test: 3000,
		setup: setupLive,
	},
	{
		name:       "s4-replay-verify",
		why:        "closed loop, 1 client: open a recorded 8-camera run, replay it from the store and byte-compare snapshots; store reads, metrics encoding, other fleet shape",
		passFrames: 3000, warmFrames: 3000,
		scenario: func() (*workload.Scenario, error) { return workload.S4(worldSeed), nil },
		train:    200, test: 3000,
		setup: setupReplay,
	},
}

func corridor16() (*workload.Scenario, error) { return workload.Corridor(16, worldSeed) }

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fleet is a workload's generated input: the scenario, its trace split
// into the frames the association model trains on and the frames the
// engines run over, and the trained model (nil when train == 0).
type fleet struct {
	scn         *workload.Scenario
	profiles    []*profile.Profile
	train, test *scene.Trace
	model       *assoc.Model
}

// buildFleet generates the world and trains the model. Training runs on
// one worker so set-up time does not depend on how busy the other core
// is.
func buildFleet(def *workloadDef) (*fleet, error) {
	scn, err := def.scenario()
	if err != nil {
		return nil, err
	}
	trace, err := scn.World.Run(def.train + def.test)
	if err != nil {
		return nil, err
	}
	f := &fleet{
		scn:      scn,
		profiles: scn.Profiles(),
		train:    &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[:def.train]},
		test:     &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[def.train:]},
	}
	if def.train > 0 {
		if f.model, err = assoc.Train(f.train, assoc.Factories{Workers: 1}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// head returns the first n test frames as a trace.
func (f *fleet) head(n int) *scene.Trace {
	if n > len(f.test.Frames) {
		n = len(f.test.Frames)
	}
	return &scene.Trace{FPS: f.test.FPS, Cameras: f.test.Cameras, Frames: f.test.Frames[:n]}
}

// balbConfig is the engine configuration of every single-engine
// workload: full BALB on the sequential reference path.
func balbConfig(seed int64) pipeline.Config {
	cfg := pipeline.NewConfig(pipeline.BALB, seed)
	cfg.Sched.Workers = 1
	return cfg
}

// stepLoop steps eng until the stream ends or lat is full, recording
// each Step's wall time. It returns the frames completed.
func stepLoop(eng *pipeline.Engine, tr *tracer, lat []int64) (int, error) {
	n := 0
	prev := time.Now()
	for n < len(lat) {
		var ok bool
		var err error
		if tr != nil {
			ok, err = tr.step(eng)
		} else {
			ok, err = eng.Step()
		}
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		now := time.Now()
		lat[n] = int64(now.Sub(prev))
		prev = now
		n++
	}
	return n, nil
}

// keyOf returns the latencies of the key frames among lat, whose i-th
// entry is stream frame i.
func keyOf(lat []int64) []int64 {
	key := make([]int64, 0, len(lat)/horizon+1)
	for i := 0; i < len(lat); i += horizon {
		key = append(key, lat[i])
	}
	return key
}

// fillReport copies the engine report's modelled outputs and Table II
// breakdown into r.
func fillReport(r *passResult, rep *pipeline.Report) {
	r.recall = rep.Recall
	r.slowestMS = float64(rep.MeanSlowest) / 1e6
	r.table2 = [4]float64{
		float64(rep.CentralPerFrame) / 1e3, float64(rep.TrackingPerFrame) / 1e3,
		float64(rep.DistributedPerFrame) / 1e3, float64(rep.BatchingPerFrame) / 1e3,
	}
}

// engineResult is the result of a pass that stepped one engine: lat
// holds the completed frames' latencies, out of attempted.
func engineResult(eng *pipeline.Engine, tr *tracer, lat []int64, attempted int, elapsed time.Duration) (*passResult, error) {
	r := &passResult{attempted: attempted, completed: len(lat), failed: attempted - len(lat),
		elapsed: elapsed, lat: lat, keyLat: keyOf(lat)}
	if tr != nil {
		r.tracers = []*tracer{tr}
	}
	if len(lat) == 0 {
		return r, fmt.Errorf("no frame completed")
	}
	rep, err := eng.Report()
	if err != nil {
		return r, err
	}
	fillReport(r, rep)
	return r, nil
}

// ---- corridor16-steady -------------------------------------------------

type steadyInst struct {
	def   *workloadDef
	e     *env
	fleet *fleet
}

func setupSteady(def *workloadDef, e *env) (instance, error) {
	f, err := buildFleet(def)
	if err != nil {
		return nil, err
	}
	if _, err := pipeline.NewEngine(pipeline.NewTraceSource(f.test), f.profiles, f.model, balbConfig(e.seed)); err != nil {
		return nil, err
	}
	return &steadyInst{def: def, e: e, fleet: f}, nil
}

func (s *steadyInst) close() error   { return nil }
func (s *steadyInst) inputs() *fleet { return s.fleet }

type steadyPass struct {
	eng     *pipeline.Engine
	tr      *tracer
	lat     []int64
	n       int
	elapsed time.Duration
}

func (s *steadyInst) prepare(spec passSpec) (pass, error) {
	p := &steadyPass{lat: make([]int64, spec.frames)}
	var src pipeline.Source = pipeline.NewTraceSource(s.fleet.head(spec.frames))
	if spec.traced {
		p.tr = newTracer(fmt.Sprintf("%s/%d", s.def.name, spec.no), spec.frames)
		src = &tracedSource{src: src, t: p.tr, name: spanSourceNext}
	}
	var err error
	p.eng, err = pipeline.NewEngine(src, s.fleet.profiles, s.fleet.model, balbConfig(s.e.seed))
	return p, err
}

func (p *steadyPass) run() error {
	start := time.Now()
	var err error
	p.n, err = stepLoop(p.eng, p.tr, p.lat)
	p.elapsed = time.Since(start)
	return err
}

func (p *steadyPass) finish() (*passResult, error) {
	return engineResult(p.eng, p.tr, p.lat[:p.n], len(p.lat), p.elapsed)
}

// ---- tenants16-pool ----------------------------------------------------

const (
	tenantCount     = 16
	tenantExecutors = 4
	tenantSLO       = 150 * time.Millisecond
)

type tenantsInst struct {
	def   *workloadDef
	e     *env
	fleet *fleet
}

func setupTenants(def *workloadDef, e *env) (instance, error) {
	f, err := buildFleet(def)
	if err != nil {
		return nil, err
	}
	t := &tenantsInst{def: def, e: e, fleet: f}
	// The first pool and engines count as set-up.
	p, err := t.prepare(passSpec{frames: def.passFrames})
	if err != nil {
		return nil, err
	}
	p.(*tenantsPass).release()
	return t, nil
}

func (t *tenantsInst) close() error   { return nil }
func (t *tenantsInst) inputs() *fleet { return t.fleet }

type tenantsPass struct {
	pool    *serve.Pool
	handles []*serve.Tenant
	engines []*pipeline.Engine
	tracers []*tracer
	lat     [][]int64
	n       []int
	errs    []error
	elapsed time.Duration
}

// prepare builds the documented operating point of EXPERIMENTS.md and
// BenchmarkTenantServe through the pool's public API, so that every
// tenant's Step can be timed: 16 Independent-mode engines over one S1
// trace, 4 Xavier-class executors, consolidation on, 150 ms SLO.
func (t *tenantsInst) prepare(spec passSpec) (pass, error) {
	frames, traced := spec.frames, spec.traced
	pool, err := serve.NewPool(serve.Config{
		Executors:   tenantExecutors,
		Profile:     profile.Derived(profile.JetsonXavier),
		Consolidate: true,
		DefaultSLO:  tenantSLO,
	})
	if err != nil {
		return nil, err
	}
	p := &tenantsPass{
		pool:    pool,
		handles: make([]*serve.Tenant, tenantCount),
		engines: make([]*pipeline.Engine, tenantCount),
		lat:     make([][]int64, tenantCount),
		n:       make([]int, tenantCount),
		errs:    make([]error, tenantCount),
	}
	if traced {
		p.tracers = make([]*tracer, tenantCount)
	}
	trace := t.fleet.head(frames)
	for i := range p.engines {
		id := fmt.Sprintf("t%d", i)
		if p.handles[i], err = pool.Register(id, 1, 0); err != nil {
			p.release()
			return nil, err
		}
		cfg := pipeline.NewConfig(pipeline.Independent, t.e.seed+31*int64(i))
		cfg.Sched.Workers = 1
		cfg.Obs.Label = id
		cfg.Serve = pipeline.Serve{Tenant: id, Executor: p.handles[i]}
		var src pipeline.Source = pipeline.NewTraceSource(trace)
		if traced {
			tr := newTracer(fmt.Sprintf("%s/%d/%s", t.def.name, spec.no, id), frames)
			p.tracers[i] = tr
			src = &tracedSource{src: src, t: tr, name: spanSourceNext}
			cfg.Serve.Executor = &tracedExec{exec: p.handles[i], t: tr}
		}
		if p.engines[i], err = pipeline.NewEngine(src, t.fleet.profiles, nil, cfg); err != nil {
			p.release()
			return nil, err
		}
		p.lat[i] = make([]int64, frames)
	}
	return p, nil
}

// release takes every registered tenant out of the pool's active set, so
// no peer can be left waiting at the epoch barrier.
func (p *tenantsPass) release() {
	for _, h := range p.handles {
		if h != nil {
			h.Finish()
		}
	}
}

func (p *tenantsPass) run() error {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range p.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.handles[i].Finish()
			var tr *tracer
			if p.tracers != nil {
				tr = p.tracers[i]
			}
			p.n[i], p.errs[i] = stepLoop(p.engines[i], tr, p.lat[i])
		}(i)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for i, err := range p.errs {
		if err != nil {
			return fmt.Errorf("tenant t%d: %w", i, err)
		}
	}
	return nil
}

func (p *tenantsPass) finish() (*passResult, error) {
	p.release()
	r := &passResult{elapsed: p.elapsed, tracers: p.tracers, layer: map[string]float64{}}
	for i, eng := range p.engines {
		frames := len(p.lat[i])
		r.attempted += frames
		r.completed += p.n[i]
		r.lat = append(r.lat, p.lat[i][:p.n[i]]...)
		r.keyLat = append(r.keyLat, keyOf(p.lat[i][:p.n[i]])...)
		// Every tenant must complete every frame.
		if p.n[i] != frames {
			r.checkErr = fmt.Errorf("tenant t%d completed %d of %d frames", i, p.n[i], frames)
			continue
		}
		rep, err := eng.Report()
		if err != nil {
			return r, err
		}
		var one passResult
		fillReport(&one, rep)
		r.recall += one.recall / tenantCount
		if one.slowestMS > r.slowestMS {
			r.slowestMS = one.slowestMS
		}
		for k := range r.table2 {
			r.table2[k] += one.table2[k] / tenantCount
		}
	}
	r.failed = r.attempted - r.completed
	st := p.pool.Stats()
	if st.Images+st.ShedTasks > 0 {
		r.layer["serve.shed_task_share"] = float64(st.ShedTasks) / float64(st.Images+st.ShedTasks)
	}
	if st.Batches > 0 {
		r.layer["serve.shared_batch_share"] = float64(st.SharedBatches) / float64(st.Batches)
	}
	r.layer["serve.mean_occupancy"] = st.MeanOccupancy
	return r, nil
}

// ---- s4-replay-verify --------------------------------------------------

type replayInst struct {
	def   *workloadDef
	e     *env
	fleet *fleet
	dir   string
	// snapBytes is the size of the recording's snapshot file: a pass sizes
	// its output buffer from it, outside the timed region.
	snapBytes int
}

// setupReplay records one BALB run of S4 into a store, the way
// mvsim -record does; every pass then replays it.
func setupReplay(def *workloadDef, e *env) (instance, error) {
	f, err := buildFleet(def)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "s4-run-")
	if err != nil {
		return nil, err
	}
	dir = filepath.Join(dir, "run")
	roster, err := scene.MarshalCameras(f.test.Cameras)
	if err != nil {
		return nil, err
	}
	cfg := balbConfig(e.seed)
	rec, err := store.Create(dir, store.Manifest{
		Scenario: f.scn.Name, Seed: worldSeed, TraceFrames: def.train + def.test,
		Mode: cfg.Sched.Mode.String(), Horizon: horizon, Cameras: roster,
	})
	if err != nil {
		return nil, err
	}
	cfg.Obs.Sink = rec
	cfg.Obs.Rounds = rec
	eng, err := pipeline.NewEngine(rec.Tee(pipeline.NewTraceSource(f.test)), f.profiles, f.model, cfg)
	if err == nil {
		err = eng.Run()
	}
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	// The first open of the store and the first replay engine count as
	// set-up.
	run, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	raw, err := run.SnapshotsRaw()
	if err != nil {
		return nil, err
	}
	r := &replayInst{def: def, e: e, fleet: f, dir: dir, snapBytes: len(raw)}
	_, err = r.prepare(passSpec{frames: def.passFrames})
	return r, err
}

func (r *replayInst) close() error   { return os.RemoveAll(filepath.Dir(r.dir)) }
func (r *replayInst) inputs() *fleet { return r.fleet }

// lazyReplay is the source a replay pass builds its engine over. The
// engine is built outside the timed region (rule 1) but the pass, as
// the issue defines it, starts at store.Open: so the engine gets the
// roster the recording was made from, and the recorded run behind Next
// is opened inside the timed region.
type lazyReplay struct {
	cameras []*scene.Camera
	src     *store.Replay
}

func (l *lazyReplay) Cameras() []*scene.Camera         { return l.cameras }
func (l *lazyReplay) Next() (*scene.FrameTruth, error) { return l.src.Next() }

type replayPass struct {
	dir     string
	src     *lazyReplay
	eng     *pipeline.Engine
	sink    *metrics.JSONLSink
	tr      *tracer
	buf     bytes.Buffer
	want    []byte
	lat     []int64
	n       int
	same    bool
	elapsed time.Duration
}

func (r *replayInst) prepare(spec passSpec) (pass, error) {
	frames := spec.frames
	if frames > len(r.fleet.test.Frames) {
		frames = len(r.fleet.test.Frames)
	}
	p := &replayPass{dir: r.dir, src: &lazyReplay{cameras: r.fleet.test.Cameras}, lat: make([]int64, frames)}
	p.buf.Grow(r.snapBytes + 4096)
	var src pipeline.Source = p.src
	p.sink = metrics.NewJSONLSink(&p.buf)
	cfg := balbConfig(r.e.seed)
	cfg.Obs.Sink = p.sink
	if spec.traced {
		p.tr = newTracer(fmt.Sprintf("%s/%d", r.def.name, spec.no), frames)
		src = &tracedSource{src: src, t: p.tr, name: spanSourceNext}
		cfg.Obs.Sink = &tracedSink{sink: p.sink, t: p.tr}
	}
	var err error
	p.eng, err = pipeline.NewEngine(src, r.fleet.profiles, r.fleet.model, cfg)
	return p, err
}

// firstLines returns the first n newline-terminated lines of data.
func firstLines(data []byte, n int) []byte {
	end := 0
	for ; n > 0; n-- {
		i := bytes.IndexByte(data[end:], '\n')
		if i < 0 {
			return data
		}
		end += i + 1
	}
	return data[:end]
}

// run is the pass as the issue defines it: open the store, take its
// source and its recorded snapshots, replay, byte-compare.
func (p *replayPass) run() error {
	start := time.Now()
	run, err := store.Open(p.dir)
	if err == nil {
		p.want, err = run.SnapshotsRaw()
	}
	if err == nil {
		p.src.src, err = run.Source()
	}
	if err != nil {
		return err
	}
	p.want = firstLines(p.want, len(p.lat))
	p.n, err = stepLoop(p.eng, p.tr, p.lat)
	if err == nil {
		// The engine flushes its sink only at end of stream; a pass that
		// stops short flushes here. Flush is idempotent.
		err = p.sink.Flush()
	}
	p.same = err == nil && bytes.Equal(p.buf.Bytes(), p.want)
	p.elapsed = time.Since(start)
	return err
}

func (p *replayPass) finish() (*passResult, error) {
	var cerr error
	if p.src.src != nil {
		cerr = p.src.src.Close()
	}
	r, err := engineResult(p.eng, p.tr, p.lat[:p.n], len(p.lat), p.elapsed)
	if err != nil {
		return r, err
	}
	if !p.same {
		r.failed = r.attempted
		r.checkErr = fmt.Errorf("replay diverged: %d snapshot bytes, recording has %d", p.buf.Len(), len(p.want))
	}
	return r, cerr
}
