package serve

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"mvs/internal/gpu"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// testTrace generates the shared S1 trace once; it is read-only and
// safe to share across tenant engines.
var (
	traceOnce sync.Once
	traceVal  *scene.Trace
	traceErr  error
)

func testTrace(t testing.TB) *scene.Trace {
	t.Helper()
	traceOnce.Do(func() {
		s, err := workload.ByName("S1", 11)
		if err != nil {
			traceErr = err
			return
		}
		traceVal, traceErr = s.World.Run(120)
	})
	if traceErr != nil {
		t.Fatalf("trace: %v", traceErr)
	}
	return traceVal
}

func testProfiles(t testing.TB) []*profile.Profile {
	t.Helper()
	s, err := workload.ByName("S1", 11)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	return s.Profiles()
}

// captureSink records every snapshot for comparison.
type captureSink struct {
	mu    sync.Mutex
	snaps []metrics.Snapshot
}

func (c *captureSink) RecordFrame(s metrics.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps = append(c.snaps, s)
}
func (c *captureSink) Flush() error { return nil }

// TestLocalPassthroughBitIdentical is the serving layer's determinism
// anchor: an engine whose GPU pricing is deferred through a NewLocal
// executor must produce a bit-identical modelled report and snapshot
// stream to the same engine pricing work inline on private executors —
// proving the deferred-pricing refactor changed nothing observable.
func TestLocalPassthroughBitIdentical(t *testing.T) {
	trace := testTrace(t)

	run := func(remote bool, workers int) (*pipeline.Report, []metrics.Snapshot) {
		t.Helper()
		sink := &captureSink{}
		cfg := pipeline.NewConfig(pipeline.Independent, 11)
		cfg.Sched.Workers = workers
		cfg.Obs.Sink = sink
		cfg.Obs.Label = "anchor"
		if remote {
			local, err := NewLocal(testProfiles(t))
			if err != nil {
				t.Fatalf("NewLocal: %v", err)
			}
			cfg.Serve.Executor = local
		}
		rep, err := pipeline.Run(trace, testProfiles(t), nil, cfg)
		if err != nil {
			t.Fatalf("run(remote=%v): %v", remote, err)
		}
		m := rep.Modeled()
		return &m, sink.snaps
	}

	wantRep, wantSnaps := run(false, 1)
	for _, workers := range []int{1, 4} {
		gotRep, gotSnaps := run(true, workers)
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Errorf("workers=%d: modelled report differs:\n got %+v\nwant %+v", workers, gotRep, wantRep)
		}
		if !reflect.DeepEqual(gotSnaps, wantSnaps) {
			t.Errorf("workers=%d: snapshot stream differs", workers)
		}
	}
}

// tenantSpecs builds n Independent-mode tenants over the shared trace,
// each with its own detector seed.
func tenantSpecs(t testing.TB, n, workers int) []TenantSpec {
	t.Helper()
	trace := testTrace(t)
	specs := make([]TenantSpec, n)
	for i := range specs {
		cfg := pipeline.NewConfig(pipeline.Independent, 11+int64(i)*31)
		cfg.Sched.Workers = workers
		specs[i] = TenantSpec{
			ID:       fmt.Sprintf("tenant%d", i),
			Source:   pipeline.NewTraceSource(trace),
			Profiles: testProfiles(t),
			Config:   cfg,
		}
	}
	return specs
}

func poolConfig(t testing.TB, executors int, consolidate bool) Config {
	t.Helper()
	return Config{
		Executors:   executors,
		Profile:     profile.Derived(profile.JetsonXavier),
		Consolidate: consolidate,
		DefaultSLO:  150 * time.Millisecond,
	}
}

// TestPoolDeterminism runs the same four-tenant consolidated workload
// twice — and once with a different per-engine worker count — and
// requires identical modelled reports: pricing is a pure function of
// registration order and submissions, never of goroutine timing.
func TestPoolDeterminism(t *testing.T) {
	run := func(workers int) []TenantResult {
		t.Helper()
		pool, err := NewPool(poolConfig(t, 2, true))
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		results, err := Run(pool, tenantSpecs(t, 4, workers))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return results
	}
	want := run(1)
	for _, workers := range []int{1, 4} {
		got := run(workers)
		for i := range want {
			gm, wm := got[i].Report.Modeled(), want[i].Report.Modeled()
			if !reflect.DeepEqual(&gm, &wm) {
				t.Errorf("workers=%d tenant %s: report differs:\n got %+v\nwant %+v",
					workers, want[i].ID, gm, wm)
			}
		}
	}
}

// TestConsolidationSharesBatches checks the tentpole effect: with
// consolidation on, cross-tenant shared batches exist and mean batch
// occupancy is at least the dedicated baseline's, at identical
// aggregate capacity and workload.
func TestConsolidationSharesBatches(t *testing.T) {
	arm := func(consolidate bool) PoolStats {
		t.Helper()
		pool, err := NewPool(poolConfig(t, 2, consolidate))
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		if _, err := Run(pool, tenantSpecs(t, 4, 0)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return pool.Stats()
	}
	con, ded := arm(true), arm(false)
	if con.SharedBatches == 0 {
		t.Errorf("consolidated run shared no batches: %+v", con)
	}
	if ded.SharedBatches != 0 {
		t.Errorf("dedicated run shared %d batches, want 0", ded.SharedBatches)
	}
	if con.Batches >= ded.Batches {
		t.Errorf("consolidation did not reduce batch count: %d vs %d", con.Batches, ded.Batches)
	}
	if con.MeanOccupancy < ded.MeanOccupancy {
		t.Errorf("consolidated occupancy %.3f below dedicated %.3f", con.MeanOccupancy, ded.MeanOccupancy)
	}
	// Admission control reacts to the arms' different latencies, so the
	// inspected volumes need not match exactly — but consolidation must
	// never shed more than the dedicated baseline does.
	if con.Images < ded.Images {
		t.Errorf("consolidated arm inspected less: %d vs %d images", con.Images, ded.Images)
	}
}

// TestFairnessNoStarvation drives the pool directly with a heavy tenant
// (64 partial tasks per epoch) and a light tenant (4 tasks) sharing one
// oversubscribed executor: weighted fair queueing must keep the light
// tenant inside its SLO on every epoch while admission control sheds
// the heavy tenant's load.
func TestFairnessNoStarvation(t *testing.T) {
	const (
		epochs    = 40
		slo       = 30 * time.Millisecond
		heavyLoad = 64
		lightLoad = 4
	)
	run := func() (light, heavy []time.Duration, lightStats, heavyStats pipeline.ExecStats) {
		t.Helper()
		pool, err := NewPool(Config{
			Executors:   1,
			Profile:     profile.Derived(profile.JetsonXavier),
			Consolidate: true,
			DefaultSLO:  slo,
		})
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		lt, err := pool.Register("light", 1, 0)
		if err != nil {
			t.Fatalf("register light: %v", err)
		}
		ht, err := pool.Register("heavy", 1, 0)
		if err != nil {
			t.Fatalf("register heavy: %v", err)
		}
		drive := func(h *Tenant, tasks int, lats *[]time.Duration, stats *pipeline.ExecStats) error {
			defer h.Finish()
			for e := 0; e < epochs; e++ {
				reqs := []pipeline.ExecRequest{{Cam: 0, Tasks: make([]gpu.Task, tasks)}}
				for i := range reqs[0].Tasks {
					reqs[0].Tasks[i] = gpu.Task{ObjectID: i, Size: 128}
				}
				res, st, err := h.SubmitFrame(e, reqs)
				if err != nil {
					return err
				}
				*lats = append(*lats, res[0].Latency)
				*stats = st
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = drive(lt, lightLoad, &light, &lightStats) }()
		go func() { defer wg.Done(); errs[1] = drive(ht, heavyLoad, &heavy, &heavyStats) }()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("drive: %v", err)
			}
		}
		return light, heavy, lightStats, heavyStats
	}

	light, heavy, lightStats, heavyStats := run()
	for e, lat := range light {
		if lat > slo {
			t.Errorf("epoch %d: light tenant latency %v exceeds SLO %v", e, lat, slo)
		}
	}
	if lightStats.SLOViolations != 0 {
		t.Errorf("light tenant charged %d SLO violations, want 0", lightStats.SLOViolations)
	}
	if heavyStats.SLOViolations == 0 {
		t.Errorf("heavy tenant never violated its SLO despite %d tasks/epoch", heavyLoad)
	}
	if heavyStats.ShedTasks == 0 {
		t.Errorf("admission control never shed the heavy tenant")
	}
	if lightStats.ShedTasks != 0 {
		t.Errorf("light tenant was shed %d tasks while inside SLO", lightStats.ShedTasks)
	}
	for e := range heavy {
		if e > 0 && light[e] > heavy[e] {
			t.Errorf("epoch %d: light tenant (%v) served after heavy (%v)", e, light[e], heavy[e])
		}
	}

	// Deterministic across runs: goroutine interleaving at the barrier
	// must not change pricing.
	light2, heavy2, _, _ := run()
	if !reflect.DeepEqual(light, light2) || !reflect.DeepEqual(heavy, heavy2) {
		t.Errorf("per-epoch latencies differ across identical runs")
	}
}

// TestPoolLifecycleErrors pins the misuse contract: registering after
// serving starts fails, submitting after Finish fails, and a tenant
// finishing early releases the epoch barrier for the rest.
func TestPoolLifecycleErrors(t *testing.T) {
	pool, err := NewPool(poolConfig(t, 1, true))
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	a, err := pool.Register("a", 1, 0)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	b, err := pool.Register("b", 1, 0)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := pool.Register("a", 1, 0); err == nil {
		t.Error("duplicate id registered")
	}
	// A NaN weight would make every fair-queue comparison false, and a
	// negative SLO would silently mean "no SLO".
	for _, bad := range []struct {
		weight float64
		slo    time.Duration
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{1, -5 * time.Millisecond},
		{math.Inf(1), -5 * time.Millisecond},
	} {
		if x, err := pool.Register(fmt.Sprint(bad), bad.weight, bad.slo); err == nil {
			t.Errorf("Register(weight %v, slo %v) accepted", bad.weight, bad.slo)
			x.Finish()
		}
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := a.SubmitFrame(0, []pipeline.ExecRequest{{Cam: 0}})
		done <- err
	}()
	// b never submits; finishing it must complete a's epoch.
	time.Sleep(10 * time.Millisecond)
	if _, err := pool.Register("c", 1, 0); err == nil {
		t.Error("registration allowed after serving started")
	}
	b.Finish()
	if err := <-done; err != nil {
		t.Fatalf("a's epoch errored after b finished: %v", err)
	}
	b.Finish() // idempotent
	if _, _, err := b.SubmitFrame(1, nil); err == nil {
		t.Error("submit after Finish succeeded")
	}
	a.Finish()
}

// allocFrame is one tenant's frame for the allocation tests: full-frame
// and partial cameras, every profiled size, enough tasks to seal full
// batches mid-stream and leave partial ones for the flush.
func allocFrame(prof *profile.Profile) []pipeline.ExecRequest {
	reqs := []pipeline.ExecRequest{{Cam: 0, Full: true}, {Cam: 1}, {Cam: 2}, {Cam: 3}}
	for c := 1; c < len(reqs); c++ {
		for i := 0; i < 23*c; i++ {
			reqs[c].Tasks = append(reqs[c].Tasks, gpu.Task{ObjectID: i, Size: prof.Sizes[(i+c)%len(prof.Sizes)]})
		}
	}
	return reqs
}

// TestPoolSubmitFrameAllocatesNothing: a warm one-tenant pool prices an
// epoch on its own scratch and the tenant's reply buffer — with
// consolidation on and off, full frames included, and with admission
// control shedding.
func TestPoolSubmitFrameAllocatesNothing(t *testing.T) {
	prof := profile.Derived(profile.JetsonXavier)
	reqs := allocFrame(prof)
	for _, tc := range []struct {
		name        string
		consolidate bool
		slo         time.Duration
	}{
		{"consolidated", true, 0},
		{"dedicated", false, 0},
		{"shedding", true, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := NewPool(Config{Executors: 2, Profile: prof, Consolidate: tc.consolidate})
			if err != nil {
				t.Fatalf("NewPool: %v", err)
			}
			tenant, err := pool.Register("solo", 1, tc.slo)
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			defer tenant.Finish()
			frame := 0
			submit := func() {
				res, _, err := tenant.SubmitFrame(frame, reqs)
				if err != nil || len(res) != len(reqs) {
					t.Fatalf("SubmitFrame: %d results, %v", len(res), err)
				}
				frame++
			}
			for i := 0; i < 8; i++ {
				submit()
			}
			if allocs := testing.AllocsPerRun(50, submit); allocs != 0 {
				t.Errorf("warm SubmitFrame allocates %.1f times, want 0", allocs)
			}
			if tc.slo > 0 && tenant.shedLevel == 0 {
				t.Error("tenant was never shed")
			}
		})
	}
}

// TestLocalSubmitFrameAllocatesNothing: a warm Local prices a frame on
// its executors' buffers and its own result buffer.
func TestLocalSubmitFrameAllocatesNothing(t *testing.T) {
	profiles := testProfiles(t)
	local, err := NewLocal(profiles)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	reqs := allocFrame(profiles[0])
	submit := func() {
		res, _, err := local.SubmitFrame(0, reqs)
		if err != nil || len(res) != len(reqs) {
			t.Fatalf("SubmitFrame: %d results, %v", len(res), err)
		}
	}
	submit()
	if allocs := testing.AllocsPerRun(50, submit); allocs != 0 {
		t.Errorf("warm SubmitFrame allocates %.1f times, want 0", allocs)
	}
}
