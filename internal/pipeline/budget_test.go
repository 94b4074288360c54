package pipeline

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/gpu"
	"mvs/internal/metrics"
	"mvs/internal/profile"
	"mvs/internal/workload"
)

// stepAllocCeiling bounds the mean allocations of one Engine.Step on the
// S1 BALB run below. Key frames included, a warm Step allocates nothing:
// tracks are recycled, key-frame detections, association and the round
// live in workspaces, and the policy and round record are rebuilt in
// place. What is left, about 0.1 a Step, is growth to new highs — a
// tracker, solver or free list meeting a larger set than any before,
// which reallocates geometrically — and the per-frame latency series the
// report's percentiles read, which grows by appending. A per-frame make()
// in any layer shows up as a jump of at least one allocation per camera
// per frame, five on S1, past the ceiling.
const stepAllocCeiling = 2

// faultedStepAllocCeiling bounds the same Step under camera faults.
// Only some frames have a dead camera, so a mask made for each of them
// costs a fraction of an allocation a Step, not one per camera: the
// mask lived in a fresh make() once, and read 0.69 a Step on this run.
const faultedStepAllocCeiling = 0.3

// servedStepAllocCeiling bounds what pricing the same Step through a
// TenantExecutor that keeps nothing adds to it. What crosses the seam is
// the executor's to keep, so it is allocated per frame: the request
// slice and one task arena for all cameras (none on a frame without
// tasks). A per-camera copy of the task lists added about 4.3 a Step
// here. It is a difference, not a total, because the race detector
// lifts the engine's own growth (0.10 a Step) to about 0.2.
const servedStepAllocCeiling = 2

// TestStepAllocationBudget is the end-to-end guard of the allocation
// budget, in tier 1 because the benchmark module is not: steady state,
// sequential reference path, no sinks; once fault-free, once with a
// fifth of the camera-frames lost and health tracking on, and once
// priced through a serve executor.
func TestStepAllocationBudget(t *testing.T) {
	const warm, measured = 300, 300
	s := workload.S1(3)
	trace, err := s.World.Run(150 + warm + measured)
	if err != nil {
		t.Fatal(err)
	}
	train, test := *trace, *trace
	train.Frames, test.Frames = trace.Frames[:150], trace.Frames[150:]
	model, err := assoc.Train(&train, assoc.Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	faults, err := GenerateFaults(FaultSpec{Seed: 7, Rate: 0.2}, len(test.Cameras), len(test.Frames))
	if err != nil {
		t.Fatal(err)
	}
	// perStep is the mean allocations of a warm Step over the measured
	// frames.
	perStep := func(t *testing.T, fault Fault, exec TenantExecutor) float64 {
		cfg := NewConfig(BALB, 3)
		cfg.Sched.Workers = 1
		cfg.Fault = fault
		cfg.Serve.Executor = exec
		eng, err := NewEngine(NewTraceSource(&test), s.Profiles(), model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		step := func(n int) {
			for i := 0; i < n; i++ {
				if ok, err := eng.Step(); !ok || err != nil {
					t.Fatalf("step: %v %v", ok, err)
				}
			}
		}
		step(warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step(measured)
		runtime.ReadMemStats(&after)
		n := float64(after.Mallocs-before.Mallocs) / measured
		t.Logf("%.2f allocations, %.0f bytes per Step", n, float64(after.TotalAlloc-before.TotalAlloc)/measured)
		return n
	}
	for _, tc := range []struct {
		name    string
		fault   Fault
		ceiling float64
	}{
		{"fault-free", Fault{}, stepAllocCeiling},
		{"camfault", Fault{CamFaults: faults, HealthK: 3}, faultedStepAllocCeiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := perStep(t, tc.fault, nil); n > tc.ceiling {
				t.Fatalf("%.2f allocations per Step over frames %d..%d, ceiling %g: some per-frame scratch is being reallocated",
					n, warm, warm+measured, tc.ceiling)
			}
		})
	}
	t.Run("serve", func(t *testing.T) {
		exec, err := newPricingExecutor(s.Profiles())
		if err != nil {
			t.Fatal(err)
		}
		inline, served := perStep(t, Fault{}, nil), perStep(t, Fault{}, exec)
		if served-inline > servedStepAllocCeiling {
			t.Fatalf("pricing through the seam adds %.2f allocations per Step over frames %d..%d, ceiling %g: the request hand-over copies more than the request slice and one task arena",
				served-inline, warm, warm+measured, float64(servedStepAllocCeiling))
		}
	})
}

// pricingExecutor prices each request on a private executor per camera,
// as the engine's local path does, and keeps nothing: its results are
// one buffer, reused.
type pricingExecutor struct {
	execs []*gpu.Executor
	out   []ExecResult
}

func newPricingExecutor(profiles []*profile.Profile) (*pricingExecutor, error) {
	p := &pricingExecutor{}
	for _, prof := range profiles {
		ex, err := gpu.NewExecutor(prof)
		if err != nil {
			return nil, err
		}
		p.execs = append(p.execs, ex)
	}
	return p, nil
}

func (p *pricingExecutor) SubmitFrame(frame int, reqs []ExecRequest) ([]ExecResult, ExecStats, error) {
	p.out = slices.Grow(p.out[:0], len(reqs))[:len(reqs)]
	clear(p.out)
	for i, r := range reqs {
		cost, err := p.execs[r.Cam].Price(r.Full, r.Tasks)
		if err != nil {
			return nil, ExecStats{}, err
		}
		p.out[i].Cost = cost
	}
	return p.out, ExecStats{}, nil
}

// keepingSink and keepingExecutor hold on to everything the engine hands
// them, the way a recorder or a serving pool may.
type keepingSink struct{ snaps []metrics.Snapshot }

func (k *keepingSink) RecordFrame(s metrics.Snapshot) { k.snaps = append(k.snaps, s) }
func (k *keepingSink) Flush() error                   { return nil }

type keepingExecutor struct {
	execs  []*gpu.Executor
	kept   [][]ExecRequest
	copies [][][]gpu.Task
}

func (k *keepingExecutor) SubmitFrame(frame int, reqs []ExecRequest) ([]ExecResult, ExecStats, error) {
	k.kept = append(k.kept, reqs)
	tasks := make([][]gpu.Task, len(reqs))
	out := make([]ExecResult, len(reqs))
	for i, r := range reqs {
		tasks[i] = append([]gpu.Task(nil), r.Tasks...)
		cost, err := k.execs[r.Cam].Price(r.Full, r.Tasks)
		if err != nil {
			return nil, ExecStats{}, err
		}
		out[i].Cost = cost
	}
	k.copies = append(k.copies, tasks)
	return out, ExecStats{}, nil
}

// TestReusedScratchNeverCrossesASeam is the aliasing test of the scratch
// ownership rule (docs/CONCURRENCY.md): engines at Workers = 1 and
// Workers = 2 step side by side — under -race the second one shows any
// buffer two cameras share — and must emit identical snapshots; and what
// was handed to a Sink or a TenantExecutor on one frame must read the
// same after the following frames have recycled every internal buffer.
func TestReusedScratchNeverCrossesASeam(t *testing.T) {
	e := getEnv(t)
	const frames = 45 // several horizons: key and regular frames alternate
	run := func(workers int, exec *keepingExecutor) *keepingSink {
		sink := &keepingSink{}
		cfg := NewConfig(BALB, 5)
		cfg.Sched.Workers = workers
		cfg.Obs.Sink = sink
		if exec != nil {
			cfg.Serve.Executor = exec
		}
		eng, err := NewEngine(NewTraceSource(e.test), e.profiles, e.model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var first metrics.Snapshot
		for i := 0; i < frames; i++ {
			if ok, err := eng.Step(); !ok || err != nil {
				t.Fatalf("workers %d step %d: %v %v", workers, i, ok, err)
			}
			if i == 0 {
				first = sink.snaps[0]
				first.Cameras = append([]metrics.CameraSnapshot(nil), first.Cameras...)
			}
		}
		if !reflect.DeepEqual(first, sink.snaps[0]) {
			t.Fatalf("workers %d: the first frame's snapshot changed under later frames", workers)
		}
		return sink
	}
	seq, par := run(1, nil), run(2, nil)
	if !reflect.DeepEqual(seq.snaps, par.snaps) {
		t.Fatal("Workers = 2 diverged from Workers = 1")
	}

	exec := &keepingExecutor{}
	for _, p := range e.profiles {
		ex, err := gpu.NewExecutor(p)
		if err != nil {
			t.Fatal(err)
		}
		exec.execs = append(exec.execs, ex)
	}
	remote := run(2, exec)
	if !reflect.DeepEqual(seq.snaps, remote.snaps) {
		t.Fatal("pricing through an executor diverged from inline pricing")
	}
	withTasks := 0
	for f, reqs := range exec.kept {
		for i, r := range reqs {
			if !reflect.DeepEqual(append([]gpu.Task(nil), r.Tasks...), exec.copies[f][i]) {
				t.Fatalf("frame %d camera %d: tasks handed to the executor were overwritten later", f, r.Cam)
			}
			if len(r.Tasks) > 0 {
				withTasks++
			}
		}
	}
	if withTasks == 0 {
		t.Fatal("no request carried tasks")
	}
}
