package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The measurement rules (bench/README.md has the reasons):
//
//  1. A pass is a fixed unit of work on fresh engines; building them is
//     outside the timed region; runtime.GC() precedes every pass; the
//     first pass is warm-up and discarded.
//  2. The reference kernel runs before and after every pass (in the open
//     loop: in the sender, between frames, throughout the pass); every
//     wall-clock or CPU-time end-to-end metric is computed per pass,
//     multiplied by that pass's speed, and the run reports the median
//     across passes. Uncorrected values are per-layer diagnostics.
//  3. Set-up (world, model, first engine/pool/store/listener) runs
//     setupRuns times; the median is reported.
const (
	setupRuns = 3
	minPasses = 3
)

// runOptions are the settings of one run.
type runOptions struct {
	def     *workloadDef
	seed    int64
	seconds float64
	traced  bool
	// passFrames overrides the workload's pass length: the smoke test's
	// short passes.
	passFrames int
	// verbose prints one line per pass to standard error: what to look at
	// when a result is disputed.
	verbose bool
}

// runReport is a run's outcome: the result line plus what a reader needs
// to judge it.
type runReport struct {
	opt      runOptions
	host     hostInfo
	result   result
	passes   int
	frames   int
	keys     int
	setups   int
	speedMed float64
	spanFile string
	checkErr error
}

// passStats is one timed pass as the harness saw it.
type passStats struct {
	res      *passResult
	traced   bool
	refUS    float64 // reference kernel, mean of before and after
	speed    float64
	cpu      time.Duration
	mallocs  float64
	bytes    float64
	gcCycles float64
	gcPause  time.Duration
}

type harness struct {
	opt  runOptions
	env  *env
	ref  *refKernel
	inst instance
	no   int
}

// newEnv makes the scratch directory of one run. It lives under
// .bench_build in the working directory — the checkout — because a run
// may write nowhere else.
func newEnv(opt runOptions) (*env, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(root, "mvbench-")
	if err != nil {
		return nil, err
	}
	return &env{seed: opt.seed, tmp: tmp, exe: exe}, nil
}

// measured runs fn between two reference measurements and returns its
// wall time and the speed factor of that interval.
func (h *harness) measured(fn func() error) (wall time.Duration, refUS, speed float64, err error) {
	before := h.ref.measure()
	start := time.Now()
	err = fn()
	wall = time.Since(start)
	refUS = (before + h.ref.measure()) / 2
	return wall, refUS, refNominalUS / refUS, err
}

// onePass prepares, runs and finishes one pass.
func (h *harness) onePass(frames int, traced bool) (*passStats, error) {
	h.no++
	p, err := h.inst.prepare(passSpec{no: h.no, frames: frames, traced: traced})
	if err != nil {
		return nil, fmt.Errorf("pass %d: prepare: %w", h.no, err)
	}
	runtime.GC()
	st := &passStats{traced: traced}
	var m0, m1 runtime.MemStats
	var runErr error
	_, st.refUS, st.speed, runErr = h.measured(func() error {
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		err := p.run()
		st.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		return err
	})
	st.mallocs = float64(m1.Mallocs - m0.Mallocs)
	st.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	st.gcCycles = float64(m1.NumGC - m0.NumGC)
	st.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	res, finErr := p.finish()
	st.res = res
	if res != nil && res.probeUS > 0 {
		// An open-loop pass brings its own yardstick.
		st.refUS, st.speed = res.probeUS, refProbeNominalUS/res.probeUS
	}
	if h.opt.verbose && res != nil && res.completed > 0 {
		n := float64(res.completed)
		fmt.Fprintf(os.Stderr, "pass %2d traced=%-5v ref_us %7.2f speed %.4f raw: frames/s %9.2f p50_us %8.2f key_p50_us %8.2f p99_us %8.2f cpu_us/frame %8.2f allocs/frame %8.2f gc %2.0f\n",
			h.no, traced, st.refUS, st.speed, n/res.elapsed.Seconds(), nsPercentile(res.lat, 50), nsPercentile(res.keyLat, 50),
			nsPercentile(res.lat, 99), float64(st.cpu.Microseconds())/n, st.mallocs/n, st.gcCycles)
	}
	if runErr != nil {
		return st, fmt.Errorf("pass %d: %w", h.no, runErr)
	}
	if finErr != nil {
		return st, fmt.Errorf("pass %d: %w", h.no, finErr)
	}
	return st, nil
}

// run executes one run of a workload: set-up, warm-up, timed passes,
// and — traced — the layer drills.
func run(opt runOptions) (*runReport, error) {
	env, err := newEnv(opt)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.tmp)
	h := &harness{opt: opt, env: env, ref: newRefKernel()}
	h.ref.measure() // page in the kernel's data
	rep := &runReport{opt: opt, host: readHostInfo()}
	steal0, total0 := cpuJiffies()

	// Set-up, setupRuns times; the last instance is kept.
	var setups []float64
	runs := setupRuns
	if opt.traced {
		runs = 1 // the traced run reports no set-up time
	}
	for i := 0; i < runs; i++ {
		if h.inst != nil {
			if err := h.inst.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		wall, _, speed, err := h.measured(func() error {
			var err error
			h.inst, err = opt.def.setup(opt.def, env)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, wall.Seconds()*speed)
	}
	defer h.inst.close()
	rep.setups = len(setups)

	frames, warm := opt.def.passFrames, opt.def.warmFrames
	if opt.passFrames > 0 {
		frames, warm = opt.passFrames, opt.passFrames
	}
	if _, err := h.onePass(warm, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Timed passes until the time is used up. A traced run spends half
	// its time alternating untraced and traced passes and the rest on
	// the layer drills.
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.traced {
		budget /= 2
	}
	// One round is a pass; traced, an untraced pass and a traced one.
	round := []bool{false}
	if opt.traced {
		round = []bool{false, true}
	}
	var passes []*passStats
	start := time.Now()
	var longest time.Duration
	for rounds := 0; rounds < minPasses || time.Since(start)+longest < budget; rounds++ {
		t := time.Now()
		for _, traced := range round {
			st, err := h.onePass(frames, traced)
			if err != nil {
				return nil, err
			}
			passes = append(passes, st)
		}
		if d := time.Since(t); d > longest {
			longest = d
		}
	}

	rep.passes = len(passes)
	if opt.traced {
		layer, err := h.tracedMetrics(passes, rep)
		if err != nil {
			return nil, err
		}
		steal1, total1 := cpuJiffies()
		if total1 > total0 {
			layer["host.steal_share"] = (steal1 - steal0) / (total1 - total0)
		}
		rep.result.Metrics = map[string]metricValue{}
		for _, d := range perLayer {
			rep.result.Metrics[d.Name] = metricValue{Value: layer[d.Name], Unit: d.Unit}
		}
	} else {
		e2e := endToEndMetrics(opt.def, passes, rep)
		e2e["setup_s"] = median(setups)
		e2e["peak_rss_mb"] = peakRSSMB()
		rep.result.Metrics = map[string]metricValue{}
		for _, d := range endToEnd {
			rep.result.Metrics[d.Name] = metricValue{Value: e2e[d.Name], Unit: d.Unit}
		}
	}
	rep.result.Correct = rep.checkErr == nil
	return rep, nil
}

// tally folds the passes' counts and output checks into the report and
// returns the passes' speed factors.
func tally(passes []*passStats, rep *runReport) (speeds []float64) {
	first := passes[0].res
	for i, st := range passes {
		r := st.res
		rep.result.Attempted += r.attempted
		rep.result.Failed += r.failed
		rep.frames += r.completed
		rep.keys += len(r.keyLat)
		speeds = append(speeds, st.speed)
		if r.checkErr != nil && rep.checkErr == nil {
			rep.checkErr = fmt.Errorf("pass %d: %w", i+1, r.checkErr)
		}
		// Modelled outputs are a pure function of the inputs: every pass
		// must reproduce them exactly.
		if (r.recall != first.recall || r.slowestMS != first.slowestMS) && r.checkErr == nil && rep.checkErr == nil {
			rep.checkErr = fmt.Errorf("pass %d: recall %v slowest %v ms, pass 1 had %v and %v",
				i+1, r.recall, r.slowestMS, first.recall, first.slowestMS)
			rep.result.Failed += r.attempted - r.failed
		}
	}
	rep.speedMed = median(speeds)
	return speeds
}

// endToEndMetrics computes the per-pass, speed-corrected metrics and
// returns their medians across passes.
func endToEndMetrics(def *workloadDef, passes []*passStats, rep *runReport) map[string]float64 {
	tally(passes, rep)
	var fps, p50, key, cpu, allocs, bytes []float64
	for _, st := range passes {
		r := st.res
		if r.completed == 0 {
			continue
		}
		n := float64(r.completed)
		// In the open loop the schedule sets the rate, not the host.
		rate := st.speed
		if def.openLoop {
			rate = 1
		}
		fps = append(fps, n/r.elapsed.Seconds()/rate)
		p50 = append(p50, nsPercentile(r.lat, 50)*st.speed)
		key = append(key, nsPercentile(r.keyLat, 50)*st.speed)
		cpu = append(cpu, float64(st.cpu.Microseconds())/n*st.speed)
		allocs = append(allocs, st.mallocs/n)
		bytes = append(bytes, st.bytes/n)
	}
	first := passes[0].res
	completed := 1.0
	if rep.result.Attempted > 0 {
		completed = 1 - float64(rep.result.Failed)/float64(rep.result.Attempted)
	}
	return map[string]float64{
		"frames_per_s":       median(fps),
		"frame_p50_us":       median(p50),
		"key_frame_p50_us":   median(key),
		"cpu_us_per_frame":   median(cpu),
		"allocs_per_frame":   median(allocs),
		"bytes_per_frame":    median(bytes),
		"recall":             first.recall,
		"modeled_slowest_ms": first.slowestMS,
		"completed_share":    completed,
	}
}

// tracedMetrics turns the alternating untraced/traced passes and the
// layer drills into the per-layer metrics.
func (h *harness) tracedMetrics(passes []*passStats, rep *runReport) (map[string]float64, error) {
	layer := map[string]float64{}
	speeds := tally(passes, rep)

	// Diagnostics and the program's own breakdown come from the untraced
	// passes, spans from the traced ones; cost is what a frame costs with
	// and without tracing — wall time in a closed loop; in the open loop
	// the schedule fixes wall time, so CPU time.
	var refs, rawFPS, rawP50, p99, keyP90, gcCycles []float64
	var cost [2][]float64 // untraced, traced
	var table2 [4][]float64
	var pause time.Duration
	selfNS := map[string]int64{}
	var tracedFrames int
	var last []*tracer
	for _, st := range passes {
		r := st.res
		if r.completed == 0 {
			continue
		}
		n := float64(r.completed)
		refs = append(refs, st.refUS)
		perFrame := float64(r.elapsed) / n
		if h.opt.def.openLoop {
			perFrame = float64(st.cpu) / n
		}
		if st.traced {
			cost[1] = append(cost[1], perFrame)
			for _, tr := range r.tracers {
				tr.selfTimes(selfNS)
			}
			tracedFrames += r.completed
			last = r.tracers
			continue
		}
		cost[0] = append(cost[0], perFrame)
		rawFPS = append(rawFPS, n/r.elapsed.Seconds())
		rawP50 = append(rawP50, nsPercentile(r.lat, 50))
		p99 = append(p99, nsPercentile(r.lat, 99))
		keyP90 = append(keyP90, nsPercentile(r.keyLat, 90))
		gcCycles = append(gcCycles, st.gcCycles/n*1000)
		pause += st.gcPause
		for i := range table2 {
			table2[i] = append(table2[i], r.table2[i])
		}
		for name, v := range r.layer {
			layer[name] = math.Max(layer[name], v) // counters: the worst pass
		}
	}
	layer["engine.frame_p99_us"] = median(p99)
	layer["engine.key_frame_p90_us"] = median(keyP90)
	layer["raw.frames_per_s"] = median(rawFPS)
	layer["raw.frame_p50_us"] = median(rawP50)
	layer["host.ref_us"] = median(refs)
	layer["host.speed"] = median(speeds)
	layer["gc.cycles_per_kframe"] = median(gcCycles)
	layer["gc.pause_total_ms"] = float64(pause) / 1e6
	layer["table2.central_us"] = median(table2[0])
	layer["table2.tracking_us"] = median(table2[1])
	layer["table2.distributed_us"] = median(table2[2])
	layer["table2.batching_us"] = median(table2[3])
	if base := median(cost[0]); base > 0 {
		layer["trace.overhead_share"] = median(cost[1])/base - 1
	}
	if rep.result.Attempted > 0 {
		layer["failed_share"] = float64(rep.result.Failed) / float64(rep.result.Attempted)
	}
	if tracedFrames > 0 {
		perFrameUS := func(name string) float64 { return float64(selfNS[name]) / float64(tracedFrames) / 1e3 }
		layer["span.engine_self_us"] = perFrameUS(spanStep)
		layer["span.source_next_us"] = perFrameUS(spanSourceNext)
		layer["span.exec_submit_us"] = perFrameUS(spanExecSubmit)
		layer["span.sink_record_us"] = perFrameUS(spanSinkRecord)
		layer["span.rounds_record_us"] = perFrameUS(spanRoundsRecord)
		layer["span.store_append_us"] = perFrameUS(spanStoreAppend)
	}
	// The span file holds the last traced pass: every pass would run to
	// hundreds of megabytes on the pool workload.
	rep.spanFile = filepath.Join("bench", "out", fmt.Sprintf("spans-%s-seed%d.jsonl", h.opt.def.name, h.opt.seed))
	if err := writeSpans(rep.spanFile, last); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := h.drills(layer); err != nil {
		return nil, fmt.Errorf("layer drills: %w", err)
	}
	return layer, nil
}
