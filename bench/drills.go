package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/cluster"
	"mvs/internal/core"
	"mvs/internal/flow"
	"mvs/internal/geom"
	"mvs/internal/gpu"
	"mvs/internal/hungarian"
	"mvs/internal/metrics"
	"mvs/internal/ml"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/serve"
	"mvs/internal/store"
	"mvs/internal/vision"
)

// Layer drills: each layer's public functions called at least a thousand
// times on inputs taken from the workload's own trace, reporting the
// median time per call and the allocations per call. They say what a
// layer costs in isolation; the seam spans say what it costs in the
// frame. Everything is driven from here, through exported functions
// only.

const (
	drillFrames  = 1200 // trace frames the drills draw inputs from
	drillCapture = 300  // frames of the engine run that captures requests and snapshots
)

// drill calls fn calls times, in batches of batch back-to-back calls
// (batch > 1 for calls too short to time one by one), and returns the
// median time per call in nanoseconds and the allocations per call.
func drill(calls, batch int, fn func(i int)) (ns, allocs float64) {
	if calls < batch {
		calls = batch
	}
	times := make([]float64, 0, calls/batch)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i+batch <= calls; i += batch {
		start := time.Now()
		for j := 0; j < batch; j++ {
			fn(i + j)
		}
		times = append(times, float64(time.Since(start))/float64(batch))
	}
	runtime.ReadMemStats(&m1)
	done := len(times) * batch
	return median(times), float64(m1.Mallocs-m0.Mallocs) / float64(done)
}

// drillInputs is what the drills draw on, all generated from the
// workload's scenario and seed.
type drillInputs struct {
	*fleet
	seed   int64
	tmp    string
	frames []scene.FrameTruth
	cam    int // the camera with the most observations, and cam+1 its neighbour
	// keyBoxes holds, per key frame, every camera's boxes — what the
	// central stage associates.
	keyBoxes [][][]geom.Rect
	// requests and snapshots were captured from a short engine run.
	requests  [][]pipeline.ExecRequest
	snapshots []metrics.Snapshot
}

// captureExec records every frame's requests on their way to a Local
// passthrough executor (which prices them exactly as the engine would).
type captureExec struct {
	inner    pipeline.TenantExecutor
	requests [][]pipeline.ExecRequest
}

func (c *captureExec) SubmitFrame(frame int, reqs []pipeline.ExecRequest) ([]pipeline.ExecResult, pipeline.ExecStats, error) {
	c.requests = append(c.requests, append([]pipeline.ExecRequest(nil), reqs...))
	return c.inner.SubmitFrame(frame, reqs)
}

type captureSink struct{ snaps []metrics.Snapshot }

func (c *captureSink) RecordFrame(s metrics.Snapshot) { c.snaps = append(c.snaps, s) }
func (c *captureSink) Flush() error                   { return nil }

func newDrillInputs(f *fleet, e *env) (*drillInputs, error) {
	in := &drillInputs{fleet: f, seed: e.seed, tmp: e.tmp}
	n := drillFrames
	if n > len(f.test.Frames) {
		n = len(f.test.Frames)
	}
	in.frames = f.test.Frames[:n]
	if in.model == nil {
		// The pool workload runs without a model; its drills train one on
		// the head of its own trace.
		cp := *f
		train := 150
		if train > n {
			train = n
		}
		cp.train = &scene.Trace{FPS: f.test.FPS, Cameras: f.test.Cameras, Frames: f.test.Frames[:train]}
		var err error
		if cp.model, err = assoc.Train(cp.train, assoc.Factories{Workers: 1}); err != nil {
			return nil, err
		}
		in.fleet = &cp
	}
	counts := make([]int, len(f.test.Cameras)-1)
	for fi := range in.frames {
		for c := range counts {
			counts[c] += len(in.frames[fi].PerCamera[c])
		}
	}
	for c, v := range counts {
		if v > counts[in.cam] {
			in.cam = c
		}
	}
	for fi := 0; fi < n; fi += horizon {
		boxes := make([][]geom.Rect, len(f.test.Cameras))
		for c, obs := range in.frames[fi].PerCamera {
			for _, o := range obs {
				boxes[c] = append(boxes[c], o.Box)
			}
		}
		in.keyBoxes = append(in.keyBoxes, boxes)
	}

	local, err := serve.NewLocal(in.profiles)
	if err != nil {
		return nil, err
	}
	exec := &captureExec{inner: local}
	sink := &captureSink{}
	cfg := balbConfig(in.seed)
	cfg.Serve.Executor = exec
	cfg.Obs.Sink = sink
	eng, err := pipeline.NewEngine(pipeline.NewTraceSource(in.head(drillCapture)), in.profiles, in.model, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	in.requests, in.snapshots = exec.requests, sink.snaps
	return in, nil
}

// drills runs every layer drill and writes its metrics into layer.
func (h *harness) drills(layer map[string]float64) error {
	in, err := newDrillInputs(h.inst.inputs(), h.env)
	if err != nil {
		return err
	}
	for _, d := range []func(*drillInputs, map[string]float64) error{
		drillFrameLoop, drillKeyFrame, drillSetup, drillServe,
		drillStore, drillIngest, drillControl, drillWorkers,
	} {
		if err := d(in, layer); err != nil {
			return err
		}
	}
	return nil
}

// must collects the first error of calls made inside a drill closure.
type must struct {
	mu  sync.Mutex
	err error
}

func (m *must) ok(err error) {
	if err == nil {
		return
	}
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
}

// drillFrameLoop prices what every regular frame does: detection,
// tracking (with its Hungarian match), batching, ownership.
func drillFrameLoop(in *drillInputs, layer map[string]float64) error {
	var m must
	frame := in.test.Cameras[in.cam].Frame()
	obs := func(i int) []scene.Observation { return in.frames[i%len(in.frames)].PerCamera[in.cam] }

	det := vision.NewDetector(in.seed, vision.Config{})
	ns, _ := drill(len(in.frames), 1, func(i int) { det.DetectFull(obs(i)) })
	layer["vision.detect_full_us"] = ns / 1e3
	regions := make([][]geom.Rect, len(in.frames))
	for i := range regions {
		for _, o := range obs(i) {
			q, _ := geom.QuantizeRect(o.Box, frame, nil)
			regions[i] = append(regions[i], q)
		}
	}
	ns, allocs := drill(len(in.frames), 1, func(i int) {
		_, err := det.DetectRegions(regions[i], obs(i))
		m.ok(err)
	})
	layer["vision.detect_regions_us"], layer["vision.detect_allocs"] = ns/1e3, allocs

	dets := make([][]vision.Detection, len(in.frames))
	for i := range dets {
		dets[i] = det.DetectFull(obs(i))
	}
	tracker, err := flow.NewTracker(frame, flow.Config{})
	if err != nil {
		return err
	}
	ns, allocs = drill(len(dets), 1, func(i int) {
		_, err := tracker.Update(dets[i])
		m.ok(err)
	})
	layer["flow.update_us"], layer["flow.update_allocs"] = ns/1e3, allocs

	rng := xorshift(uint64(in.seed)*2654435761 + 1)
	cost := make([][]float64, 20)
	for i := range cost {
		cost[i] = make([]float64, 20)
		for j := range cost[i] {
			cost[i][j] = rng.float()
		}
	}
	ns, allocs = drill(2000, 1, func(int) {
		_, _, err := hungarian.Solve(cost)
		m.ok(err)
	})
	layer["hungarian.solve20_us"], layer["hungarian.solve20_allocs"] = ns/1e3, allocs

	// Batching, on the partial-inspection task lists the engine formed.
	var tasks [][]gpu.Task
	var profs []*profile.Profile
	for _, frameReqs := range in.requests {
		for _, r := range frameReqs {
			if !r.Full && len(r.Tasks) > 0 {
				tasks = append(tasks, r.Tasks)
				profs = append(profs, in.profiles[r.Cam])
			}
		}
	}
	if len(tasks) == 0 {
		return fmt.Errorf("captured no partial-inspection tasks")
	}
	ns, _ = drill(2000, 1, func(i int) {
		_, err := gpu.FormBatches(tasks[i%len(tasks)], profs[i%len(tasks)])
		m.ok(err)
	})
	layer["gpu.form_batches_us"] = ns / 1e3
	ex, err := gpu.NewExecutor(profile.Derived(profile.JetsonXavier))
	if err != nil {
		return err
	}
	ns, allocs = drill(2000, 1, func(i int) {
		_, err := ex.RunFrame(tasks[i%len(tasks)])
		m.ok(err)
	})
	layer["gpu.run_frame_us"], layer["gpu.run_frame_allocs"] = ns/1e3, allocs
	pk, err := gpu.NewPacker(profile.Derived(profile.JetsonXavier))
	if err != nil {
		return err
	}
	var flat []gpu.Task
	for _, ts := range tasks {
		flat = append(flat, ts...)
	}
	ns, _ = drill(64000, 64, func(i int) {
		_, _, err := pk.Add(flat[i%len(flat)])
		m.ok(err)
	})
	layer["gpu.packer_add_ns"] = ns

	// Ownership: the distributed stage's per-cell owner lookup.
	grid := geom.NewGrid(frame, 16, 9)
	covers, err := in.model.CellCoverage(in.cam, grid)
	if err != nil {
		return err
	}
	prio := make([]int, len(in.profiles))
	for i := range prio {
		prio[i] = i
	}
	policy, err := core.NewDistributedPolicy(prio)
	if err != nil {
		return err
	}
	ns, _ = drill(100000, 1000, func(i int) { policy.Owner(covers[i%len(covers)]) })
	layer["core.policy_owner_ns"] = ns
	return m.err
}

// drillKeyFrame prices the central stage: association (pair models, KNN
// lookups) and the BALB solve, on the boxes of the trace's key frames.
func drillKeyFrame(in *drillInputs, layer map[string]float64) error {
	var m must
	ns, allocs := drill(1000, 1, func(i int) {
		_, err := in.model.AssociateWorkers(in.keyBoxes[i%len(in.keyBoxes)], 0.1, 1)
		m.ok(err)
	})
	layer["assoc.associate_us"], layer["assoc.associate_allocs"] = ns/1e3, allocs

	var boxes []geom.Rect
	for _, kb := range in.keyBoxes {
		boxes = append(boxes, kb[in.cam]...)
	}
	if len(boxes) == 0 {
		return fmt.Errorf("camera %d sees nothing at key frames", in.cam)
	}
	ns, _ = drill(20000, 100, func(i int) {
		_, _, err := in.model.MapBox(in.cam, in.cam+1, boxes[i%len(boxes)])
		m.ok(err)
	})
	layer["assoc.map_box_ns"] = ns

	samples, err := assoc.BuildPairSamples(in.train, in.cam, in.cam+1)
	if err != nil {
		return err
	}
	x, y := assoc.ClassificationData(samples)
	clf := &ml.KNNClassifier{K: 5}
	if err := clf.Fit(x, y); err != nil {
		return err
	}
	ns, allocs = drill(20000, 100, func(i int) {
		_, err := clf.Predict(boxes[i%len(boxes)].Vec4())
		m.ok(err)
	})
	layer["ml.knn_predict_ns"], layer["ml.knn_predict_allocs"] = ns, allocs

	// One MVS instance per key frame, built the way the engine builds it:
	// an object per associated group, covered by its members' cameras at
	// their quantized sizes.
	cams := make([]core.CameraSpec, len(in.profiles))
	for i, p := range in.profiles {
		cams[i] = core.CameraSpec{Index: i, Profile: p}
	}
	instances := make([][]core.ObjectSpec, len(in.keyBoxes))
	for k, kb := range in.keyBoxes {
		groups, err := in.model.Associate(kb, 0.1)
		if err != nil {
			return err
		}
		for gi, g := range groups {
			spec := core.ObjectSpec{ID: gi + 1, Size: map[int]int{}}
			for _, ref := range g.Members {
				if _, seen := spec.Size[ref.Cam]; !seen {
					spec.Coverage = append(spec.Coverage, ref.Cam)
				}
				spec.Size[ref.Cam] = geom.QuantizeSize(kb[ref.Cam][ref.Index].LongSide(), nil)
			}
			instances[k] = append(instances[k], spec)
		}
	}
	ns, allocs = drill(1000, 1, func(i int) {
		_, err := core.Central(cams, instances[i%len(instances)], core.CentralOptions{})
		m.ok(err)
	})
	layer["core.central_us"], layer["core.central_allocs"] = ns/1e3, allocs
	return m.err
}

// drillSetup prices what setup_s is made of.
func drillSetup(in *drillInputs, layer map[string]float64) error {
	var m must
	ns, _ := drill(3, 1, func(int) {
		_, err := in.scn.World.Run(600)
		m.ok(err)
	})
	layer["scene.world_run_us_per_frame"] = ns / 600 / 1e3
	ns, _ = drill(3, 1, func(int) {
		_, err := assoc.Train(in.train, assoc.Factories{Workers: 1})
		m.ok(err)
	})
	layer["assoc.train_ms"] = ns / 1e6
	ns, _ = drill(5, 1, func(int) {
		for c, cam := range in.test.Cameras {
			_, err := in.model.CellCoverage(c, geom.NewGrid(cam.Frame(), 16, 9))
			m.ok(err)
		}
	})
	layer["assoc.cell_coverage_ms"] = ns / 1e6
	ns, _ = drill(5, 1, func(int) {
		_, err := pipeline.NewEngine(pipeline.NewTraceSource(in.test), in.profiles, in.model, balbConfig(in.seed))
		m.ok(err)
	})
	layer["pipeline.new_engine_ms"] = ns / 1e6
	return m.err
}

// drillServe prices one tenant's frame at the pool: admission, fair
// queueing, packing, placement — without the barrier wait.
func drillServe(in *drillInputs, layer map[string]float64) error {
	pool, err := serve.NewPool(serve.Config{
		Executors: tenantExecutors, Profile: profile.Derived(profile.JetsonXavier),
		Consolidate: true, DefaultSLO: tenantSLO,
	})
	if err != nil {
		return err
	}
	tenant, err := pool.Register("drill", 1, 0)
	if err != nil {
		return err
	}
	defer tenant.Finish()
	var m must
	ns, _ := drill(2000, 1, func(i int) {
		_, _, err := tenant.SubmitFrame(i, in.requests[i%len(in.requests)])
		m.ok(err)
	})
	layer["serve.submit_frame_us"] = ns / 1e3
	return m.err
}

// drillStore prices the store both ways — append and record, then open
// and replay — and the snapshot encoding both ways share.
func drillStore(in *drillInputs, layer map[string]float64) error {
	var m must
	var size int
	ns, allocs := drill(5000, 10, func(i int) {
		b, err := json.Marshal(in.snapshots[i%len(in.snapshots)])
		m.ok(err)
		size += len(b)
	})
	layer["metrics.snapshot_marshal_ns"], layer["metrics.snapshot_marshal_allocs"] = ns, allocs
	layer["metrics.snapshot_bytes"] = float64(size) / 5000

	dir := filepath.Join(in.tmp, "drill-store")
	defer os.RemoveAll(dir)
	roster, err := scene.MarshalCameras(in.test.Cameras)
	if err != nil {
		return err
	}
	w, err := store.Create(dir, store.Manifest{Scenario: in.scn.Name, Mode: "BALB", Horizon: horizon, Cameras: roster})
	if err != nil {
		return err
	}
	ns, _ = drill(len(in.frames), 1, func(i int) { m.ok(w.AppendFrame(&in.frames[i])) })
	layer["store.append_frame_us"] = ns / 1e3
	ns, _ = drill(len(in.frames), 1, func(i int) { w.RecordFrame(in.snapshots[i%len(in.snapshots)]) })
	layer["store.record_frame_us"] = ns / 1e3
	if err := w.Close(); err != nil {
		return err
	}
	var bytesOnDisk int64
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			bytesOnDisk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	layer["store.bytes_per_frame"] = float64(bytesOnDisk) / float64(len(in.frames))

	ns, _ = drill(20, 1, func(int) {
		_, err := store.Open(dir)
		m.ok(err)
	})
	layer["store.open_ms"] = ns / 1e6
	run, err := store.Open(dir)
	if err != nil {
		return err
	}
	src, err := run.Source()
	if err != nil {
		return err
	}
	defer src.Close()
	ns, _ = drill(len(in.frames), 1, func(int) {
		_, err := src.Next()
		m.ok(err)
	})
	layer["store.replay_next_us"] = ns / 1e3
	return m.err
}

// drillIngest prices the live path: the part codec, in-process
// admission and assembly, and the whole TCP path flat out.
func drillIngest(in *drillInputs, layer map[string]float64) error {
	var m must
	cams := len(in.test.Cameras)
	var parts []pipeline.FramePart
	for fi := 0; fi < 200 && fi < len(in.frames); fi++ {
		for c, obs := range in.frames[fi].PerCamera {
			p := pipeline.FramePart{Cam: c, Frame: fi, Obs: obs}
			if c == 0 {
				p.Objects = in.frames[fi].Objects
			}
			parts = append(parts, p)
		}
	}
	var buf bytes.Buffer
	ns, _ := drill(len(parts), cams, func(i int) {
		if i%cams == 0 {
			buf.Reset()
		}
		m.ok(pipeline.EncodeFramePart(&buf, parts[i]))
	})
	layer["pipeline.encode_part_ns"] = ns
	wire := make([][]byte, len(parts))
	var stream bytes.Buffer
	for i, p := range parts {
		buf.Reset()
		if err := pipeline.EncodeFramePart(&buf, p); err != nil {
			return err
		}
		wire[i] = append([]byte(nil), buf.Bytes()...)
		stream.Write(wire[i])
	}
	var rd bytes.Reader
	ns, allocs := drill(len(parts), cams, func(i int) {
		rd.Reset(wire[i])
		_, err := pipeline.DecodeFramePart(&rd)
		m.ok(err)
	})
	layer["pipeline.decode_part_ns"], layer["pipeline.decode_part_allocs"] = ns, allocs

	src, err := pipeline.NewIngestSource(in.test.Cameras, pipeline.IngestConfig{})
	if err != nil {
		return err
	}
	ns, _ = drill(len(in.frames), 1, func(i int) {
		for c, obs := range in.frames[i].PerCamera {
			m.ok(src.Offer(pipeline.FramePart{Cam: c, Frame: i, Obs: obs}))
		}
		_, err := src.Next()
		m.ok(err)
	})
	src.Close()
	layer["pipeline.ingest_offer_next_ns"] = ns

	// Flat out over loopback: one writer, the accept/decode/offer path,
	// and a consumer draining assembled frames. The writer outruns the
	// consumer, so the queues evict some admitted parts; admitted parts
	// per second is the path's admission rate.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tcp, err := pipeline.NewIngestSource(in.test.Cameras, pipeline.IngestConfig{Stall: liveStall})
	if err != nil {
		ln.Close()
		return err
	}
	defer tcp.Close()
	tcp.Serve(ln)
	for c := 0; c < cams; c++ {
		if err := pipeline.EncodeFramePart(&stream, pipeline.FramePart{Cam: c, EOS: true}); err != nil {
			return err
		}
	}
	writeErr := make(chan error, 1)
	start := time.Now()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			_, err = conn.Write(stream.Bytes())
			conn.Close()
		}
		writeErr <- err
	}()
	for {
		if _, err := tcp.Next(); err != nil {
			if err != io.EOF {
				m.ok(err)
			}
			break
		}
	}
	elapsed := time.Since(start)
	m.ok(<-writeErr)
	if c := tcp.Counters(); c.Ingested != len(parts) {
		m.ok(fmt.Errorf("ingest admitted %d of %d parts", c.Ingested, len(parts)))
	}
	layer["pipeline.ingest_tcp_parts_per_s"] = float64(len(parts)) / elapsed.Seconds()
	return m.err
}

// drillControl records the adapt controller and the cluster round trip,
// so the camera/round kernel refactor (ROADMAP item 2) has a before.
func drillControl(in *drillInputs, layer map[string]float64) error {
	var m must
	ctrl := adapt.NewController(adapt.Policy{SLO: tenantSLO})
	ns, _ := drill(100000, 100, func(i int) {
		ctrl.Observe(adapt.Sample{Latency: time.Duration(i%200) * time.Millisecond})
		if i%horizon == 0 {
			ctrl.Tick()
		}
	})
	layer["adapt.observe_tick_ns"] = ns

	// A two-camera scheduler on loopback: both nodes upload a key frame's
	// tracks, the scheduler associates, solves and replies to both.
	pair := []int{in.cam, in.cam + 1}
	sub, err := in.model.Subset(pair)
	if err != nil {
		return err
	}
	sched, err := cluster.NewScheduler(sub, []*profile.Profile{in.profiles[pair[0]], in.profiles[pair[1]]}, 0.1)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- sched.Serve(ln) }()
	clients := make([]*cluster.Client, 2)
	for i := range clients {
		f := in.test.Cameras[pair[i]].Frame()
		if clients[i], err = cluster.Dial(ln.Addr().String(), i, 5*time.Second, f.W(), f.H()); err != nil {
			sched.Close()
			<-served
			return err
		}
	}
	reports := func(k, side int) []cluster.TrackReport {
		boxes := in.keyBoxes[k%len(in.keyBoxes)][pair[side]]
		out := make([]cluster.TrackReport, len(boxes))
		for i, b := range boxes {
			out[i] = cluster.TrackReport{TrackID: i + 1, Box: [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY},
				Size: geom.QuantizeSize(b.LongSide(), nil)}
		}
		return out
	}
	ns, _ = drill(1000, 1, func(i int) {
		var wg sync.WaitGroup
		for side, c := range clients {
			wg.Add(1)
			go func(side int, c *cluster.Client) {
				defer wg.Done()
				_, err := c.KeyFrame(i*horizon, reports(i, side), 5*time.Second)
				m.ok(err)
			}(side, c)
		}
		wg.Wait()
	})
	layer["cluster.keyframe_rtt_us"] = ns / 1e3
	for _, c := range clients {
		c.Close()
	}
	sched.Close()
	m.ok(<-served)

	env := &cluster.Envelope{Type: cluster.TypeDetections,
		Detections: &cluster.Detections{Camera: 0, Frame: 10, Tracks: reports(0, 0)}}
	var buf bytes.Buffer
	ns, _ = drill(5000, 10, func(int) {
		buf.Reset()
		m.ok(cluster.WriteMessage(&buf, env))
		_, err := cluster.ReadMessage(&buf)
		m.ok(err)
	})
	layer["cluster.envelope_codec_ns"] = ns
	return m.err
}

// drillWorkers settles with data what the per-camera fan-out earns on
// this host: pass time on the sequential path over pass time at
// Workers = GOMAXPROCS (above 1, the fan-out wins).
func drillWorkers(in *drillInputs, layer map[string]float64) error {
	trace := in.head(600)
	var times [2][]float64
	for round := 0; round < 3; round++ {
		for k, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			cfg := balbConfig(in.seed)
			cfg.Sched.Workers = workers
			eng, err := pipeline.NewEngine(pipeline.NewTraceSource(trace), in.profiles, in.model, cfg)
			if err != nil {
				return err
			}
			start := time.Now()
			if err := eng.Run(); err != nil {
				return err
			}
			times[k] = append(times[k], float64(time.Since(start)))
		}
	}
	layer["pipeline.workers_speedup"] = median(times[0]) / median(times[1])
	return nil
}
