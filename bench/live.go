package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/store"
)

// corridor16-live-record is the open-loop workload, the production shape
// of `mvsim -ingest-addr -record`: a sender process pushes frame parts
// over one TCP connection on a fixed schedule, whether or not the engine
// keeps up; the engine assembles them, runs BALB, and records frames,
// snapshots and rounds into a store. A frame's latency runs from the
// instant it was due to be sent to the emission of its snapshot, so a
// stall delays — and is charged to — every frame queued behind it.

const (
	// liveInterval is the send schedule: 250 frames/s, about 27 % of the
	// ~940 frames/s this path sustains before the admission queues shed.
	liveInterval = 4 * time.Millisecond
	// liveLead is how far ahead of T0 the sender is started, so that its
	// start-up never eats into the schedule.
	liveLead = 300 * time.Millisecond
	// liveStall turns a sender that died into an error, not a hang.
	liveStall = 10 * time.Second
	// liveQueue is the per-camera admission queue, in parts: four seconds
	// of frames. This host stalls a process for up to half a second now
	// and then; with the default 16 parts (64 ms) such a stall sheds
	// frames and fails the run, with this it shows where an open loop
	// should show it — in the latency of the frames queued behind it.
	liveQueue = 1024
)

type liveInst struct {
	def   *workloadDef
	e     *env
	fleet *fleet
	dir   string
	// parts is the pre-encoded wire bytes of every frame's 16 parts, one
	// length-prefixed record per frame and a last one with the EOS
	// parts. Encoding happens here, in set-up, with the tree's own
	// EncodeFramePart; the sender only replays bytes on schedule.
	parts string
	// want caches, per pass length, the recall and modelled latency of
	// the same frames run straight from the trace: with nothing shed the
	// live run must reproduce them exactly.
	want map[int]*passResult
}

func setupLive(def *workloadDef, e *env) (instance, error) {
	f, err := buildFleet(def)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "live-")
	if err != nil {
		return nil, err
	}
	l := &liveInst{def: def, e: e, fleet: f, dir: dir, parts: filepath.Join(dir, "parts.bin"), want: map[int]*passResult{}}
	if err := l.encodeParts(def.passFrames); err != nil {
		return nil, err
	}
	// The first listener, store and engine count as set-up.
	p, err := l.build(passSpec{frames: def.passFrames})
	if err != nil {
		return nil, err
	}
	p.ingest.Close()
	if err := p.rec.Close(); err != nil {
		return nil, err
	}
	return l, os.RemoveAll(p.dir)
}

func (l *liveInst) close() error   { return os.RemoveAll(l.dir) }
func (l *liveInst) inputs() *fleet { return l.fleet }

// encodeParts writes the wire form of the first n test frames.
func (l *liveInst) encodeParts(n int) error {
	var out, frame bytes.Buffer
	record := func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(frame.Len()))
		out.Write(hdr[:])
		out.Write(frame.Bytes())
		frame.Reset()
	}
	cams := len(l.fleet.test.Cameras)
	for fi := range l.fleet.head(n).Frames {
		f := &l.fleet.test.Frames[fi]
		for cam, obs := range f.PerCamera {
			p := pipeline.FramePart{Cam: cam, Frame: fi, Obs: obs}
			if cam == 0 {
				p.Objects = f.Objects // ground truth rides on one part per frame
			}
			if err := pipeline.EncodeFramePart(&frame, p); err != nil {
				return err
			}
		}
		record()
	}
	for cam := 0; cam < cams; cam++ {
		if err := pipeline.EncodeFramePart(&frame, pipeline.FramePart{Cam: cam, EOS: true}); err != nil {
			return err
		}
	}
	record()
	return os.WriteFile(l.parts, out.Bytes(), 0o644)
}

// stampSink notes when each snapshot was emitted and the deepest
// admission queue any of them reported.
type stampSink struct {
	at       []int64 // UnixNano per emitted snapshot
	maxQueue int
}

func (s *stampSink) RecordFrame(snap metrics.Snapshot) {
	s.at = append(s.at, time.Now().UnixNano())
	if snap.QueueDepth > s.maxQueue {
		s.maxQueue = snap.QueueDepth
	}
}

func (s *stampSink) Flush() error { return nil }

// indexSource notes the stream index of every frame the engine pulls,
// so an emitted snapshot can be matched to its due time even if frames
// were shed.
type indexSource struct {
	pipeline.Source
	idx []int
}

func (s *indexSource) Next() (*scene.FrameTruth, error) {
	f, err := s.Source.Next()
	if err == nil {
		s.idx = append(s.idx, f.Index)
	}
	return f, err
}

type livePass struct {
	inst   *liveInst
	frames int
	dir    string
	ingest *pipeline.IngestSource
	rec    *store.Writer
	eng    *pipeline.Engine
	tr     *tracer
	stamp  *stampSink
	index  *indexSource
	t0     time.Time
	cmd    *exec.Cmd
	out    bytes.Buffer
	runErr error
}

// build makes the listener, ingest source, store and engine of one pass.
func (l *liveInst) build(spec passSpec) (*livePass, error) {
	no, frames, traced := spec.no, spec.frames, spec.traced
	p := &livePass{inst: l, frames: frames, dir: filepath.Join(l.dir, fmt.Sprintf("run-%d", no)),
		stamp: &stampSink{at: make([]int64, 0, frames)}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.ingest, err = pipeline.NewIngestSource(l.fleet.test.Cameras, pipeline.IngestConfig{Queue: liveQueue, Stall: liveStall})
	if err != nil {
		ln.Close()
		return nil, err
	}
	p.ingest.Serve(ln)
	roster, err := scene.MarshalCameras(l.fleet.test.Cameras)
	if err != nil {
		p.ingest.Close()
		return nil, err
	}
	cfg := balbConfig(l.e.seed)
	p.rec, err = store.CreateWith(p.dir, store.Manifest{
		Scenario: l.fleet.scn.Name, Seed: worldSeed, TraceFrames: l.def.train + l.def.test,
		Mode: cfg.Sched.Mode.String(), Horizon: horizon, Cameras: roster, Ingest: ln.Addr().String(),
	}, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		p.ingest.Close()
		return nil, err
	}
	// The same wiring as mvsim: frames tee'd into the store on their way
	// to the engine, snapshots and rounds recorded beside them, and the
	// ingest meter named explicitly because the tee hides it.
	var inner pipeline.Source = p.ingest
	var sink metrics.Sink = metrics.Multi(p.stamp, p.rec)
	var rounds metrics.RoundSink = p.rec
	if traced {
		p.tr = newTracer(fmt.Sprintf("%s/%d", l.def.name, no), frames)
		inner = &tracedSource{src: inner, t: p.tr, name: spanSourceNext}
		sink = &tracedSink{sink: sink, t: p.tr}
		rounds = &tracedRounds{rounds: rounds, t: p.tr}
	}
	p.index = &indexSource{Source: p.rec.Tee(inner), idx: make([]int, 0, frames)}
	var src pipeline.Source = p.index
	if traced {
		// The tee appends to the store inside Next: its span, less the
		// ingest span it causes, is the store append.
		src = &tracedSource{src: src, t: p.tr, name: spanStoreAppend}
	}
	cfg.Obs.Sink, cfg.Obs.Rounds, cfg.Obs.Ingest = sink, rounds, p.ingest
	p.eng, err = pipeline.NewEngine(src, l.fleet.profiles, l.fleet.model, cfg)
	if err != nil {
		p.ingest.Close()
		p.rec.Close()
		return nil, err
	}
	p.cmd = exec.Command(l.e.exe, "-role", "sender",
		"-addr", ln.Addr().String(), "-parts", l.parts,
		"-frames", strconv.Itoa(frames), "-interval", liveInterval.String())
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = os.Stderr
	return p, nil
}

func (l *liveInst) prepare(spec passSpec) (pass, error) {
	if spec.frames > l.def.passFrames {
		spec.frames = l.def.passFrames
	}
	frames := spec.frames
	if _, ok := l.want[frames]; !ok {
		// The trace run of the same frames: what the live run must score.
		eng, err := pipeline.NewEngine(pipeline.NewTraceSource(l.fleet.head(frames)), l.fleet.profiles, l.fleet.model, balbConfig(l.e.seed))
		if err != nil {
			return nil, err
		}
		if err := eng.Run(); err != nil {
			return nil, err
		}
		rep, err := eng.Report()
		if err != nil {
			return nil, err
		}
		want := &passResult{}
		fillReport(want, rep)
		l.want[frames] = want
	}
	p, err := l.build(spec)
	if err != nil {
		return nil, err
	}
	p.t0 = time.Now().Add(liveLead)
	p.cmd.Args = append(p.cmd.Args, "-t0", strconv.FormatInt(p.t0.UnixNano(), 10))
	if err := p.cmd.Start(); err != nil {
		p.ingest.Close()
		p.rec.Close()
		return nil, fmt.Errorf("start sender: %w", err)
	}
	return p, nil
}

func (p *livePass) run() error {
	for {
		var ok bool
		if p.tr != nil {
			ok, p.runErr = p.tr.step(p.eng)
		} else {
			ok, p.runErr = p.eng.Step()
		}
		if p.runErr != nil || !ok {
			break
		}
	}
	if err := p.rec.Close(); p.runErr == nil {
		p.runErr = err
	}
	return p.runErr
}

// senderReport is what the sender prints when it is done.
type senderReport struct {
	Frames    int     `json:"frames"`
	LateP50US float64 `json:"late_p50_us"`
	LateP99US float64 `json:"late_p99_us"`
	ProbeUS   float64 `json:"probe_us"`
}

func (p *livePass) finish() (*passResult, error) {
	if p.runErr != nil {
		p.cmd.Process.Kill() // the engine gave up; do not wait out the schedule
	}
	waitErr := p.cmd.Wait()
	p.ingest.Close()
	defer os.RemoveAll(p.dir)

	emitted := len(p.stamp.at)
	r := &passResult{attempted: p.frames, completed: emitted, failed: p.frames - emitted,
		layer: map[string]float64{}}
	if p.tr != nil {
		r.tracers = []*tracer{p.tr}
	}
	if p.runErr != nil {
		return r, p.runErr
	}
	if waitErr != nil {
		return r, fmt.Errorf("sender: %w", waitErr)
	}
	var sent senderReport
	if err := json.Unmarshal(bytes.TrimSpace(p.out.Bytes()), &sent); err != nil {
		return r, fmt.Errorf("sender report %q: %w", p.out.String(), err)
	}
	if emitted == 0 || len(p.index.idx) < emitted {
		return r, fmt.Errorf("%d snapshots emitted for %d frames pulled", emitted, len(p.index.idx))
	}
	r.lat = make([]int64, emitted)
	for k, at := range p.stamp.at {
		due := p.t0.Add(time.Duration(p.index.idx[k]) * liveInterval)
		r.lat[k] = at - due.UnixNano()
		if p.index.idx[k]%horizon == 0 {
			r.keyLat = append(r.keyLat, r.lat[k])
		}
	}
	r.elapsed = time.Duration(p.stamp.at[emitted-1] - p.t0.UnixNano())
	rep, err := p.eng.Report()
	if err != nil {
		return r, err
	}
	fillReport(r, rep)
	counters := p.ingest.Counters()
	r.probeUS = sent.ProbeUS
	r.layer["gen.late_p50_us"] = sent.LateP50US
	r.layer["gen.late_p99_us"] = sent.LateP99US
	r.layer["ingest.queue_depth_max"] = float64(p.stamp.maxQueue)
	r.layer["ingest.shed_parts"] = float64(counters.Shed)
	// A shed part is a camera's view of a frame lost: it counts as a
	// failed frame, like a frame that never came out.
	if r.failed += counters.Shed; r.failed > r.attempted {
		r.failed = r.attempted
	}

	// Output checks: the sender sent everything, the store re-opens with
	// exactly the frames emitted, nothing was shed, and the run scores
	// what the trace run of the same frames scores.
	want := p.inst.want[p.frames]
	run, err := store.Open(p.dir)
	switch {
	case err != nil:
		r.checkErr = fmt.Errorf("re-open recorded run: %w", err)
	case sent.Frames != p.frames:
		r.checkErr = fmt.Errorf("sender sent %d of %d frames", sent.Frames, p.frames)
	case run.NumFrames() != emitted:
		r.checkErr = fmt.Errorf("store holds %d frames, engine emitted %d", run.NumFrames(), emitted)
	case counters.Shed > 0:
		r.checkErr = fmt.Errorf("%d parts shed at %v a frame", counters.Shed, liveInterval)
	case r.recall != want.recall || r.slowestMS != want.slowestMS:
		r.checkErr = fmt.Errorf("live run scored recall %v slowest %v ms, trace run %v and %v",
			r.recall, r.slowestMS, want.recall, want.slowestMS)
	}
	if r.checkErr != nil && r.failed == 0 {
		r.failed = r.attempted
	}
	return r, nil
}
