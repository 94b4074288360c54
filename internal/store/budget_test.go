package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// These are the tier-1 guards of the two paths only the benchmark module
// measures (corridor16-live-record, s4-replay-verify): tier 1 cannot see
// bench/, so a per-part or per-line allocation coming back would pass it
// unnoticed. They sit beside the store's other engine-driving tests
// because they need pipeline and store together.

// budgetFleet is an S1 run split into a training half, used for the
// association model, and the frames the tests stream.
type budgetFleet struct {
	s     *workload.Scenario
	test  *scene.Trace
	model *assoc.Model
}

func newBudgetFleet(t *testing.T, frames int) *budgetFleet {
	t.Helper()
	s := workload.S1(3)
	trace, err := s.World.Run(150 + frames)
	if err != nil {
		t.Fatal(err)
	}
	train, test := *trace, *trace
	train.Frames, test.Frames = trace.Frames[:150], trace.Frames[150:]
	model, err := assoc.Train(&train, assoc.Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &budgetFleet{s: s, test: &test, model: model}
}

func (b *budgetFleet) create(t *testing.T, segmentSize int) (string, *Writer) {
	t.Helper()
	roster, err := scene.MarshalCameras(b.test.Cameras)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Scenario: b.s.Name, Seed: 3, Mode: pipeline.BALB.String(),
		Horizon: 10, SegmentSize: segmentSize, Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	return dir, w
}

// liveRecordAllocCeiling bounds the mean allocations of one frame of the
// production shape below: it reads 1.5 a frame, and the ceiling is that
// plus a margin of 1.5. What is left is what crosses a sink seam and is
// fresh on purpose (docs/CONCURRENCY.md §6 part 3) — the snapshot's
// camera table every frame and a key frame's round lists — and the
// engine's buffers still growing to a larger frame than any before. The
// connection decodes into its reader's storage, the ingest queues and
// the lent frame recycle theirs (pipeline.TestIngestSteadyStateAllocations),
// and the snapshot and the round encode into the writer's own buffer
// (TestWriterRecordAllocatesNothing). A per-part or per-record make()
// anywhere on the path adds at least four a frame on this four-camera
// fleet.
const liveRecordAllocCeiling = 3

// raceRecordAllocs is what a -race build adds to liveRecordAllocCeiling:
// there sync.Pool drops encoding/json's encode state at random, and the
// same run reads 4.3-5.4 a frame.
const raceRecordAllocs = 4

// TestLiveRecordAllocationBudget runs S1 over loopback TCP into an
// IngestSource, through Writer.Tee into a BALB engine with the writer as
// sink and round sink, the sender in lockstep with the engine so the
// steady state is the same on every host, and bounds what a frame
// allocates.
func TestLiveRecordAllocationBudget(t *testing.T) {
	const warm, measured = 200, 300
	b := newBudgetFleet(t, warm+measured)
	wire := make([][]byte, len(b.test.Frames)) // a frame's parts, encoded before anything is counted
	for fi := range b.test.Frames {
		var buf bytes.Buffer
		for _, p := range pipeline.AppendFrameParts(nil, fi, &b.test.Frames[fi]) {
			if err := pipeline.EncodeFramePart(&buf, p); err != nil {
				t.Fatal(err)
			}
		}
		wire[fi] = buf.Bytes()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	src, err := pipeline.NewIngestSource(b.test.Cameras, pipeline.IngestConfig{})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	defer src.Close()
	src.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	_, w := b.create(t, 0)
	cfg := pipeline.NewConfig(pipeline.BALB, 3)
	cfg.Sched.Workers = 1
	cfg.Obs.Sink, cfg.Obs.Rounds, cfg.Obs.Ingest = w, w, src
	eng, err := pipeline.NewEngine(w.Tee(src), b.s.Profiles(), b.model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	step := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(wire[sent]); err != nil {
				t.Fatal(err)
			}
			sent++
			if ok, err := eng.Step(); !ok || err != nil {
				t.Fatalf("step %d: %v %v", sent, ok, err)
			}
		}
	}
	step(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step(measured)
	runtime.ReadMemStats(&after)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c := src.Counters(); c.Shed != 0 || c.Ingested != sent*len(b.test.Cameras) {
		t.Fatalf("ingest admitted %d parts and shed %d of %d sent", c.Ingested, c.Shed, sent*len(b.test.Cameras))
	}
	perFrame := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocations, %.0f bytes per live recorded frame", perFrame, float64(after.TotalAlloc-before.TotalAlloc)/measured)
	ceiling := liveRecordAllocCeiling
	if raceEnabled {
		ceiling += raceRecordAllocs
	}
	if perFrame > float64(ceiling) {
		t.Fatalf("%.1f allocations per frame over frames %d..%d, ceiling %d: the ingest decode or the store append is allocating per part or per record again",
			perFrame, warm, warm+measured, ceiling)
	}
}

// TestReplayAllocationBudget bounds Replay.Next: warm, a frame allocates
// nothing — the read buffer and the ring's decoders are reused — and
// crossing into the next segment costs what opening its file costs and
// no new read buffer. The producer decodes up to replaySlots frames
// ahead of Next, so it opens a segment while Next is still that many
// frames short of it.
//
// What the runtime allocates for itself is kept out of the count. The
// test runs at one P, as AllocsPerRun measures: a P that GOMAXPROCS
// takes away drops the runtime's cache of parked-goroutine records with
// it, and the next park on a P with an empty cache allocates one. And
// the collector is stopped before the warm-up: the work it leaves for
// background goroutines after a cycle allocates, and it runs whenever
// the two sides of the replay park.
func TestReplayAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const frames, segmentSize = 200, 50
	b := newBudgetFleet(t, frames)
	dir, w := b.create(t, segmentSize)
	// The log holds the frames twice: reading the first copy grows the
	// replay's storage to the largest of them, the second is measured.
	// The copy is a whole number of rings long, so each slot decodes the
	// same frames in both.
	for range 2 {
		for fi := range b.test.Frames {
			if err := w.AppendFrame(&b.test.Frames[fi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	next := func() {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for range frames + 1 { // the first copy, and into the second's first segment
		next()
	}
	openSeg := filepath.Join(dir, framesDir, segmentName(0))
	perOpen := testing.AllocsPerRun(20, func() {
		f, err := os.Open(openSeg)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	})

	// The rest of that segment, up to where the producer may open the
	// next: nothing at all.
	if frames%replaySlots != 0 {
		t.Fatalf("%d frames are not a whole number of %d-slot rings", frames, replaySlots)
	}
	quiet := segmentSize - replaySlots
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range quiet {
		next()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations over %d warm frames of one segment, want 0", n, quiet)
	}
	// Across the remaining segment boundaries: the opens, and no more.
	left := frames - 1 - quiet
	opened := (frames - segmentSize) / segmentSize
	runtime.ReadMemStats(&before)
	if n := testing.AllocsPerRun(left-1, next); n != 0 {
		t.Fatalf("warm Replay.Next across %d segment boundaries: %v allocations a frame, want 0", opened, n)
	}
	runtime.ReadMemStats(&after)
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d allocations, %d bytes over %d frames and %d segment opens (an open alone: %v allocations)",
		mallocs, bytes, left, opened, perOpen)
	if mallocs > uint64(opened)*uint64(perOpen+1) || bytes >= replayReadBuffer {
		t.Fatalf("%d allocations (%d bytes) over %d frames and %d segment opens; the opens account for %v each and no read buffer",
			mallocs, bytes, left, opened, perOpen+1)
	}
}

// keepAll keeps every snapshot and round an engine emits.
type keepAll struct {
	snaps  []metrics.Snapshot
	rounds []metrics.Round
}

func (k *keepAll) RecordFrame(s metrics.Snapshot) { k.snaps = append(k.snaps, s) }
func (k *keepAll) Flush() error                   { return nil }
func (k *keepAll) RecordRound(r metrics.Round)    { k.rounds = append(k.rounds, r) }

type bothRounds []metrics.RoundSink

func (b bothRounds) RecordRound(r metrics.Round) {
	for _, s := range b {
		s.RecordRound(r)
	}
}

// TestRecordedBytesUnchanged records a run through the writer — frames,
// snapshots and rounds interleaved through its one line buffer, segments
// rolling — and reads every log back a line at a time: each line is one
// record whose checksum holds, and its body is json.Marshal's
// (scene.MarshalFrame for a frame, whose bytes the scene package holds
// to encoding/json's) of the record it stands for, in order.
func TestRecordedBytesUnchanged(t *testing.T) {
	const frames, segmentSize = 150, 32
	b := newBudgetFleet(t, frames)
	dir, w := b.create(t, segmentSize)
	var kept keepAll
	cfg := pipeline.NewConfig(pipeline.BALB, 3)
	cfg.Obs.Sink, cfg.Obs.Rounds = metrics.Multi(w, &kept), bothRounds{w, &kept}
	eng, err := pipeline.NewEngine(w.Tee(pipeline.NewTraceSource(b.test)), b.s.Profiles(), b.model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(kept.snaps) != frames || len(kept.rounds) == 0 {
		t.Fatalf("run emitted %d snapshots and %d rounds", len(kept.snaps), len(kept.rounds))
	}

	want := map[string]*bytes.Buffer{}
	add := func(file string, body []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if want[file] == nil {
			want[file] = &bytes.Buffer{}
		}
		want[file].Write(append(body, '\n'))
	}
	for i := range kept.snaps {
		body, err := json.Marshal(kept.snaps[i])
		add(snapshotsFile, body, err)
	}
	for i := range kept.rounds {
		body, err := json.Marshal(kept.rounds[i])
		add(roundsFile, body, err)
	}
	for fi := range b.test.Frames {
		body, err := scene.MarshalFrame(&b.test.Frames[fi])
		add(filepath.Join(framesDir, fmt.Sprintf("seg-%06d.jsonl", fi/segmentSize)), body, err)
	}
	if len(want) != 2+(frames+segmentSize-1)/segmentSize {
		t.Fatalf("rebuilt %d files", len(want))
	}
	for file, buf := range want {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		var bodies bytes.Buffer
		if err := decodeLines(got, Version, func(body []byte) error {
			bodies.Write(append(body, '\n'))
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if lines := bytes.Count(got, []byte("\n")); !bytes.Equal(bodies.Bytes(), buf.Bytes()) || lines != bytes.Count(buf.Bytes(), []byte("\n")) {
			t.Fatalf("%s: %d lines whose bodies differ from json.Marshal's of the records (%d bytes against %d)", file, lines, bodies.Len(), buf.Len())
		}
	}
}

// TestWriterRecordAllocatesNothing: a warm Writer encodes a snapshot and
// a round with its own encoder into its own buffer, so recording either
// allocates nothing, and it keeps neither record's slices past the call.
func TestWriterRecordAllocatesNothing(t *testing.T) {
	_, roster := testRoster(t, 3)
	w, err := Create(filepath.Join(t.TempDir(), "run"), Manifest{Mode: "balb", Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	snap := metrics.Snapshot{Source: metrics.SourcePipeline, Label: "balb", Seq: 7, Frame: 7, TP: 40, FN: 2,
		Recall: 0.95, FrameLatency: 31e6, Cameras: []metrics.CameraSnapshot{
			{Camera: 0, Latency: 31e6, Batches: 2, Images: 9, BatchOccupancy: 0.5625, Tracks: 9},
			{Camera: 1, Latency: 12e6, Tracks: 1, Shadows: 2},
			{Camera: 2},
		}}
	round := metrics.Round{Source: metrics.SourcePipeline, Label: "balb", Seq: 1, Frame: 10, Objects: 12,
		Priority: []int{2, 0, 1}, Assigned: []int{5, 4, 3}}
	w.RecordFrame(snap)
	w.RecordRound(round)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.snap.Cameras != nil || w.round.Priority != nil {
		t.Fatal("the writer kept the last record's slices past the call")
	}
	if raceEnabled {
		t.Skip("under -race sync.Pool drops encoding/json's encode state at random")
	}
	if n := testing.AllocsPerRun(100, func() { w.RecordFrame(snap) }); n != 0 {
		t.Fatalf("warm Writer.RecordFrame: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { w.RecordRound(round) }); n != 0 {
		t.Fatalf("warm Writer.RecordRound: %v allocations, want 0", n)
	}
}

// TestRecoverDecodesWithoutGarbage: Recover validates every frame record
// through one reused decoder, so what it allocates does not grow with
// the frames it reads (UnmarshalFrame allocates at least two a frame).
func TestRecoverDecodesWithoutGarbage(t *testing.T) {
	const frames = 300
	b := newBudgetFleet(t, frames)
	dir, w := b.create(t, frames)
	for fi := range b.test.Frames {
		if err := w.AppendFrame(&b.test.Frames[fi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := Recover(dir)
	runtime.ReadMemStats(&after)
	if err != nil || rec.Frames != frames {
		t.Fatalf("Recover: %+v, %v", rec, err)
	}
	n := after.Mallocs - before.Mallocs
	t.Logf("Recover of %d frames: %d allocations", frames, n)
	if n >= frames/2 {
		t.Fatalf("Recover made %d allocations over %d frames; decoding a frame must not allocate", n, frames)
	}
	checkRecovered(t, dir, rec)
}
