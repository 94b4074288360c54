package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// TestReplayByteIdentical is the golden replay test (the tentpole's
// acceptance): a 16-camera corridor run with camera faults is recorded
// through the store, then re-driven from the recorded frame log — and
// the replay's snapshot JSONL is byte-for-byte the recorded one.
func TestReplayByteIdentical(t *testing.T) {
	const (
		scenario  = "C16"
		seed      = int64(9)
		frames    = 200
		faultSpec = "seed=7,rate=0.05,mean=10"
		healthK   = 3
	)
	s, err := workload.ByName(scenario, seed)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := s.World.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	train, test := trace.SplitTrain()
	model, err := assoc.Train(train, assoc.Factories{})
	if err != nil {
		t.Fatal(err)
	}
	fcfg, err := pipeline.ParseFaultSpec(faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := pipeline.GenerateFaults(fcfg, len(test.Cameras), len(test.Frames))
	if err != nil {
		t.Fatal(err)
	}

	// Record: the run streams through the store's tee, with the store as
	// both frame sink and round sink.
	roster, err := scene.MarshalCameras(test.Cameras)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{
		Scenario: scenario, Seed: seed, TraceFrames: frames,
		Mode: pipeline.BALB.String(), Horizon: 10,
		CamFaults: faultSpec, HealthK: healthK,
		SegmentSize: 32, Cameras: roster,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.NewConfig(pipeline.BALB, seed)
	cfg.Fault.CamFaults = faults
	cfg.Fault.HealthK = healthK
	cfg.Obs.Sink = w
	cfg.Obs.Rounds = w
	eng, err := pipeline.NewEngine(w.Tee(pipeline.NewTraceSource(test)), s.Profiles(), model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	recorded, err := eng.Report()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay: same configuration, frames from the store instead of the
	// simulator, snapshots into a buffer.
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumFrames() != len(test.Frames) {
		t.Fatalf("recorded %d frames, trace has %d", run.NumFrames(), len(test.Frames))
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	var replayLog bytes.Buffer
	sink := metrics.NewJSONLSink(&replayLog)
	cfg2 := cfg
	cfg2.Obs.Sink = sink
	cfg2.Obs.Rounds = nil
	eng2, err := pipeline.NewEngine(src, s.Profiles(), model, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	replayed, err := eng2.Report()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(recorded.Modeled(), replayed.Modeled()) {
		t.Fatalf("replayed report diverged from recorded run:\nrec:    %+v\nreplay: %+v",
			recorded.Modeled(), replayed.Modeled())
	}
	want, err := run.SnapshotsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("recorded run has no snapshot log")
	}
	if !bytes.Equal(want, replayLog.Bytes()) {
		t.Fatalf("replay snapshot log is not byte-identical to the recorded one (%d vs %d bytes)",
			len(replayLog.Bytes()), len(want))
	}

	// The recorded rounds cover every scheduling horizon, gap-free.
	rounds, err := run.Rounds()
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := (len(test.Frames) + 9) / 10
	if len(rounds) != wantRounds {
		t.Fatalf("recorded %d rounds, want %d", len(rounds), wantRounds)
	}
	for i, rd := range rounds {
		if rd.Seq != i || rd.Frame != i*10 {
			t.Fatalf("round %d out of order: %+v", i, rd)
		}
	}

	// Cross-scheduler replay: the same recorded incident re-driven under
	// StaticPartition — the mvsim -replay -mode path.
	src2, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	spCfg := pipeline.NewConfig(pipeline.StaticPartition, seed)
	spCfg.Fault.CamFaults = faults
	spCfg.Fault.HealthK = healthK
	eng3, err := pipeline.NewEngine(src2, s.Profiles(), model, spCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Run(); err != nil {
		t.Fatal(err)
	}
	spRep, err := eng3.Report()
	if err != nil {
		t.Fatal(err)
	}
	if spRep.Frames != len(test.Frames) {
		t.Fatalf("cross-mode replay processed %d frames, want %d", spRep.Frames, len(test.Frames))
	}
	if spRep.Recall <= 0 {
		t.Fatalf("cross-mode replay recall %v", spRep.Recall)
	}

	// A drained replay is exhausted.
	if _, err := src2.Next(); err != io.EOF {
		t.Fatalf("drained replay returned %v, want io.EOF", err)
	}
}

// recordRandomRun records numFrames random frames of numCams cameras in
// segments of segSize frames and returns the run's directory and frames.
func recordRandomRun(t *testing.T, seed int64, numCams, numFrames, segSize int) (string, []scene.FrameTruth) {
	t.Helper()
	_, roster := testRoster(t, numCams)
	frames := randomFrames(rand.New(rand.NewSource(seed)), numCams, numFrames)
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Mode: "BALB", SegmentSize: segSize, Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	for fi := range frames {
		if err := w.AppendFrame(&frames[fi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, frames
}

// openReplay opens the run in dir as a replay.
func openReplay(t *testing.T, dir string) *Replay {
	t.Helper()
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// waitProducerGone fails the test unless src's producer goroutine has
// returned, or returns within a second.
func waitProducerGone(t *testing.T, src *Replay, after string) {
	t.Helper()
	waitGone(t, fmt.Sprintf("(*Replay).produce(%p", src), after)
}

// waitGone fails the test unless no goroutine's stack holds frame, or
// none does within a second.
func waitGone(t *testing.T, frame, after string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; {
		if !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(frame)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s is still running a second after %s", frame, after)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayFailsAtItsFrame damages frame k of a recording — a wrong
// checksum, or a segment cut off before it — for k before, inside and
// past the first ring of decoded-ahead frames: the replay returns frames
// 0..k-1 intact, fails at the call for frame k whatever the producer has
// read ahead, and returns that failure to every later call.
func TestReplayFailsAtItsFrame(t *testing.T) {
	const numFrames, segSize = 30, 7
	for _, k := range []int{0, 1, replayBatch, replaySlots - 1, replaySlots, replaySlots + replayBatch + 1, numFrames - 1} {
		for _, damage := range []string{"checksum", "truncation"} {
			dir, frames := recordRandomRun(t, int64(k), 3, numFrames, segSize)
			seg := filepath.Join(dir, framesDir, segmentName(k/segSize))
			lines := bytes.SplitAfter(mustRead(t, seg), []byte("\n"))
			line := k % segSize
			switch damage {
			case "checksum":
				lines[line][0] ^= 1 // the CRC's first digit: another digit, or no hex digit at all
			case "truncation":
				lines = lines[:line]
			}
			if err := os.WriteFile(seg, bytes.Join(lines, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			src := openReplay(t, dir)
			for fi := 0; fi < k; fi++ {
				got, err := src.Next()
				if err != nil {
					t.Fatalf("%s at frame %d: frame %d failed: %v", damage, k, fi, err)
				}
				if !reflect.DeepEqual(got, &frames[fi]) {
					t.Fatalf("%s at frame %d: frame %d diverged", damage, k, fi)
				}
			}
			_, err := src.Next()
			if err == nil || err == io.EOF || !strings.Contains(err.Error(), fmt.Sprintf("frame %d", k)) {
				t.Fatalf("%s at frame %d: the call for it returned %v, want an error naming the frame", damage, k, err)
			}
			for range 3 {
				if _, again := src.Next(); again != err {
					t.Fatalf("%s at frame %d: a later call returned %v, want the sticky %v", damage, k, again, err)
				}
			}
			waitProducerGone(t, src, "an error")
			if cerr := src.Close(); cerr != nil {
				t.Fatalf("%s at frame %d: Close after the error: %v", damage, k, cerr)
			}
		}
	}
}

// TestReplayProducerEnds: the producer goroutine the first Next starts
// does not outlive a Close mid-stream, a drain to io.EOF or an error,
// and a Close before any Next starts none. After Close, Next fails (or
// keeps returning the io.EOF or error it had reached) instead of
// restarting the producer, and a second Close is a no-op.
func TestReplayProducerEnds(t *testing.T) {
	const numFrames, segSize = 3*replaySlots + 1, 5
	dir, frames := recordRandomRun(t, 11, 2, numFrames, segSize)
	for _, taken := range []int{0, 1, replayBatch, replaySlots, replaySlots + 1, numFrames} {
		src := openReplay(t, dir)
		for fi := 0; fi < taken; fi++ {
			if got, err := src.Next(); err != nil || !reflect.DeepEqual(got, &frames[fi]) {
				t.Fatalf("frame %d of %d taken: %v", fi, taken, err)
			}
		}
		if err := src.Close(); err != nil {
			t.Fatalf("Close after %d frames: %v", taken, err)
		}
		waitProducerGone(t, src, fmt.Sprintf("Close after %d frames", taken))
		if f, err := src.Next(); f != nil || err == nil || err == io.EOF {
			t.Fatalf("Next after Close after %d frames: %v, %v, want an error", taken, f, err)
		}
		if err := src.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}

	src := openReplay(t, dir)
	for range frames {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	}
	waitProducerGone(t, src, "io.EOF")
	if err := src.Close(); err != nil {
		t.Fatalf("Close after io.EOF: %v", err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("Next after io.EOF and Close: %v, want io.EOF", err)
	}
}
