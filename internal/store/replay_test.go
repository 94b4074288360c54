package store

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"testing"

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
