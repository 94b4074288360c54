package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// recordSmallRun records a small sealed S2 run (four frame segments)
// and returns everything a recovery test needs to damage it and
// re-drive the recovered prefix.
func recordSmallRun(t *testing.T) (dir string, snaps []byte, replayPrefix func(t *testing.T) []byte) {
	t.Helper()
	const (
		scenario = "S2"
		seed     = int64(9)
		frames   = 120
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
	roster, err := scene.MarshalCameras(test.Cameras)
	if err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{
		Scenario: scenario, Seed: seed, TraceFrames: frames,
		Mode: pipeline.BALB.String(), Horizon: 10,
		SegmentSize: 16, Cameras: roster,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.NewConfig(pipeline.BALB, seed)
	cfg.Obs.Sink = w
	eng, err := pipeline.NewEngine(w.Tee(pipeline.NewTraceSource(test)), s.Profiles(), model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err = run.SnapshotsRaw()
	if err != nil {
		t.Fatal(err)
	}

	// replayPrefix re-drives whatever the (possibly recovered) store now
	// holds under the recorded configuration and returns the replay's
	// snapshot JSONL — the mvsim -replay -verify comparison.
	replayPrefix = func(t *testing.T) []byte {
		t.Helper()
		run, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		src, err := run.Source()
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		cfg2 := pipeline.NewConfig(pipeline.BALB, seed)
		cfg2.Obs.Sink = metrics.NewJSONLSink(&log)
		eng, err := pipeline.NewEngine(src, s.Profiles(), model, cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return log.Bytes()
	}
	return dir, snaps, replayPrefix
}

// prefixLines returns the first n lines of a JSONL blob.
func prefixLines(data []byte, n int) []byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	var out []byte
	for i := 0; i < n && i < len(lines); i++ {
		out = append(out, lines[i]...)
	}
	return out
}

// TestRecoverTornTail is the crash-safety acceptance test: a run whose
// writer was killed mid-record — torn tail on the last frame segment,
// torn tail on the snapshot log, no frame index — recovers to a
// consistent prefix that replays byte-identically against the recovered
// snapshot log.
func TestRecoverTornTail(t *testing.T) {
	dir, snaps, replayPrefix := recordSmallRun(t)

	// Simulate the SIGKILL: the index never hit disk, the last segment
	// and the snapshot log both end mid-record.
	if err := os.Remove(filepath.Join(dir, framesDir, indexFile)); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, framesDir, "seg-000003.jsonl")
	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, seg[:len(seg)-37], 0o644); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshotsFile)
	if err := os.WriteFile(snapPath, prefixLines(mustRead(t, snapPath), 55)[:len(prefixLines(mustRead(t, snapPath), 55))-11], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames == 0 || rec.Frames != rec.Snapshots {
		t.Fatalf("recovery did not align frames and snapshots: %+v", rec)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatalf("recovery truncated nothing despite torn tails: %+v", rec)
	}
	// 54 clean snapshot lines survive the torn 55th; the frame log holds
	// 16*3 = 48.. 63 frames, so the common prefix is at most 54.
	if rec.Frames > 54 {
		t.Fatalf("recovered %d frames from a 54-snapshot log", rec.Frames)
	}

	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Manifest().Recovered {
		t.Fatal("recovered manifest not marked Recovered")
	}
	got, err := run.SnapshotsRaw()
	if err != nil {
		t.Fatal(err)
	}
	want := prefixLines(snaps, rec.Frames)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot log is not the recorded %d-line prefix", rec.Frames)
	}
	if replayed := replayPrefix(t); !bytes.Equal(replayed, got) {
		t.Fatalf("recovered prefix does not replay byte-identically (%d vs %d bytes)",
			len(replayed), len(got))
	}
}

// TestRecoverChecksumCorruption pins the CRC path: one flipped byte in
// a middle segment ends the recoverable chain at the record before it —
// later segments cannot follow the gap — and the survivors still
// replay.
func TestRecoverChecksumCorruption(t *testing.T) {
	dir, snaps, replayPrefix := recordSmallRun(t)
	segPath := filepath.Join(dir, framesDir, "seg-000001.jsonl")
	seg := mustRead(t, segPath)
	lines := bytes.SplitAfter(seg, []byte("\n"))
	// Flip one JSON byte inside the 6th record, leaving its CRC stale.
	line := lines[5]
	line[len(line)/2] ^= 0x01
	if err := os.WriteFile(segPath, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 0 (16 frames) + 5 clean records of segment 1.
	if rec.Frames != 21 {
		t.Fatalf("recovered %d frames, want 21 (16 + 5 before the corrupt record)", rec.Frames)
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.SnapshotsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prefixLines(snaps, 21)) {
		t.Fatal("recovered snapshot log is not the 21-line prefix")
	}
	if replayed := replayPrefix(t); !bytes.Equal(replayed, got) {
		t.Fatal("post-corruption recovered prefix does not replay byte-identically")
	}
}

// TestRecoverDroppedFrames covers the other alignment direction: frame
// records whose snapshots never hit disk are excluded from the index
// (they cannot be part of a byte-verifiable prefix).
func TestRecoverDroppedFrames(t *testing.T) {
	dir, _, _ := recordSmallRun(t)
	snapPath := filepath.Join(dir, snapshotsFile)
	full := mustRead(t, snapPath)
	if err := os.WriteFile(snapPath, prefixLines(full, 40), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames != 40 || rec.Snapshots != 40 {
		t.Fatalf("alignment: %+v, want 40/40", rec)
	}
	if rec.DroppedFrames != 20 {
		t.Fatalf("dropped %d frames, want 20 (60 recorded - 40 snapshotted)", rec.DroppedFrames)
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := src.Next(); err != nil {
			break
		}
		n++
	}
	if n != 40 {
		t.Fatalf("recovered replay yields %d frames, want 40", n)
	}
}

// TestRecoverIdempotent: recovering a healthy sealed run (and
// re-recovering a recovered one) drops nothing new and keeps the same
// prefix.
func TestRecoverIdempotent(t *testing.T) {
	dir, snaps, _ := recordSmallRun(t)
	first, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if first.TruncatedBytes != 0 || first.DroppedFrames != 0 {
		t.Fatalf("recovering a sealed run damaged it: %+v", first)
	}
	if first.Frames != 60 || first.Snapshots != 60 {
		t.Fatalf("sealed run recovery: %+v, want 60/60", first)
	}
	second, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if *second != *first {
		t.Fatalf("second recovery diverged: %+v vs %+v", second, first)
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.SnapshotsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snaps) {
		t.Fatal("idempotent recovery changed the snapshot log")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParseLineVersions pins the record format: version-2 lines carry a
// crc32 prefix, version-1 lines pass through, and tampering fails.
func TestParseLineVersions(t *testing.T) {
	body := []byte(`{"a":1}`)
	line := checksumLine(body)
	got, err := parseLine(bytes.TrimSuffix(line, []byte("\n")), 2)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("v2 round-trip: %q, %v", got, err)
	}
	if _, err := parseLine(body, 1); err != nil {
		t.Fatalf("v1 passthrough: %v", err)
	}
	bad := bytes.Replace(line, []byte(`1`), []byte(`2`), 1)
	if _, err := parseLine(bytes.TrimSuffix(bad, []byte("\n")), 2); err == nil {
		t.Fatal("tampered v2 record verified")
	}
	if _, err := parseLine([]byte("short"), 2); err == nil {
		t.Fatal("v2 record without checksum prefix verified")
	}
	if !strings.Contains(string(line), " ") || line[8] != ' ' {
		t.Fatalf("v2 record format: %q", line)
	}
}
