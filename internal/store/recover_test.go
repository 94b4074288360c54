package store

import (
	"bytes"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
	checkRecovered(t, dir, rec)

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
	checkRecovered(t, dir, rec)
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
	checkRecovered(t, dir, rec)
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
	checkRecovered(t, dir, first)
	second, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if *second != *first {
		t.Fatalf("second recovery diverged: %+v vs %+v", second, first)
	}
	checkRecovered(t, dir, second)
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

// checkRecovered is the invariant every recovery keeps: Open sees the
// frame count Recover reported, and the replay yields exactly that many
// frames; a recovery that kept none leaves no frame log to replay.
func checkRecovered(t *testing.T, dir string, rec *Recovery) {
	t.Helper()
	run, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Recover: %v", err)
	}
	if n := run.NumFrames(); n != rec.Frames {
		t.Fatalf("Open sees %d frames, Recover reported %d", n, rec.Frames)
	}
	if rec.Frames == 0 {
		if run.HasFrames() {
			t.Fatal("a recovery that kept no frame left a frame index")
		}
		return
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	n := 0
	for ; ; n++ {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("replay after Recover, frame %d: %v", n, err)
		}
	}
	if n != rec.Frames {
		t.Fatalf("replay after Recover yields %d frames, Recover reported %d", n, rec.Frames)
	}
}

// recordFiveFrames records a sealed run of five frames and their
// snapshots on two cameras.
func recordFiveFrames(t *testing.T) string {
	t.Helper()
	_, roster := testRoster(t, 2)
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Mode: "BALB", Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	frames := randomFrames(rand.New(rand.NewSource(5)), 2, 5)
	for fi := range frames {
		if err := w.AppendFrame(&frames[fi]); err != nil {
			t.Fatal(err)
		}
		w.RecordFrame(metrics.Snapshot{Seq: fi})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dirFiles maps every file under dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRecoverRefusesEmptyRoster: a manifest whose roster is [] is one
// Open refuses, so Recover refuses it too, before it touches any file:
// with no camera every frame record fails to decode, and a Recover that
// went on would truncate every frame segment to nothing.
func TestRecoverRefusesEmptyRoster(t *testing.T) {
	dir := recordFiveFrames(t)
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := run.Manifest()
	man.Cameras = []byte("[]")
	if err := writeJSON(filepath.Join(dir, manifestFile), man); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "no cameras") {
		t.Fatalf("Open of an empty roster: %v", err)
	}
	if rec, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "no cameras") {
		t.Fatalf("Recover of an empty roster: %+v, %v", rec, err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused Recover changed the run's files:\nbefore %q\nafter  %q", before, after)
	}
}

// TestRecoverRemovesStaleIndex: when no frame record survives — here the
// first record's checksum is wrong — Recover reports no frames, and no
// index from before it may promise the frames it cut.
func TestRecoverRemovesStaleIndex(t *testing.T) {
	dir := recordFiveFrames(t)
	segPath := filepath.Join(dir, framesDir, segmentName(0))
	seg := mustRead(t, segPath)
	if seg[0] == '0' {
		seg[0] = '1'
	} else {
		seg[0] = '0'
	}
	if err := os.WriteFile(segPath, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames != 0 || rec.Snapshots != 5 {
		t.Fatalf("recovery of a log whose first record is corrupt: %+v, want 0 frames and 5 snapshots", rec)
	}
	checkRecovered(t, dir, rec)
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
