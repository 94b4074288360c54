package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/scene"
)

// testRoster builds a small valid roster and its wire form.
func testRoster(t *testing.T, n int) ([]*scene.Camera, []byte) {
	t.Helper()
	cams := make([]*scene.Camera, n)
	for i := range cams {
		cams[i] = &scene.Camera{
			Name: fmt.Sprintf("cam%d", i), Pos: geom.Point{X: float64(i) * 30},
			Height: 8, Pitch: 0.4, Focal: 800, ImageW: 1280, ImageH: 704, MaxRange: 60,
		}
	}
	raw, err := scene.MarshalCameras(cams)
	if err != nil {
		t.Fatal(err)
	}
	return cams, raw
}

// randomFrames builds synthetic ground truth in wire-normal form (nil
// slices where the decoder would produce nil), so a write→read round
// trip can be compared with reflect.DeepEqual.
func randomFrames(rng *rand.Rand, numCams, numFrames int) []scene.FrameTruth {
	frames := make([]scene.FrameTruth, numFrames)
	for fi := range frames {
		f := scene.FrameTruth{Index: fi, PerCamera: make([][]scene.Observation, numCams)}
		for id := 1; id <= rng.Intn(4); id++ {
			f.Objects = append(f.Objects, scene.ObjectState{
				ID: fi*10 + id, Pos: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 20},
				Heading: rng.Float64(), Speed: 5 + rng.Float64(),
				Dims: scene.Dims{W: 1.8, L: 4.2, H: 1.5},
			})
		}
		for ci := 0; ci < numCams; ci++ {
			for _, o := range f.Objects {
				if rng.Intn(2) == 0 {
					continue
				}
				x, y := rng.Float64()*1000, rng.Float64()*500
				f.PerCamera[ci] = append(f.PerCamera[ci], scene.Observation{
					ObjectID: o.ID,
					Box:      geom.Rect{MinX: x, MinY: y, MaxX: x + 40, MaxY: y + 30},
				})
			}
		}
		frames[fi] = f
	}
	return frames
}

// TestFrameLogRoundTrip is the store's property test: random frame
// streams written through AppendFrame come back bit-identical through
// Replay, across segment sizes that land the stream on and off segment
// boundaries.
func TestFrameLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		numCams := 1 + rng.Intn(4)
		numFrames := 1 + rng.Intn(40)
		segSize := 1 + rng.Intn(8)
		_, roster := testRoster(t, numCams)
		frames := randomFrames(rng, numCams, numFrames)

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

		run, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if run.NumFrames() != numFrames {
			t.Fatalf("trial %d: index says %d frames, wrote %d", trial, run.NumFrames(), numFrames)
		}
		src, err := run.Source()
		if err != nil {
			t.Fatal(err)
		}
		for fi := range frames {
			got, err := src.Next()
			if err != nil {
				t.Fatalf("trial %d frame %d: %v", trial, fi, err)
			}
			if !reflect.DeepEqual(&frames[fi], got) {
				t.Fatalf("trial %d (cams=%d seg=%d): frame %d diverged after round trip:\nwant %+v\ngot  %+v",
					trial, numCams, segSize, fi, frames[fi], got)
			}
		}
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("trial %d: want io.EOF after %d frames, got %v", trial, numFrames, err)
		}
	}
}

func TestCreateRefusesOverwrite(t *testing.T) {
	_, roster := testRoster(t, 2)
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Mode: "Full", Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Manifest{Mode: "Full", Cameras: roster}); err == nil {
		t.Fatal("Create over an existing run must refuse")
	}
	if _, err := Create(t.TempDir(), Manifest{Mode: "Full"}); err == nil {
		t.Fatal("Create without cameras must refuse")
	}
}

func TestCaptureOnlyRun(t *testing.T) {
	_, roster := testRoster(t, 2)
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Label: "shard0", Mode: "BALB", Scenario: "S2", Seed: 11, Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent records, as sharded emitters produce them.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				w.RecordFrame(metrics.Snapshot{Source: metrics.SourcePipeline, Seq: g*25 + i})
				w.RecordRound(metrics.Round{Source: metrics.SourceScheduler, Seq: g*25 + i})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.HasFrames() {
		t.Fatal("capture-only run claims a frame log")
	}
	if _, err := run.Source(); err == nil {
		t.Fatal("Source on a capture-only run must error")
	}
	snaps, err := run.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := run.Rounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 100 || len(rounds) != 100 {
		t.Fatalf("got %d snapshots, %d rounds, want 100 each", len(snaps), len(rounds))
	}
	if m := run.Manifest(); m.Label != "shard0" || m.Scenario != "S2" || m.Seed != 11 {
		t.Fatalf("manifest mangled: %+v", m)
	}
}

// errSource fails mid-stream; used to check Tee propagates both source
// and store errors.
type errSource struct {
	cams   []*scene.Camera
	frames []scene.FrameTruth
	i      int
	err    error
}

func (s *errSource) Cameras() []*scene.Camera { return s.cams }
func (s *errSource) Next() (*scene.FrameTruth, error) {
	if s.i >= len(s.frames) {
		return nil, s.err
	}
	f := &s.frames[s.i]
	s.i++
	return f, nil
}

func TestTeeRecordsAndPropagates(t *testing.T) {
	cams, roster := testRoster(t, 2)
	frames := randomFrames(rand.New(rand.NewSource(5)), 2, 9)
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Mode: "BALB", SegmentSize: 4, Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	srcErr := errors.New("link down")
	tee := w.Tee(&errSource{cams: cams, frames: frames, err: srcErr})
	if got := tee.Cameras(); len(got) != 2 {
		t.Fatalf("tee roster has %d cameras", len(got))
	}
	n := 0
	for {
		_, err := tee.Next()
		if err != nil {
			if !errors.Is(err, srcErr) {
				t.Fatalf("tee surfaced %v, want source error", err)
			}
			break
		}
		n++
	}
	if n != len(frames) {
		t.Fatalf("tee passed %d frames, want %d", n, len(frames))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumFrames() != len(frames) {
		t.Fatalf("recorded %d frames, want %d", run.NumFrames(), len(frames))
	}

	// A frame whose width disagrees with the roster must fail the stream
	// through the tee (the store error path).
	w2, err := Create(filepath.Join(t.TempDir(), "run2"), Manifest{Mode: "BALB", Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	bad := []scene.FrameTruth{{PerCamera: make([][]scene.Observation, 5)}}
	tee2 := w2.Tee(&errSource{cams: cams, frames: bad, err: io.EOF})
	if _, err := tee2.Next(); err == nil {
		t.Fatal("tee must surface the store's width check")
	}
	if err := w2.AppendFrame(&frames[0]); err == nil {
		t.Fatal("append after a sticky store error must keep failing")
	}
	w2.Close()
}

func TestAppendAfterCloseFails(t *testing.T) {
	_, roster := testRoster(t, 2)
	w, err := Create(filepath.Join(t.TempDir(), "run"), Manifest{Mode: "Full", Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f := scene.FrameTruth{PerCamera: make([][]scene.Observation, 2)}
	if err := w.AppendFrame(&f); err == nil {
		t.Fatal("AppendFrame after Close must fail")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close must stay clean, got %v", err)
	}
}

func TestOpenRejectsBadRuns(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("Open on a missing directory must error")
	}
	_, roster := testRoster(t, 2)
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Mode: "Full", Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err := run.SnapshotsRaw(); err != nil || raw != nil {
		t.Fatalf("run without snapshots: raw=%v err=%v", raw, err)
	}
	if rounds, err := run.Rounds(); err != nil || rounds != nil {
		t.Fatalf("run without rounds: %v %v", rounds, err)
	}
}

// TestReplayTruncationDetected corrupts a segment and checks the replay
// fails instead of silently ending early.
func TestReplayTruncationDetected(t *testing.T) {
	_, roster := testRoster(t, 2)
	frames := randomFrames(rand.New(rand.NewSource(8)), 2, 10)
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Mode: "BALB", SegmentSize: 100, Cameras: roster})
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
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the single segment with only its first half of the lines.
	segPath := filepath.Join(dir, "frames", "seg-000000.jsonl")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(segPath, bytes.Join(lines[:5], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < len(frames)+1; i++ {
		if _, lastErr = src.Next(); lastErr != nil {
			break
		}
	}
	if lastErr == nil || lastErr == io.EOF {
		t.Fatalf("truncated segment must fail the replay, got %v", lastErr)
	}
}

// TestOpenRejectsBadIndex: an index is taken on trust by the replay, which
// opens frames/<file> for each segment, so Open refuses one that names
// anything but a segment file of the run's own frames/ directory, or
// gives a segment a negative count, with an error wrapping ErrBadIndex.
func TestOpenRejectsBadIndex(t *testing.T) {
	_, roster := testRoster(t, 1)
	frames := randomFrames(rand.New(rand.NewSource(3)), 1, 4)
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Mode: "balb", Cameras: roster})
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
	// A file outside the run with valid records, for the index to point at.
	outside := filepath.Join(filepath.Dir(dir), "outside.jsonl")
	if err := os.WriteFile(outside, mustRead(t, filepath.Join(dir, framesDir, segmentName(0))), 0o644); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, framesDir, indexFile)
	for _, seg := range []Segment{
		{File: "../../outside.jsonl", Count: 4},
		{File: "../outside.jsonl", Count: 4},
		{File: outside, Count: 4},
		{File: "../frames/seg-000000.jsonl", Count: 4},
		{File: "seg-0.jsonl", Count: 4},
		{File: "seg-00000x.jsonl", Count: 4},
		{File: "seg-000000.json", Count: 4},
		{File: "seg-+00000.jsonl", Count: 4},
		{File: "", Count: 4},
		{File: "seg-000000.jsonl", Count: -1},
	} {
		data, err := json.Marshal(frameIndex{Frames: 4, Segments: []Segment{seg}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(idxPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrBadIndex) {
			t.Fatalf("index segment %+v: Open returned %v, want an ErrBadIndex", seg, err)
		}
	}
	data, err := json.Marshal(frameIndex{Frames: 4, Segments: []Segment{{File: "seg-000000.jsonl", Count: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("the writer's own index: %v", err)
	}
}

// TestSnapshotsRawRoundTrip: SnapshotsRaw, which strips the checksums
// in the buffer the log was read into, returns the bodies written, one a
// line, on generated version-1 and version-2 logs with blank, whitespace
// and CRLF lines, with and without a final newline; a version-2 record
// with a byte changed fails its checksum. Then the log is held once, not
// twice.
func TestSnapshotsRawRoundTrip(t *testing.T) {
	_, roster := testRoster(t, 1)
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		version := 1 + trial%2
		var log, want bytes.Buffer
		var bodies [][2]int // each body's offsets in log
		for n := rng.Intn(12); n > 0; n-- {
			switch rng.Intn(6) {
			case 0:
				log.WriteString([]string{"\n", " \n", "\t\n", "\r\n"}[rng.Intn(4)])
			default:
				body := fmt.Appendf(nil, `{"seq":%d,"pad":%q}`, n, strings.Repeat("x", rng.Intn(40)))
				want.Write(append(body, '\n'))
				if version == 2 {
					log.Write(sealed(body))
				} else {
					log.Write(append(body, '\n'))
				}
				end := log.Len() - 1
				bodies = append(bodies, [2]int{end - len(body), end})
			}
		}
		data := log.Bytes()
		if len(data) > 0 && rng.Intn(3) == 0 {
			data = data[:len(data)-1] // no final newline
		}
		corrupt := version == 2 && trial%10 == 9 && len(bodies) > 0
		if corrupt {
			b := bodies[rng.Intn(len(bodies))]
			data[b[0]+rng.Intn(b[1]-b[0])] ^= 1
		}
		dir := filepath.Join(t.TempDir(), "run")
		man, err := json.Marshal(Manifest{Version: version, Mode: "balb", Cameras: roster})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestFile), man, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotsFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		run, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run.SnapshotsRaw()
		switch {
		case corrupt && err == nil:
			t.Fatalf("trial %d: a changed record passed its checksum: %q", trial, data)
		case !corrupt && (err != nil || !bytes.Equal(got, want.Bytes())):
			t.Fatalf("trial %d (version %d, %q):\ngot  %q (%v)\nwant %q", trial, version, data, got, err, want.Bytes())
		}
	}

	// One copy of a large log: what SnapshotsRaw allocates is the file,
	// not the file and a second buffer.
	dir := filepath.Join(t.TempDir(), "run")
	w, err := Create(dir, Manifest{Mode: "balb", Cameras: roster})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		w.RecordFrame(metrics.Snapshot{Source: metrics.SourcePipeline, Seq: i, Frame: i,
			Cameras: []metrics.CameraSnapshot{{Camera: 0, Latency: 12e6, Tracks: i % 7}}})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	size := len(mustRead(t, filepath.Join(dir, snapshotsFile)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	raw, err := run.SnapshotsRaw()
	runtime.ReadMemStats(&after)
	if err != nil || len(raw) != size-2000*len(linePad) {
		t.Fatalf("SnapshotsRaw: %d bytes (%v), want %d", len(raw), err, size-2000*len(linePad))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(size)+uint64(size)/4 {
		t.Fatalf("SnapshotsRaw of a %d-byte log allocated %d bytes; it should hold the log once", size, alloc)
	}
}
