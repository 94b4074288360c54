package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mvs/internal/scene"
	"mvs/internal/workload"
)

// FuzzStoreReader hammers the reader and recovery paths with arbitrary
// run-directory contents: whatever bytes land in the frame segment, the
// snapshot log, and the frame index, Open / SnapshotsRaw / Snapshots /
// Rounds / Source+drain / Recover must return data or errors — never
// panic, never loop forever — and a run Recover accepts must replay the
// frames it reports. This is the disk-side twin of the ingest
// wire fuzzing: a run store surviving a crash is only trustworthy if a
// half-written or bit-rotted file cannot take the reader down.
func FuzzStoreReader(f *testing.F) {
	s, err := workload.ByName("S2", 1)
	if err != nil {
		f.Fatal(err)
	}
	trace, err := s.World.Run(8)
	if err != nil {
		f.Fatal(err)
	}
	roster, err := scene.MarshalCameras(trace.Cameras)
	if err != nil {
		f.Fatal(err)
	}
	frameLine, err := scene.MarshalFrame(&trace.Frames[0])
	if err != nil {
		f.Fatal(err)
	}
	validSeg := checksumLine(frameLine)
	validIdx, err := json.Marshal(frameIndex{
		Frames:   1,
		Segments: []Segment{{File: "seg-000000.jsonl", First: 0, Count: 1}},
	})
	if err != nil {
		f.Fatal(err)
	}
	validSnap := []byte(`{"frame":0}` + "\n")

	// A healthy record, torn tails, stale checksums, lying indexes, and
	// plain garbage.
	f.Add(validSeg, validSnap, validIdx)
	f.Add(validSeg[:len(validSeg)/2], validSnap[:3], validIdx)
	f.Add(append([]byte("00000000 "), frameLine...), validSnap, validIdx)
	f.Add(validSeg, validSnap, []byte(`{"frames":99,"segments":[{"file":"seg-000000.jsonl","first":0,"count":99}]}`))
	f.Add(validSeg, validSnap, []byte(`{"frames":1,"segments":[{"file":"../../etc/passwd","first":0,"count":1}]}`))
	f.Add([]byte("\x00\xff\n\n"), []byte("{"), []byte("not json"))
	f.Add([]byte(nil), []byte(nil), []byte(nil))

	man, err := json.Marshal(Manifest{
		Version: Version, Scenario: "S2", Seed: 1, TraceFrames: 8,
		Mode: "balb", Horizon: 10, SegmentSize: 16, Cameras: roster,
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, seg, snaps, idx []byte) {
		dir := t.TempDir()
		fdir := filepath.Join(dir, framesDir)
		if err := os.MkdirAll(fdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string][]byte{
			filepath.Join(dir, manifestFile):        man,
			filepath.Join(dir, snapshotsFile):       snaps,
			filepath.Join(fdir, "seg-000000.jsonl"): seg,
			filepath.Join(fdir, indexFile):          idx,
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		drain := func() {
			run, err := Open(dir)
			if err != nil {
				return
			}
			run.SnapshotsRaw()
			run.Snapshots()
			run.Rounds()
			src, err := run.Source()
			if err != nil {
				return
			}
			for i := 0; i < 1<<12; i++ {
				if _, err := src.Next(); err != nil {
					break
				}
			}
		}
		drain()
		rec, err := Recover(dir)
		if err != nil {
			return // unrecoverable inputs are fine, panics are not
		}
		checkRecovered(t, dir, rec) // a recovered run replays what Recover reported
		drain()
	})
}
