package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mvs/internal/metrics"
	"mvs/internal/scene"
)

var crashAll = flag.Bool("crash.all", false, "run the crash law at every crash point instead of a seeded sample")

// The crash law's recordings: lawFrames frames of two cameras, in
// segments of lawSegment frames, so that every run rolls its segment four
// times. Tier 1 checks lawSample seeded crash states of each recording
// and lawRecoverSample crash points of each Recover.
const (
	lawFrames        = 12
	lawSegment       = 3
	lawSample        = 6
	lawRecoverSample = 2
)

// lendingSource lends each of its frames from storage it rewrites in
// place at the next Next, as Replay and the live ingest source do, so a
// writer that still reads a frame after the next Next records the wrong
// bytes, and races under -race.
type lendingSource struct {
	cams   []*scene.Camera
	frames []scene.FrameTruth
	i      int
	lent   scene.FrameTruth
	objs   []scene.ObjectState
	obs    [][]scene.Observation
}

func newLendingSource(cams []*scene.Camera, frames []scene.FrameTruth) *lendingSource {
	return &lendingSource{cams: cams, frames: frames, obs: make([][]scene.Observation, len(cams)),
		lent: scene.FrameTruth{PerCamera: make([][]scene.Observation, len(cams))}}
}

func (s *lendingSource) Cameras() []*scene.Camera { return s.cams }

func (s *lendingSource) Next() (*scene.FrameTruth, error) {
	if s.i == len(s.frames) {
		return nil, io.EOF
	}
	f := &s.frames[s.i]
	s.i++
	// nil stays nil, so the lent frame encodes as f does.
	s.objs = append(s.objs[:0], f.Objects...)
	s.lent.Index, s.lent.Objects = f.Index, nil
	if f.Objects != nil {
		s.lent.Objects = s.objs
	}
	for c, obs := range f.PerCamera {
		s.obs[c] = append(s.obs[c][:0], obs...)
		s.lent.PerCamera[c] = nil
		if obs != nil {
			s.lent.PerCamera[c] = s.obs[c]
		}
	}
	return &s.lent, nil
}

// lawSnapshot stands for the engine: the snapshot of the seq-th frame is
// a function of the frame alone, so a replay of the same frames gives the
// same snapshot stream, and a wrong frame a different one.
func lawSnapshot(seq int, f *scene.FrameTruth) metrics.Snapshot {
	s := metrics.Snapshot{Source: metrics.SourcePipeline, Label: "law", Seq: seq, Frame: f.Index, FN: len(f.Objects)}
	if len(f.Objects) > 0 {
		s.Recall = f.Objects[0].Pos.X
	}
	for c, obs := range f.PerCamera {
		s.Detected += len(obs)
		s.Cameras = append(s.Cameras, metrics.CameraSnapshot{Camera: c, Tracks: len(obs)})
	}
	return s
}

// lawRecord records frames through the tee onto fsys in the engine's
// order: each frame is lent, then its round (every third frame) and its
// snapshot are recorded.
func lawRecord(fsys fileSystem, dir string, roster []byte, src Source, opts Options) error {
	w, err := createIn(fsys, dir, Manifest{Mode: "BALB", SegmentSize: lawSegment, Cameras: roster}, opts)
	if err != nil {
		return err
	}
	tee := w.Tee(src)
	for seq := 0; ; seq++ {
		f, err := tee.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			return err
		}
		if seq%3 == 0 {
			w.RecordRound(metrics.Round{Source: metrics.SourcePipeline, Label: "law", Seq: seq / 3, Frame: f.Index, Objects: len(f.Objects)})
		}
		w.RecordFrame(lawSnapshot(seq, f))
	}
	return w.Close()
}

// crashLaw holds what a crashed run is compared with: the frames and the
// logs of the same run uncrashed.
type crashLaw struct {
	frames []scene.FrameTruth
	snaps  []byte            // the snapshot stream, as SnapshotsRaw returns it
	logs   map[string][]byte // the snapshot and round logs' bytes
}

func newCrashLaw(t *testing.T, dir string, frames []scene.FrameTruth) *crashLaw {
	t.Helper()
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := &crashLaw{frames: frames, logs: map[string][]byte{}}
	if l.snaps, err = run.SnapshotsRaw(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(l.snaps, []byte("\n")); n != len(frames) {
		t.Fatalf("the uncrashed run recorded %d snapshots of %d frames", n, len(frames))
	}
	for _, file := range []string{snapshotsFile, roundsFile} {
		l.logs[file] = mustRead(t, filepath.Join(dir, file))
	}
	return l
}

// holds is the law at one crash state, the run in dir: Recover on fsys
// either refuses it, as a run whose manifest the crash left missing or
// torn, and leaves every byte as it was, or recovers a run for which
// checkRecovered holds, whose logs are byte prefixes of the uncrashed
// run's, and whose replayed frames are the uncrashed run's from the first
// one kept, so that replaying them gives the uncrashed snapshot stream
// there, byte for byte. Only a crash of the writer may leave a run to
// refuse: a crash inside a Recover that accepted the run must not. It
// returns the recovery, or nil for a refusal.
func (l *crashLaw) holds(t *testing.T, fsys fileSystem, dir, state string, mayRefuse bool) *Recovery {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("crash state: %s", state)
		}
	}()
	before := dirFiles(t, dir)
	rec, err := recoverIn(fsys, dir)
	if err != nil {
		var syntax *json.SyntaxError
		if !mayRefuse {
			t.Fatalf("Recover refused a run that a Recover before the crash accepted: %v", err)
		}
		if !errors.Is(err, fs.ErrNotExist) && !errors.As(err, &syntax) {
			t.Fatalf("Recover: %v; a refusal must be of a run without its manifest", err)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("the refusing Recover (%v) changed the run's files", err)
		}
		return nil
	}
	checkRecovered(t, dir, rec)
	for file, whole := range l.logs {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(whole, got) {
			t.Fatalf("recovered %s (%d bytes) is no prefix of the uncrashed run's (%d bytes)", file, len(got), len(whole))
		}
	}
	if rec.Frames == 0 {
		return rec
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := run.index.Segments[0].First
	kept, err := run.SnapshotsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(kept, []byte("\n")); n > 0 && n != first+rec.Frames {
		t.Fatalf("Recover kept %d snapshots beside frames %d..%d", n, first, first+rec.Frames-1)
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var replayed bytes.Buffer
	sink := metrics.NewJSONLSink(&replayed)
	for i := first; i < first+rec.Frames; i++ {
		f, err := src.Next()
		if err != nil {
			t.Fatalf("replay of frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, &l.frames[i]) {
			t.Fatalf("replayed frame %d is not the one recorded", i)
		}
		sink.RecordFrame(lawSnapshot(i, f))
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := lineWindow(l.snaps, first, first+rec.Frames); !bytes.Equal(replayed.Bytes(), want) {
		t.Fatalf("the replay of frames %d..%d gives another snapshot stream than the uncrashed run's", first, first+rec.Frames-1)
	}
	return rec
}

// lineWindow returns lines [from, to) of a JSONL blob.
func lineWindow(data []byte, from, to int) []byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	return bytes.Join(lines[from:to], nil)
}

// crashState is one state a crash can leave: the crash c after the
// first k logged operations.
type crashState struct {
	k    int
	c    crash
	name string
}

// crashStates lists, at every crash point of ops, the states the law
// covers: a process crash (every operation before the point on disk),
// the same with the write in flight torn at its first byte, its middle
// and its last, and a power loss, which keeps only what a sync forced to
// stable storage, with un-synced renames and removals lost or applied,
// and, drawn from rng, with each file's un-synced tail cut anywhere.
// With processOnly it lists the process crashes alone.
func crashStates(ops []fileOp, rng *rand.Rand, processOnly bool) []crashState {
	var out []crashState
	for k := 0; k <= len(ops); k++ {
		at := "before the first operation"
		if k > 0 {
			at = fmt.Sprintf("after operation %d of %d (%v)", k, len(ops), ops[k-1])
		}
		out = append(out, crashState{k, crash{torn: -1}, "process crash " + at})
		if k > 0 && (ops[k-1].kind == opAppend || ops[k-1].kind == opWrite) {
			n := len(ops[k-1].data)
			for _, cut := range slices.Compact([]int{1, n / 2, n - 1}) {
				if cut > 0 && cut < n {
					out = append(out, crashState{k, crash{torn: cut}, fmt.Sprintf("process crash %s, torn after byte %d", at, cut)})
				}
			}
		}
		if processOnly {
			continue
		}
		seed := rng.Int63()
		out = append(out,
			crashState{k, crash{torn: -1, power: true}, "power loss " + at},
			crashState{k, crash{torn: -1, power: true, keepDirOps: true}, "power loss, renames and removals kept, " + at},
			crashState{k, crash{torn: -1, power: true, keepDirOps: true, cut: seededCut(seed)},
				fmt.Sprintf("power loss, un-synced tails cut by seed %d, %s", seed, at)})
	}
	return out
}

// seededCut picks a file's surviving length in [synced, written].
func seededCut(seed int64) func(synced, written int) int {
	rng := rand.New(rand.NewSource(seed))
	return func(synced, written int) int { return synced + rng.Intn(written-synced+1) }
}

// sample returns n of states drawn by rng, or all of them under
// -crash.all.
func sample(states []crashState, rng *rand.Rand, n int) []crashState {
	if *crashAll || len(states) <= n {
		return states
	}
	out := make([]crashState, n)
	for i, j := range rng.Perm(len(states))[:n] {
		out[i] = states[j]
	}
	return out
}

// TestCrashLaw is the store's crash law (docs/STREAMING.md §5). A run is
// recorded through the tee on the crash-recording file system under each
// fsync policy, with segment rolls, and with retention; then at every
// crash point of that writer (a seeded sample of them in tier 1; all with
// -crash.all), in each state a crash can leave there, the law holds for
// Recover; at every crash point of a Recover that accepted the run, it
// holds for a second Recover, which may not refuse; and the uncrashed run
// recovers whole, cutting nothing.
func TestCrashLaw(t *testing.T) {
	cams, roster := testRoster(t, 2)
	frames := randomFrames(rand.New(rand.NewSource(24)), len(cams), lawFrames)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"never", Options{}},
		{"interval", Options{Fsync: FsyncInterval}},
		{"every-record", Options{Fsync: FsyncEveryRecord}},
		{"never-retained", Options{KeepSegments: 2}},
		{"every-record-retained", Options{Fsync: FsyncEveryRecord, KeepSegments: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "run")
			files := &crashFiles{root: dir}
			if err := lawRecord(files, dir, roster, newLendingSource(cams, frames), tc.opts); err != nil {
				t.Fatal(err)
			}
			law := newCrashLaw(t, dir, frames)
			ops := files.Ops()
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			states := sample(crashStates(ops, rng, false), rng, lawSample)
			states = append(states, crashState{len(ops), crash{torn: -1}, "no crash"}) // the uncrashed run
			for si, st := range states {
				img := image(dirImage{}, ops, st.k, st.c)
				d := filepath.Join(root, fmt.Sprint(si))
				if err := img.write(d); err != nil {
					t.Fatal(err)
				}
				recovering := &crashFiles{root: d}
				rec := law.holds(t, recovering, d, st.name, true)
				if si == len(states)-1 {
					want := Recovery{Frames: lawFrames, Snapshots: lawFrames, Rounds: (lawFrames + 2) / 3}
					if tc.opts.KeepSegments > 0 {
						want.Frames = tc.opts.KeepSegments * lawSegment
					}
					if rec == nil || *rec != want {
						t.Fatalf("the uncrashed run recovered as %+v, want %+v", rec, want)
					}
				}
				if rec == nil {
					continue
				}
				rops := recovering.Ops()
				for ri, rst := range sample(crashStates(rops, rng, true), rng, lawRecoverSample) {
					d2 := fmt.Sprintf("%s-%d", d, ri)
					if err := image(img, rops, rst.k, rst.c).write(d2); err != nil {
						t.Fatal(err)
					}
					law.holds(t, &crashFiles{root: d2}, d2, fmt.Sprintf("%s; then Recover: %s", st.name, rst.name), false)
				}
			}
		})
	}
}
