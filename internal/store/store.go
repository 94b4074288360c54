// Package store is the durable half of the streaming engine: an
// append-only, pure-Go run store that persists what a run *was* — the
// frames it consumed, the per-frame metrics snapshots it emitted, and
// the per-round scheduling decisions it took — so an incident can be
// audited after the fact or re-driven under a different scheduler
// (mvsim -replay, docs/STREAMING.md).
//
// A run is a directory:
//
//	manifest.json         identity + regeneration recipe (scenario, seed,
//	                      mode, fault spec, camera roster)
//	snapshots.jsonl       one metrics.Snapshot per frame (OBSERVABILITY.md schema)
//	rounds.jsonl          one metrics.Round per scheduling round
//	frames/seg-NNNNNN.jsonl  frame ground truth, SegmentSize frames per segment
//	frames/index.json     segment directory, written on Close
//
// Everything is JSON Lines over plain files — no external database.
// The layout is deliberately SQLite-shaped (docs/STREAMING.md gives the
// equivalent schema) so a future cgo-enabled build can swap the backend
// behind the Writer and Run methods. Frame segments are optional: a
// *capture* run (snapshots + rounds only) records what happened; a
// *full* run also records frames and is replayable bit-for-bit.
//
// Determinism: the store never writes wall-clock timestamps or
// host-dependent values, so a recorded run is a pure function of the
// run that produced it, and a replayed run's snapshot log is
// byte-identical to the recorded one (TestReplayByteIdentical).
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mvs/internal/metrics"
	"mvs/internal/scene"
)

const (
	manifestFile  = "manifest.json"
	snapshotsFile = "snapshots.jsonl"
	roundsFile    = "rounds.jsonl"
	framesDir     = "frames"
	indexFile     = "index.json"

	// Version is the on-disk format version written to new manifests.
	// Version 2 prefixes every JSONL record (snapshots, rounds, frame
	// segments) with a CRC32 checksum so a torn or corrupted tail is
	// detectable byte-for-byte (docs/STREAMING.md §5); version 1 runs
	// (no checksums) remain readable.
	Version = 2
	// legacyVersion is the oldest on-disk format Open still reads.
	legacyVersion = 1
	// DefaultSegmentSize is the frames-per-segment bound when the
	// manifest does not set one.
	DefaultSegmentSize = 256
)

// FsyncPolicy controls when the writer forces records to stable storage
// — the durability/throughput dial for -record under crash risk
// (docs/STREAMING.md §5).
type FsyncPolicy int

const (
	// FsyncNever (the default) leaves durability to the OS page cache:
	// fastest, and a crash can lose everything since the last flush.
	FsyncNever FsyncPolicy = iota
	// FsyncInterval syncs each log file every fsyncEvery (64) records:
	// bounded loss at bounded cost.
	FsyncInterval
	// FsyncEveryRecord syncs after every record: at most one torn line
	// lost, at full fsync cost per record.
	FsyncEveryRecord
)

// String returns the -store-fsync flag name of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNever:
		return "never"
	case FsyncInterval:
		return "interval"
	case FsyncEveryRecord:
		return "every-record"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsync maps a -store-fsync flag name to its policy.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "never", "":
		return FsyncNever, nil
	case "interval":
		return FsyncInterval, nil
	case "every-record":
		return FsyncEveryRecord, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want never, interval, every-record)", s)
	}
}

// Options tunes a Writer beyond the manifest (CreateWith). The zero
// value matches Create: no fsync, unlimited retention.
type Options struct {
	// Fsync is the durability policy for all three logs.
	Fsync FsyncPolicy
	// KeepSegments, when > 0, bounds the frame log to the newest N
	// segments: each roll past the bound deletes the oldest segment
	// file (retention for long-running recordings). A retained run
	// replays only its surviving window, so mvsim -replay -verify refuses it.
	KeepSegments int
	// KeepDuration, when > 0, bounds the frame log by age: each roll
	// deletes closed segments whose first frame arrived more than
	// KeepDuration ago. Shares the pruning path with KeepSegments — both
	// bounds apply when both are set — and carries the same -verify
	// refusal. Segment birth times live only in writer memory; the
	// on-disk format stays free of wall-clock values.
	KeepDuration time.Duration
}

// The version-2 wire form of one JSONL record is an 8-hex-digit CRC32
// (IEEE) of the JSON bytes, a space, the JSON, a newline. A record is
// built in place: linePad holds the checksum's room, the JSON is appended
// after it, and sealLine fills the checksum in and ends the line.
const linePad = "00000000 "

func sealLine(line []byte) []byte {
	const digits = "0123456789abcdef"
	sum := crc32.ChecksumIEEE(line[len(linePad):])
	for i := 7; i >= 0; i-- {
		line[i] = digits[sum&0xf]
		sum >>= 4
	}
	return append(line, '\n')
}

// parseLine validates and strips one record line (trailing newline
// removed) according to the format version: version 2 checks and strips
// the checksum prefix, version 1 lines pass through.
func parseLine(line []byte, version int) ([]byte, error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	if version < 2 {
		return line, nil
	}
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("store: record missing checksum prefix")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("store: bad checksum prefix: %w", err)
	}
	body := line[9:]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, fmt.Errorf("store: checksum mismatch (record says %08x, bytes hash to %08x)", uint32(want), got)
	}
	return body, nil
}

// Manifest identifies a recorded run and carries the recipe for
// regenerating everything the frame stream does not contain: the
// scenario and seed rebuild the world (training half included), the
// fault spec rebuilds the outage schedule, and the camera roster
// validates that a replay is fed to the fleet it was recorded from.
type Manifest struct {
	// Version is the on-disk format version (see the Version constant).
	Version int `json:"version"`
	// Label tags the run (defaults to the mode name at record time).
	Label string `json:"label,omitempty"`
	// Scenario and Seed name the workload (workload.ByName) the run was
	// generated from, so a replayer can regenerate the training half and
	// re-train the association model.
	Scenario string `json:"scenario,omitempty"`
	Seed     int64  `json:"seed"`
	// TraceFrames is the full world-run length in frames (training half
	// included); the recorded frame segments hold the evaluation half.
	TraceFrames int `json:"trace_frames,omitempty"`
	// Mode is the scheduling mode the run used (pipeline.Mode.String()).
	Mode string `json:"mode"`
	// Horizon is the scheduling horizon T.
	Horizon int `json:"horizon,omitempty"`
	// CamFaults is the -cam-faults spec string (camfault.ParseSpec
	// syntax) the run injected; empty means fault-free. The spec — not
	// the expanded schedule — is stored because camfault.Generate is
	// deterministic in it.
	CamFaults string `json:"cam_faults,omitempty"`
	// HealthK is the health-tracker silence threshold the run used.
	HealthK int `json:"health_k,omitempty"`
	// SegmentSize is the frames-per-segment bound of this run's frame
	// segments (0 means DefaultSegmentSize).
	SegmentSize int `json:"segment_size,omitempty"`
	// Fsync records the durability policy the run was written under
	// (FsyncPolicy.String; empty means never).
	Fsync string `json:"fsync,omitempty"`
	// KeepSegments records the frame-log retention bound (0 = unlimited).
	// A retained run replays only its surviving window, so -verify
	// refuses it.
	KeepSegments int `json:"keep_segments,omitempty"`
	// KeepDuration records the age-based frame-log retention bound
	// (time.Duration string; empty = unlimited). Like KeepSegments, a
	// duration-retained run replays only its surviving window, so
	// -verify refuses it.
	KeepDuration string `json:"keep_duration,omitempty"`
	// Adapt is the -adapt control-loop spec string (adapt.ParseSpec
	// syntax) the run degraded under; empty means no controller. The
	// spec — not the level trace — is stored because the controller is
	// deterministic in it plus the modeled window state, so a replay
	// regenerating the controller from this spec reproduces the same
	// ladder walk (docs/FAULTS.md §10).
	Adapt string `json:"adapt,omitempty"`
	// Ingest, when set, is the -ingest-addr the run's frames arrived on.
	// Live arrivals shed by wall-clock load, so an ingest-recorded run's
	// snapshot counters are not a pure function of its frame log and
	// -verify refuses it; the frame log itself still replays.
	Ingest string `json:"ingest,omitempty"`
	// Recovered marks a run rewritten by Recover after a crash: the logs
	// are the validated prefix of the original run (docs/STREAMING.md §5).
	Recovered bool `json:"recovered,omitempty"`
	// Cameras is the roster in scene.MarshalCameras wire form.
	Cameras json.RawMessage `json:"cameras"`
}

// Source is the frame-stream shape the store consumes (Writer.Tee) and
// produces (Run.Source). It structurally matches pipeline.Source, so a
// Replay plugs into pipeline.NewEngine without either package importing
// the other.
type Source interface {
	Cameras() []*scene.Camera
	Next() (*scene.FrameTruth, error)
}

// Segment locates one frame-log segment file.
type Segment struct {
	// File is the segment's name inside the frames/ directory.
	File string `json:"file"`
	// First is the stream index of the segment's first frame.
	First int `json:"first"`
	// Count is the number of frames in the segment.
	Count int `json:"count"`
}

// frameIndex is the frames/index.json document.
type frameIndex struct {
	Frames   int       `json:"frames"`
	Segments []Segment `json:"segments"`
}

// ErrBadIndex is wrapped by the error Open returns for a frame index that
// does not describe segments of its own run: a segment whose file is not
// a name the writer gives (seg-NNNNNN.jsonl, no directory part, so a
// replay can only open files inside frames/), or whose count is negative.
var ErrBadIndex = errors.New("store: bad frame index")

// validate checks what a replay takes from the index on trust.
func (idx *frameIndex) validate() error {
	for i, seg := range idx.Segments {
		if _, ok := segmentOrdinal(seg.File); !ok {
			return fmt.Errorf("%w: segment %d names %q, not a seg-NNNNNN.jsonl file", ErrBadIndex, i, seg.File)
		}
		if seg.Count < 0 {
			return fmt.Errorf("%w: segment %d (%s) has count %d", ErrBadIndex, i, seg.File, seg.Count)
		}
	}
	return nil
}

// segmentName is the file name of the segment with the given ordinal.
func segmentName(ord int) string { return fmt.Sprintf("seg-%06d.jsonl", ord) }

// segmentOrdinal parses a name segmentName gives: "seg-", six to
// eighteen decimal digits, ".jsonl".
func segmentOrdinal(name string) (int, bool) {
	rest, isSeg := strings.CutPrefix(name, "seg-")
	digits, isJSONL := strings.CutSuffix(rest, ".jsonl")
	if !isSeg || !isJSONL || len(digits) < 6 || len(digits) > 18 {
		return 0, false
	}
	ord := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i] - '0'
		if c > 9 {
			return 0, false
		}
		ord = ord*10 + int(c)
	}
	return ord, true
}

// Writer appends a run to a directory. All record methods are safe for
// concurrent use and follow the sink error model (docs/OBSERVABILITY.md):
// write errors are sticky, later records are discarded, and the first
// error is reported by Flush/Close.
type Writer struct {
	dir     string
	man     Manifest
	opts    Options
	numCams int
	segSize int
	now     func() time.Time // the source of segment birth times

	mu       sync.Mutex
	err      error
	closed   bool
	snaps    *jsonlWriter
	rounds   *jsonlWriter
	seg      *jsonlWriter
	segments []Segment
	births   []time.Time // per-segment birth times (memory only; never on disk)
	segSeq   int         // next segment file ordinal (monotonic under retention)
	frames   int
	line     []byte // the frame record being built, reused under mu

	// The snapshot or round record being encoded, under mu: enc writes
	// into buf, and the value is copied into snap or round for the call
	// and zeroed after it, so encoding boxes nothing and keeps nothing.
	buf   bytes.Buffer
	enc   *json.Encoder
	snap  metrics.Snapshot
	round metrics.Round
}

// Create starts a new run in dir with default Options (no fsync,
// unlimited retention). See CreateWith.
func Create(dir string, man Manifest) (*Writer, error) {
	return CreateWith(dir, man, Options{})
}

// CreateWith starts a new run in dir (created if needed; refused if it
// already holds a manifest — runs are append-only, never overwritten).
// The manifest's Version and SegmentSize are filled with defaults when
// zero and its Fsync/KeepSegments fields are stamped from opts; Cameras
// must parse as a valid roster.
func CreateWith(dir string, man Manifest, opts Options) (*Writer, error) {
	cams, err := man.roster()
	if err != nil {
		return nil, err
	}
	if man.Version == 0 {
		man.Version = Version
	}
	if man.Version != Version {
		return nil, fmt.Errorf("store: unsupported format version %d (want %d)", man.Version, Version)
	}
	if man.SegmentSize <= 0 {
		man.SegmentSize = DefaultSegmentSize
	}
	if opts.Fsync != FsyncNever {
		man.Fsync = opts.Fsync.String()
	}
	if opts.KeepSegments > 0 {
		man.KeepSegments = opts.KeepSegments
	}
	if opts.KeepDuration > 0 {
		man.KeepDuration = opts.KeepDuration.String()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a run (refusing to overwrite)", dir)
	}
	if err := writeJSON(filepath.Join(dir, manifestFile), man); err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, man: man, opts: opts, numCams: len(cams), segSize: man.SegmentSize, now: time.Now}
	w.enc = json.NewEncoder(&w.buf)
	return w, nil
}

// Manifest returns the manifest the run was created with (defaults
// filled in).
func (w *Writer) Manifest() Manifest { return w.man }

// roster decodes and checks the manifest's camera roster: valid cameras,
// at least one.
func (m *Manifest) roster() ([]*scene.Camera, error) {
	cams, err := scene.UnmarshalCameras(m.Cameras)
	if err != nil {
		return nil, fmt.Errorf("store: manifest cameras: %w", err)
	}
	if len(cams) == 0 {
		return nil, fmt.Errorf("store: manifest has no cameras")
	}
	return cams, nil
}

// readManifest reads and checks dir's manifest — a format version this
// package reads and a roster CreateWith would accept — for Open and
// Recover alike, so neither acts on a run the other refuses.
func readManifest(dir string) (Manifest, []*scene.Camera, error) {
	var man Manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return man, nil, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	if man.Version < legacyVersion || man.Version > Version {
		return man, nil, fmt.Errorf("store: unsupported format version %d (want %d..%d)", man.Version, legacyVersion, Version)
	}
	cams, err := man.roster()
	return man, cams, err
}

// writeJSON writes v, indented, as the file at path: the manifest
// (CreateWith, Recover) and the frame index (writeIndex).
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// writeIndex writes frames/index.json for the frame log segs, whose last
// segment ends the stream. With no segment it removes the index instead,
// so no index outlives the log it described.
func writeIndex(dir string, segs []Segment) error {
	path := filepath.Join(dir, framesDir, indexFile)
	if len(segs) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	}
	last := segs[len(segs)-1]
	return writeJSON(path, frameIndex{Frames: last.First + last.Count, Segments: segs})
}

// jsonlWriter is a lazily-opened buffered JSONL file writing
// checksummed records under the writer's fsync policy.
type jsonlWriter struct {
	f     *os.File
	bw    *bufio.Writer
	fsync FsyncPolicy
	n     int // records since the last sync
}

// fsyncEvery is the records-per-sync interval of FsyncInterval.
const fsyncEvery = 64

func openJSONL(path string, opts Options) (*jsonlWriter, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &jsonlWriter{f: f, bw: bufio.NewWriter(f), fsync: opts.Fsync}, nil
}

// record appends one sealed line and applies the fsync policy.
func (j *jsonlWriter) record(line []byte) error {
	if _, err := j.bw.Write(line); err != nil {
		return err
	}
	j.n++
	switch j.fsync {
	case FsyncEveryRecord:
		return j.sync()
	case FsyncInterval:
		if j.n >= fsyncEvery {
			return j.sync()
		}
	}
	return nil
}

// sync flushes the buffer and forces the file to stable storage.
func (j *jsonlWriter) sync() error {
	if err := j.bw.Flush(); err != nil {
		return err
	}
	j.n = 0
	return j.f.Sync()
}

// close flushes the log, syncs it unless the policy is FsyncNever, and
// closes its file. A nil log, one never opened, closes as a no-op.
func (j *jsonlWriter) close() error {
	if j == nil {
		return nil
	}
	err := j.bw.Flush()
	if err == nil && j.fsync != FsyncNever {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// RecordFrame appends one snapshot line (metrics.Sink).
func (w *Writer) RecordFrame(snap metrics.Snapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.closed {
		return
	}
	if w.snaps == nil {
		w.snaps, w.err = openJSONL(filepath.Join(w.dir, snapshotsFile), w.opts)
		if w.err != nil {
			return
		}
	}
	w.snap = snap
	w.recordJSON(w.snaps, &w.snap)
	w.snap = metrics.Snapshot{}
}

// recordJSON appends v's JSON to log as one record: the checksum's room,
// then the encoder's bytes, whose newline sealLine writes again. v points
// at w.snap or w.round. Caller holds w.mu.
func (w *Writer) recordJSON(log *jsonlWriter, v any) {
	w.buf.Reset()
	w.buf.WriteString(linePad)
	if w.err = w.enc.Encode(v); w.err == nil {
		line := w.buf.Bytes()
		w.err = log.record(sealLine(line[:len(line)-1]))
	}
}

// RecordRound appends one round line (metrics.RoundSink).
func (w *Writer) RecordRound(round metrics.Round) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.closed {
		return
	}
	if w.rounds == nil {
		w.rounds, w.err = openJSONL(filepath.Join(w.dir, roundsFile), w.opts)
		if w.err != nil {
			return
		}
	}
	w.round = round
	w.recordJSON(w.rounds, &w.round)
	w.round = metrics.Round{}
}

// AppendFrame appends one frame to the run's frame log, rolling to a
// new segment every SegmentSize frames. Unlike the record methods it
// returns its error eagerly — a frame the store cannot persist breaks
// the replay contract, so the caller (Writer.Tee) must stop the stream.
func (w *Writer) AppendFrame(f *scene.FrameTruth) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: AppendFrame after Close")
	}
	if w.err != nil {
		return w.err
	}
	if len(f.PerCamera) != w.numCams {
		w.err = fmt.Errorf("store: frame %d has %d camera lists, roster has %d",
			f.Index, len(f.PerCamera), w.numCams)
		return w.err
	}
	if w.frames%w.segSize == 0 {
		if err := w.rollSegment(); err != nil {
			w.err = err
			return err
		}
	}
	line, err := scene.AppendFrame(append(w.line[:0], linePad...), f)
	if err != nil {
		w.err = fmt.Errorf("store: encode frame %d: %w", f.Index, err)
		return w.err
	}
	w.line = sealLine(line)
	if err := w.seg.record(w.line); err != nil {
		w.err = err
		return err
	}
	w.frames++
	w.segments[len(w.segments)-1].Count++
	return nil
}

// rollSegment flushes the open segment (if any), opens the next one,
// and applies the retention bounds — count (KeepSegments) and age
// (KeepDuration) share this one pruning path. Caller holds w.mu.
func (w *Writer) rollSegment() error {
	err := w.seg.close()
	w.seg = nil
	if err != nil {
		return err
	}
	if w.segSeq == 0 {
		if err := os.MkdirAll(filepath.Join(w.dir, framesDir), 0o755); err != nil {
			return err
		}
	}
	name := segmentName(w.segSeq)
	w.segSeq++
	seg, err := openJSONL(filepath.Join(w.dir, framesDir, name), w.opts)
	if err != nil {
		return err
	}
	w.seg = seg
	var now time.Time
	if w.opts.KeepDuration > 0 {
		now = w.now()
	}
	w.segments = append(w.segments, Segment{File: name, First: w.frames})
	w.births = append(w.births, now)
	// Prune closed segments from the front; the just-opened segment is
	// always kept, so the log never shrinks below one segment.
	for len(w.segments) > 1 {
		tooMany := w.opts.KeepSegments > 0 && len(w.segments) > w.opts.KeepSegments
		tooOld := w.opts.KeepDuration > 0 && now.Sub(w.births[0]) > w.opts.KeepDuration
		if !tooMany && !tooOld {
			break
		}
		if err := os.Remove(filepath.Join(w.dir, framesDir, w.segments[0].File)); err != nil {
			return err
		}
		w.segments = append(w.segments[:0], w.segments[1:]...)
		w.births = append(w.births[:0], w.births[1:]...)
	}
	return nil
}

// Flush persists buffered snapshots, rounds, and frame lines, and
// reports the sticky error, if any (metrics.Sink).
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	flush := func(j *jsonlWriter) {
		if j != nil {
			if err := j.bw.Flush(); err != nil && w.err == nil {
				w.err = err
			}
		}
	}
	flush(w.snaps)
	flush(w.rounds)
	flush(w.seg)
	return w.err
}

// Close flushes everything, writes the frame index, and seals the run.
// Idempotent; later record calls are discarded.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	firstErr := func(err error) {
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	firstErr(w.snaps.close())
	firstErr(w.rounds.close())
	firstErr(w.seg.close())
	w.snaps, w.rounds, w.seg = nil, nil, nil
	firstErr(writeIndex(w.dir, w.segments))
	return w.err
}

// Tee wraps a frame source so every frame flowing to the engine is also
// appended to this run's frame log — how a live run records itself. A
// frame the store cannot persist fails the stream (the source returns
// the store error), keeping "recorded" and "processed" in lockstep.
func (w *Writer) Tee(src Source) Source { return &tee{src: src, w: w} }

type tee struct {
	src Source
	w   *Writer
}

func (t *tee) Cameras() []*scene.Camera { return t.src.Cameras() }

func (t *tee) Next() (*scene.FrameTruth, error) {
	f, err := t.src.Next()
	if err != nil {
		return nil, err
	}
	if err := t.w.AppendFrame(f); err != nil {
		return nil, err
	}
	return f, nil
}
