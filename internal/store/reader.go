package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mvs/internal/metrics"
	"mvs/internal/scene"
)

// Run is the reader side of a recorded run directory.
type Run struct {
	dir   string
	man   Manifest
	cams  []*scene.Camera
	index *frameIndex // nil when the run recorded no frames (capture-only)
}

// Open reads a run directory's manifest (and frame index, when
// present). It does not load snapshots, rounds, or frames — those
// stream on demand.
func Open(dir string) (*Run, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	if man.Version < legacyVersion || man.Version > Version {
		return nil, fmt.Errorf("store: unsupported format version %d (want %d..%d)", man.Version, legacyVersion, Version)
	}
	cams, err := scene.UnmarshalCameras(man.Cameras)
	if err != nil {
		return nil, fmt.Errorf("store: manifest cameras: %w", err)
	}
	if len(cams) == 0 {
		return nil, fmt.Errorf("store: manifest has no cameras")
	}
	r := &Run{dir: dir, man: man, cams: cams}
	idxData, err := os.ReadFile(filepath.Join(dir, framesDir, indexFile))
	switch {
	case err == nil:
		var idx frameIndex
		if err := json.Unmarshal(idxData, &idx); err != nil {
			return nil, fmt.Errorf("store: decode frame index: %w", err)
		}
		if err := idx.validate(); err != nil {
			return nil, err
		}
		r.index = &idx
	case os.IsNotExist(err):
		// Capture-only run, or a writer that was never closed: no frame
		// index means no replayable frame log.
	default:
		return nil, fmt.Errorf("store: %w", err)
	}
	return r, nil
}

// Manifest returns the recorded manifest.
func (r *Run) Manifest() Manifest { return r.man }

// Cameras returns the recorded roster (decoded once at Open).
func (r *Run) Cameras() []*scene.Camera { return r.cams }

// HasFrames reports whether the run recorded a replayable frame log.
func (r *Run) HasFrames() bool { return r.index != nil }

// NumFrames returns the recorded frame count (0 for capture-only runs).
func (r *Run) NumFrames() int {
	if r.index == nil {
		return 0
	}
	return r.index.Frames
}

// SnapshotsRaw returns the recorded snapshot log as plain JSONL — the
// byte-exact form mvsim -replay -verify compares a re-run's JSONL sink
// output against. Version-2 checksum prefixes are verified and
// stripped, so the result is checksum-free regardless of format
// version. The checksums are stripped in place, in the one buffer the
// file was read into. Missing file means the run recorded no snapshots
// (nil, no error).
func (r *Run) SnapshotsRaw() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, snapshotsFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Each line is written back no later than where it was read from, so
	// out never overtakes the line decodeLines is on; only a version-1
	// file's unterminated last line gains a byte, at the very end.
	out := data[:0]
	if err := decodeLines(data, r.man.Version, func(line []byte) error {
		out = append(append(out, line...), '\n')
		return nil
	}); err != nil {
		return nil, fmt.Errorf("store: snapshots: %w", err)
	}
	return out, nil
}

// Snapshots decodes the recorded per-frame snapshot log.
func (r *Run) Snapshots() ([]metrics.Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, snapshotsFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []metrics.Snapshot
	if err := decodeLines(data, r.man.Version, func(line []byte) error {
		var s metrics.Snapshot
		if err := json.Unmarshal(line, &s); err != nil {
			return err
		}
		out = append(out, s)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("store: decode snapshots: %w", err)
	}
	return out, nil
}

// Rounds decodes the recorded scheduling-round log.
func (r *Run) Rounds() ([]metrics.Round, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, roundsFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []metrics.Round
	if err := decodeLines(data, r.man.Version, func(line []byte) error {
		var rd metrics.Round
		if err := json.Unmarshal(line, &rd); err != nil {
			return err
		}
		out = append(out, rd)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("store: decode rounds: %w", err)
	}
	return out, nil
}

// decodeLines walks a log's records, validating and stripping each
// line's checksum per the format version before handing it to fn.
func decodeLines(data []byte, version int, fn func([]byte) error) error {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		body, err := parseLine(line, version)
		if err != nil {
			return err
		}
		if err := fn(body); err != nil {
			return err
		}
	}
	return nil
}

// Source opens the recorded frame log as a streaming frame source (a
// Replay), ready to feed pipeline.NewEngine. Errors when the run is
// capture-only.
func (r *Run) Source() (*Replay, error) {
	if r.index == nil {
		return nil, fmt.Errorf("store: run in %s recorded no frames (capture-only run, not replayable)", r.dir)
	}
	// The readable frame count is the sum of the surviving segments'
	// counts: equal to index.Frames unless retention deleted old
	// segments, in which case only the window replays.
	want := 0
	for _, seg := range r.index.Segments {
		want += seg.Count
	}
	return &Replay{dir: r.dir, cams: r.cams, ver: r.man.Version, segs: r.index.Segments, want: want}, nil
}

// replayReadBuffer is the replay's read buffer: a few frames of a
// 16-camera fleet per read call.
const replayReadBuffer = 32 << 10

// Replay streams a recorded frame log segment by segment. It satisfies
// pipeline.Source: Next returns frames in recorded order and io.EOF
// after the last, and the frame count is checked against the index so a
// truncated segment fails loudly instead of ending a replay early. A
// warm Replay allocates nothing per frame: the read buffer, the line and
// the decoded frame are reused, so its working set is the largest frame
// it has read.
type Replay struct {
	dir  string
	cams []*scene.Camera
	ver  int
	segs []Segment
	want int

	si   int // next segment to open
	f    *os.File
	br   *bufio.Reader      // made for the first segment, Reset onto each next one
	line []byte             // the record being read, reused from frame to frame
	dec  scene.FrameDecoder // the frame Next lends
	left int                // frames remaining in the open segment
	read int
}

// Cameras returns the recorded roster.
func (r *Replay) Cameras() []*scene.Camera { return r.cams }

// Next returns the next recorded frame, or io.EOF after the last. The
// frame is lent: it and its lists are valid until the next call of Next
// (the pipeline.Source contract), and a caller that keeps a frame longer
// copies it.
func (r *Replay) Next() (*scene.FrameTruth, error) {
	for r.left == 0 {
		if r.f != nil {
			if err := r.f.Close(); err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
			r.f = nil
		}
		if r.si >= len(r.segs) {
			if r.read != r.want {
				return nil, fmt.Errorf("store: frame log ended after %d frames, index promises %d", r.read, r.want)
			}
			return nil, io.EOF
		}
		seg := r.segs[r.si]
		r.si++
		if seg.Count == 0 {
			continue
		}
		f, err := os.Open(filepath.Join(r.dir, framesDir, seg.File))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if r.br == nil {
			r.br = bufio.NewReaderSize(f, replayReadBuffer)
		} else {
			r.br.Reset(f)
		}
		r.f, r.left = f, seg.Count
	}
	var err error
	r.line, err = readLine(r.br, r.line)
	if err == io.EOF && len(r.line) > 0 {
		err = nil // final line without trailing newline
	}
	if err != nil {
		return nil, fmt.Errorf("store: segment truncated at frame %d: %w", r.read, err)
	}
	body, err := parseLine(r.line, r.ver)
	if err != nil {
		return nil, fmt.Errorf("store: frame %d: %w", r.read, err)
	}
	frame, err := r.dec.Decode(body, len(r.cams))
	if err != nil {
		return nil, err
	}
	r.left--
	r.read++
	return frame, nil
}

// readLine reads one line, newline included, into buf's storage.
// ReadSlice lends the reader's own buffer and hands over a line longer
// than it in pieces, so the line is gathered in the caller's.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		piece, err := br.ReadSlice('\n')
		buf = append(buf, piece...)
		if err != bufio.ErrBufferFull {
			return buf, err
		}
	}
}

// Close releases the open segment file, if any. Draining the replay to
// io.EOF closes it implicitly; Close is for abandoning a replay early.
func (r *Replay) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
