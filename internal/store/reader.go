package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

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
	man, cams, err := readManifest(dir)
	if err != nil {
		return nil, err
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
	data, err := r.readLog(snapshotsFile)
	if data == nil {
		return nil, err
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
	return decodeLog[metrics.Snapshot](r, snapshotsFile, "snapshots")
}

// Rounds decodes the recorded scheduling-round log.
func (r *Run) Rounds() ([]metrics.Round, error) {
	return decodeLog[metrics.Round](r, roundsFile, "rounds")
}

// readLog reads one of the run's logs whole; a missing file is a log
// the run never wrote (nil, no error).
func (r *Run) readLog(file string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, file))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// decodeLog decodes every record of one of the run's logs into a T.
func decodeLog[T any](r *Run, file, what string) ([]T, error) {
	data, err := r.readLog(file)
	if data == nil {
		return nil, err
	}
	var out []T
	if err := decodeLines(data, r.man.Version, func(line []byte) error {
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		out = append(out, v)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("store: decode %s: %w", what, err)
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

// A replay decodes ahead into a ring of replaySlots frames, and Next
// hands the slots it is done with back to the producer replayBatch at a
// time, so a producer that is ahead wakes once a batch rather than once
// a frame. replaySlots must be at least replayBatch: Next then holds
// fewer slots than the ring has whenever it waits for one.
const (
	replaySlots = 8
	replayBatch = 4
)

// errReplayClosed is what Next returns after Close.
var errReplayClosed = errors.New("store: replay closed")

// Replay streams a recorded frame log segment by segment. It satisfies
// pipeline.Source: Next returns frames in recorded order and io.EOF
// after the last, and the frame count is checked against the index so a
// truncated segment fails loudly instead of ending a replay early.
//
// The first Next starts one producer goroutine, which reads, checks and
// decodes the frames after the one Next lent while the caller works on
// it, into a ring of replaySlots decoders; io.EOF, the first error or
// Close ends it, and Close waits for it. A failure reaches Next at the
// frame it belongs to and stays: every later Next returns it again. A
// warm Replay allocates nothing per frame: the read buffer and each
// slot's decoder are reused, so its working set is the read buffer and
// replaySlots times the largest frame it has read.
type Replay struct {
	dir  string
	cams []*scene.Camera
	ver  int
	segs []Segment
	want int

	// The producer's: the frame log's reader, and each slot from the time
	// Next hands it back until the producer passes it on through ready.
	si   int // next segment to open
	f    *os.File
	br   *bufio.Reader // made for the first segment, Reset onto each next one
	line []byte        // a record longer than br's buffer, gathered
	left int           // frames remaining in the open segment
	read int
	ring [replaySlots]replaySlot

	ready chan struct{} // one a slot filled, in ring order
	free  chan struct{} // one a replayBatch slots handed back; closed by Close
	prod  sync.WaitGroup

	// Next's and Close's.
	next   int   // the slot the next Next takes
	held   int   // slots done with and not yet handed back
	err    error // the failure (io.EOF included) every Next now returns
	closed bool
}

// replaySlot is one frame of the ring: the producer decodes into dec and
// leaves the frame, or the failure in its place, for Next.
type replaySlot struct {
	dec   scene.FrameDecoder
	frame *scene.FrameTruth
	err   error
}

// Cameras returns the recorded roster.
func (r *Replay) Cameras() []*scene.Camera { return r.cams }

// Next returns the next recorded frame, or io.EOF after the last. The
// frame is lent: it and its lists are valid until the next call of Next
// (the pipeline.Source contract), and a caller that keeps a frame longer
// copies it.
func (r *Replay) Next() (*scene.FrameTruth, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.ready == nil {
		r.ready = make(chan struct{}, replaySlots)
		r.free = make(chan struct{}, replaySlots/replayBatch)
		r.prod.Add(1)
		go r.produce()
	} else if r.held++; r.held == replayBatch {
		// The frame lent last is done with, and with it a batch.
		r.free <- struct{}{}
		r.held = 0
	}
	<-r.ready
	s := &r.ring[r.next]
	r.next = (r.next + 1) % replaySlots
	if s.err != nil {
		r.err = s.err
		return nil, r.err
	}
	return s.frame, nil
}

// produce fills the ring in order, a slot at a time while it holds
// slots, until a failure — io.EOF included — which it leaves in the
// slot of the frame it belongs to, or until Close.
func (r *Replay) produce() {
	defer r.prod.Done()
	owned := replaySlots
	for i := 0; ; i = (i + 1) % replaySlots {
		if owned == 0 {
			if _, ok := <-r.free; !ok {
				return
			}
			owned = replayBatch
		}
		owned--
		s := &r.ring[i]
		s.frame, s.err = r.decode(&s.dec)
		r.ready <- struct{}{}
		if s.err != nil {
			return
		}
	}
}

// decode reads, checks and decodes the next recorded frame into dec, or
// returns io.EOF after the last.
func (r *Replay) decode(dec *scene.FrameDecoder) (*scene.FrameTruth, error) {
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
	line, err := r.readLine()
	if err == io.EOF && len(line) > 0 {
		err = nil // final line without trailing newline
	}
	if err != nil {
		return nil, fmt.Errorf("store: segment truncated at frame %d: %w", r.read, err)
	}
	body, err := parseLine(line, r.ver)
	if err != nil {
		return nil, fmt.Errorf("store: frame %d: %w", r.read, err)
	}
	frame, err := dec.Decode(body, len(r.cams))
	if err != nil {
		return nil, err
	}
	r.left--
	r.read++
	return frame, nil
}

// readLine reads one line, newline included. It is lent until the next
// read: the reader's own buffer, or, for a line longer than that, r.line,
// where ReadSlice's pieces are gathered.
func (r *Replay) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	r.line = append(r.line[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.br.ReadSlice('\n')
		r.line = append(r.line, line...)
	}
	return r.line, err
}

// Close stops the producer, waits for it to return and releases the open
// segment file, if any; Next then returns the failure it reached, or an
// error if there was none. Draining the replay to io.EOF closes the file
// implicitly; Close is for abandoning a replay early, and it is safe to
// call after either.
func (r *Replay) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.free != nil {
		close(r.free)
		r.prod.Wait()
	}
	if r.err == nil {
		r.err = errReplayClosed
	}
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
