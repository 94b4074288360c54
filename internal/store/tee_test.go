package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"mvs/internal/scene"
)

// waitWriterGone fails the test unless w's writer goroutine has returned,
// or returns within a second.
func waitWriterGone(t *testing.T, w *Writer, after string) {
	t.Helper()
	waitGone(t, fmt.Sprintf("(*Writer).writeBehind(%p", w), after)
}

// TestTeeWriterEnds: the writer goroutine the tee's first Next starts
// does not outlive a Close mid-stream, after io.EOF or after an error, and
// a Close before any Next starts none. After Close, Next fails instead of
// pulling a frame, and a second Close is a no-op. Every frame the tee
// returned before Close is on disk.
func TestTeeWriterEnds(t *testing.T) {
	const numFrames, segSize = 10, 3
	cams, roster := testRoster(t, 2)
	frames := randomFrames(rand.New(rand.NewSource(7)), len(cams), numFrames)
	for _, taken := range []int{0, 1, 2, segSize, numFrames, numFrames + 1} {
		dir := filepath.Join(t.TempDir(), "run")
		w, err := Create(dir, Manifest{Mode: "BALB", SegmentSize: segSize, Cameras: roster})
		if err != nil {
			t.Fatal(err)
		}
		src := newLendingSource(cams, frames)
		tee := w.Tee(src)
		for fi := 0; fi < taken; fi++ {
			f, err := tee.Next()
			if fi == numFrames {
				if err != io.EOF {
					t.Fatalf("after the last frame: %v, want io.EOF", err)
				}
				continue
			}
			if err != nil || f.Index != frames[fi].Index {
				t.Fatalf("frame %d of %d taken: %v", fi, taken, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close after %d frames: %v", taken, err)
		}
		if taken == 0 && w.lent != nil {
			t.Fatal("a Close before any Next started the writer goroutine")
		}
		waitWriterGone(t, w, fmt.Sprintf("Close after %d frames", taken))
		pulled := src.i
		if f, err := tee.Next(); f != nil || err == nil || err == io.EOF {
			t.Fatalf("Next after Close after %d frames: %v, %v, want an error", taken, f, err)
		}
		if src.i != pulled {
			t.Fatalf("Next after Close pulled a frame from the source")
		}
		if err := w.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		run, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(taken, numFrames); run.NumFrames() != want {
			t.Fatalf("Close after %d frames sealed %d frames, want %d", taken, run.NumFrames(), want)
		}
	}
}

// TestTeeWriteFailureOrder injects a write failure through the file seam
// into frame k's append, under every-record so that each frame is one
// write: the Next that lent frame k returns it, the Next after it returns
// the failure without pulling another frame, every later Next returns the
// same failure, Flush and Close report it, the writer goroutine ends, and
// the frame log on disk holds frames 0..k-1 and nothing after.
func TestTeeWriteFailureOrder(t *testing.T) {
	const numFrames, segSize = 9, 3
	cams, roster := testRoster(t, 2)
	frames := randomFrames(rand.New(rand.NewSource(8)), len(cams), numFrames)
	injected := errors.New("injected write failure")
	for _, k := range []int{0, 1, segSize - 1, segSize, numFrames - 1} {
		dir := filepath.Join(t.TempDir(), "run")
		appends := 0
		files := &crashFiles{root: dir, fail: func(op fileOp) error {
			if op.kind != opAppend || !strings.HasPrefix(op.path, framesDir) {
				return nil
			}
			if appends++; appends == k+1 {
				return injected
			}
			return nil
		}}
		w, err := createIn(files, dir, Manifest{Mode: "BALB", SegmentSize: segSize, Cameras: roster}, Options{Fsync: FsyncEveryRecord})
		if err != nil {
			t.Fatal(err)
		}
		src := newLendingSource(cams, frames)
		tee := w.Tee(src)
		for fi := 0; fi <= k; fi++ {
			if _, err := tee.Next(); err != nil {
				t.Fatalf("failure at frame %d: frame %d failed: %v", k, fi, err)
			}
		}
		_, err = tee.Next()
		if !errors.Is(err, injected) {
			t.Fatalf("failure at frame %d: the Next after it returned %v", k, err)
		}
		if src.i != k+1 {
			t.Fatalf("failure at frame %d: the source was pulled for %d frames", k, src.i)
		}
		for range 3 {
			if _, again := tee.Next(); again != err {
				t.Fatalf("failure at frame %d: a later Next returned %v, want the sticky %v", k, again, err)
			}
		}
		if ferr := w.Flush(); ferr != err {
			t.Fatalf("failure at frame %d: Flush returned %v", k, ferr)
		}
		if cerr := w.Close(); cerr != err {
			t.Fatalf("failure at frame %d: Close returned %v", k, cerr)
		}
		waitWriterGone(t, w, "a write failure")
		var log []byte
		for seg := 0; seg*segSize <= k; seg++ {
			log = append(log, mustRead(t, filepath.Join(dir, framesDir, segmentName(seg)))...)
		}
		lines := bytes.SplitAfter(log, []byte("\n"))
		if lines = lines[:len(lines)-1]; len(lines) != k {
			t.Fatalf("failure at frame %d: the frame log holds %d records", k, len(lines))
		}
		for i, line := range lines {
			want, err := scene.MarshalFrame(&frames[i])
			if err != nil {
				t.Fatal(err)
			}
			if body, err := parseLine(line, Version); err != nil || !bytes.Equal(body, want) {
				t.Fatalf("failure at frame %d: record %d on disk is not frame %d (%v)", k, i, i, err)
			}
		}
	}
}
