package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// segFiles lists the surviving segment files of a run directory.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, framesDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.Name() != indexFile {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestKeepSegmentsPrunesOldest drives the count-based retention bound:
// the frame log never holds more than KeepSegments files, the deleted
// ones are the oldest, and the surviving window still replays.
func TestKeepSegmentsPrunesOldest(t *testing.T) {
	dir := t.TempDir()
	_, roster := testRoster(t, 2)
	w, err := CreateWith(dir, Manifest{Mode: "balb", SegmentSize: 4, Cameras: roster},
		Options{KeepSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Manifest().KeepSegments != 2 {
		t.Fatalf("manifest KeepSegments = %d, want 2", w.Manifest().KeepSegments)
	}
	rng := rand.New(rand.NewSource(7))
	frames := randomFrames(rng, 2, 20) // 5 segments of 4
	for i := range frames {
		if err := w.AppendFrame(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := segFiles(t, dir)
	if len(got) != 2 || got[0] != "seg-000003.jsonl" || got[1] != "seg-000004.jsonl" {
		t.Fatalf("surviving segments = %v, want the newest two (seg-000003, seg-000004)", got)
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	f, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Index != 12 {
		t.Fatalf("first surviving frame index = %d, want 12 (window start)", f.Index)
	}
}

// TestKeepDurationPrunesByAge drives the age-based retention bound on
// time moved by hand: segments older than KeepDuration are deleted at the
// next roll, newer ones survive, and the manifest records the bound so
// mvsim -replay -verify can refuse the windowed run.
func TestKeepDurationPrunesByAge(t *testing.T) {
	dir := t.TempDir()
	_, roster := testRoster(t, 2)
	fake := &manualTime{time.Unix(1_700_000_000, 0)}
	w, err := createAt(dir, Manifest{Mode: "balb", SegmentSize: 2, Cameras: roster},
		Options{KeepDuration: 10 * time.Minute}, fake)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Manifest().KeepDuration; got != "10m0s" {
		t.Fatalf("manifest KeepDuration = %q, want \"10m0s\"", got)
	}
	rng := rand.New(rand.NewSource(9))
	frames := randomFrames(rng, 2, 8) // 4 segments of 2
	// Two segments 6 minutes apart: both inside the 10-minute window.
	for i := 0; i < 4; i++ {
		if i == 2 {
			fake.Advance(6 * time.Minute)
		}
		if err := w.AppendFrame(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segFiles(t, dir)); n != 2 {
		t.Fatalf("segments inside the window = %d, want 2", n)
	}
	// 11 more minutes age the first segment past the bound (17m) while
	// the second stays inside it (11m... also past). Advance enough that
	// only the first two segments expire relative to the third's birth.
	fake.Advance(5 * time.Minute) // seg0 is now 11m old, seg1 5m old
	if err := w.AppendFrame(&frames[4]); err != nil {
		t.Fatal(err)
	}
	got := segFiles(t, dir)
	if len(got) != 2 || got[0] != "seg-000001.jsonl" || got[1] != "seg-000002.jsonl" {
		t.Fatalf("surviving segments = %v, want seg-000001 and seg-000002", got)
	}
	// Fill the open segment, then a long quiet period expires everything
	// closed; the segment opened at the next roll always survives.
	if err := w.AppendFrame(&frames[5]); err != nil {
		t.Fatal(err)
	}
	fake.Advance(time.Hour)
	if err := w.AppendFrame(&frames[6]); err != nil {
		t.Fatal(err)
	}
	got = segFiles(t, dir)
	if len(got) != 1 || got[0] != "seg-000003.jsonl" {
		t.Fatalf("after an hour idle, surviving segments = %v, want only the open seg-000003", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.Manifest().KeepDuration == "" {
		t.Fatal("reopened manifest lost KeepDuration")
	}
	src, err := run.Source()
	if err != nil {
		t.Fatal(err)
	}
	f, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Index != 6 {
		t.Fatalf("first surviving frame index = %d, want 6", f.Index)
	}
}

// TestKeepBoundsShareOnePath sets both bounds at once: whichever bites
// first prunes, through the same rollSegment path.
func TestKeepBoundsShareOnePath(t *testing.T) {
	dir := t.TempDir()
	_, roster := testRoster(t, 1)
	fake := &manualTime{time.Unix(1_700_000_000, 0)}
	w, err := createAt(dir, Manifest{Mode: "balb", SegmentSize: 1, Cameras: roster},
		Options{KeepSegments: 3, KeepDuration: time.Hour}, fake)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	frames := randomFrames(rng, 1, 6)
	// No time passes: only the count bound bites.
	for i := 0; i < 5; i++ {
		if err := w.AppendFrame(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segFiles(t, dir)); n != 3 {
		t.Fatalf("count-bounded segments = %d, want 3", n)
	}
	// Two hours idle: the age bound now prunes everything closed.
	fake.Advance(2 * time.Hour)
	if err := w.AppendFrame(&frames[5]); err != nil {
		t.Fatal(err)
	}
	if n := len(segFiles(t, dir)); n != 1 {
		t.Fatalf("age-bounded segments = %d, want 1 (the open one)", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
