package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mvsim drives the command in-process, as main does with os.Args.
func mvsim(args ...string) (string, error) {
	fs := flag.NewFlagSet("mvsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var stdout bytes.Buffer
	err := run(fs, args, &stdout)
	return stdout.String(), err
}

func mustContain(t *testing.T, out string, err error, want ...string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("output lacks %q:\n%s", w, out)
		}
	}
}

// truncateMidLine cuts a JSONL file in the middle of its last line, the
// torn tail a SIGKILL leaves.
func truncateMidLine(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if err := os.Truncate(path, int64(lastLine+(len(data)-lastLine)/2)); err != nil {
		t.Fatal(err)
	}
}

// TestRecordReplayRecover is CI's replay and crash-injection smokes in
// process: a chaos run recorded through the engine verifies
// byte-identically from its manifest, re-drives under another scheduler,
// and — with its tails torn and its frame index gone, as after a
// SIGKILL — verifies again on the recovered prefix.
func TestRecordReplayRecover(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	out, err := mvsim("-scenario", "S2", "-frames", "120", "-cam-faults", "seed=7,rate=0.05", "-record", dir)
	mustContain(t, out, err, "algorithm:         BALB", "frames evaluated:  60", "camera faults:", "speedup vs full-frame")
	recorded := out

	out, err = mvsim("-replay", dir, "-verify")
	mustContain(t, out, err, "verify:            OK", "recorded as BALB", "frames evaluated:  60")
	// The replay reproduces the run, not just its snapshots: every
	// modeled summary line matches the recording's.
	for _, line := range strings.Split(recorded, "\n") {
		if strings.HasPrefix(line, "object recall:") || strings.HasPrefix(line, "slowest-camera latency:") || strings.HasPrefix(line, "camera faults:") {
			if !strings.Contains(out, line) {
				t.Errorf("replay lacks the recorded line %q:\n%s", line, out)
			}
		}
	}

	out, err = mvsim("-replay", dir, "-mode", "sp", "-workers", "1")
	mustContain(t, out, err, "algorithm:         SP", "recorded as BALB", "camera faults:")

	segs, err := filepath.Glob(filepath.Join(dir, "frames", "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no frame segments in %s: %v", dir, err)
	}
	truncateMidLine(t, segs[len(segs)-1])
	truncateMidLine(t, filepath.Join(dir, "snapshots.jsonl"))
	if err := os.Remove(filepath.Join(dir, "frames", "index.json")); err != nil {
		t.Fatal(err)
	}
	if out, err := mvsim("-replay", dir, "-verify"); err == nil {
		t.Fatalf("a torn recording must not verify without -recover:\n%s", out)
	}
	out, err = mvsim("-replay", dir, "-recover", "-verify")
	mustContain(t, out, err, "verify:            OK", "frames evaluated:  59")
}

// TestVerifyNamesDivergence: a mismatch reports the frame where the
// streams part and both lines, not two byte counts.
func TestVerifyNamesDivergence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	if out, err := mvsim("-scenario", "S2", "-frames", "60", "-record", dir); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Replay under a manifest that names another scheduler: same frames,
	// different decisions, so the snapshots part at once.
	manifest := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, bytes.Replace(data, []byte(`"mode": "BALB"`), []byte(`"mode": "Full"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = mvsim("-replay", dir, "-verify")
	if err == nil {
		t.Fatal("a replay under a different scheduler must diverge")
	}
	for _, want := range []string{"DIVERGED at frame 0:", `recorded: {"source":"pipeline","label":"BALB"`, `replayed: {"source":"pipeline","label":"Full"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("divergence error lacks %q:\n%v", want, err)
		}
	}
}

// TestUsageErrors: contradictory flags fail before the world is
// generated (no scenario named "nope" is ever looked up), and -verify
// refuses stores whose snapshots are not a function of their frame log.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"cannot be combined with -ingest-addr", []string{"-scenario", "nope", "-cam-faults", "seed=1", "-ingest-addr", "127.0.0.1:0"}},
		{"[-frames] cannot accompany it", []string{"-replay", "nowhere", "-frames", "10"}},
		{"[-cam-faults -record] cannot accompany it", []string{"-replay", "nowhere", "-record", "x", "-cam-faults", "seed=1"}},
		{"cannot be combined with -mode", []string{"-replay", "nowhere", "-verify", "-mode", "sp"}},
		{"need -replay", []string{"-scenario", "nope", "-verify"}},
		{"need -replay", []string{"-scenario", "nope", "-recover"}},
		{"flag provided but not defined", []string{"-run", "nowhere"}},
		{"unknown mode", []string{"-scenario", "nope", "-mode", "turbo"}},
	} {
		if _, err := mvsim(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mvsim %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}

	// The -verify refusals, each on a recording whose manifest says why;
	// last, with its frame index gone, the store is capture-only.
	dir := filepath.Join(t.TempDir(), "run")
	if out, err := mvsim("-scenario", "S2", "-frames", "40", "-record", dir); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	manifest := filepath.Join(dir, "manifest.json")
	clean, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ field, want string }{
		{`"ingest": ":7100",`, "refuses live-ingest recordings"},
		{`"keep_segments": 2,`, "refuses retention-windowed recordings"},
		{`"keep_duration": "1h",`, "refuses retention-windowed recordings"},
		{``, "recorded no frames"},
	} {
		if tc.field == "" {
			if err := os.Remove(filepath.Join(dir, "frames", "index.json")); err != nil {
				t.Fatal(err)
			}
		}
		patched := bytes.Replace(clean, []byte(`"seed": 42,`), []byte(`"seed": 42, `+tc.field), 1)
		if err := os.WriteFile(manifest, patched, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := mvsim("-replay", dir, "-verify"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("manifest with %q: error %v, want one containing %q", tc.field, err, tc.want)
		}
	}
}
