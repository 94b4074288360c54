package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestRecordingDigests pins the modelled output across commits: the
// SHA-256 of every file a recording writes (manifest, snapshot JSONL,
// round log, frame segments and their index) for three runs. A refactor
// must not move one byte of them; a change that means to move numbers
// lists each old → new digest in CHANGES.md. The S4 run is recorded at
// -workers 1 and 3 against one table, so worker invariance is pinned
// across commits too. The values are amd64's (docs/ARCHITECTURE.md §4).
func TestRecordingDigests(t *testing.T) {
	s1 := map[string]string{
		"frames/index.json":       "753dae3ab4777caa175513849e5777eb73f78078c7e1dbbccf6f133ccac0ec33",
		"frames/seg-000000.jsonl": "ed5caac295902ea6f020a48a100e3ad6f76c7c333ae4be3747073fb25f8ab273",
		"manifest.json":           "16844797c122921cc8089d13f0736ae1bcba076a23e3ef3c2221ea15b1e52bee",
		"rounds.jsonl":            "d3ce74c339a3f37d1d5e2ab13ee72ac9e0a78d67e402a83d86d28f39aed61798",
		"snapshots.jsonl":         "e78f17f5cf1eeaf1354531538df6ecf5784f6c41ba082791affb93f52558dcec",
	}
	s4 := map[string]string{
		"frames/index.json":       "59a36f657abe3bf48cbcb539724234c6c716856acbdffc04d59d367dabbf233e",
		"frames/seg-000000.jsonl": "8c908b15afcca62a48045298c1b7c01d030aa7d4ac563a8249fd44d269c95e70",
		"frames/seg-000001.jsonl": "9ca8aa1c284bae07234b599c7278ef0c9654776a0e38714a39f2420269cc5fb5",
		"manifest.json":           "bddc9ead60f6f4c6a73a323d799f7268e6ead4d0b3a4b16826f1b7d197dc6138",
		"rounds.jsonl":            "89b5e6cbb2d824f633386607424edf38f951fe1ee063a859da5fe60ce9353efd",
		"snapshots.jsonl":         "637541fd46854389222326e7cababf688b1b528fc10d1ce49abbec8f89cb336d",
	}
	c16 := map[string]string{
		"frames/index.json":       "d2a9506a067d1d94fbb3be403320ac2d5c92336242090e840bf6975ff0338e8e",
		"frames/seg-000000.jsonl": "16573ca905ef0809248f9df69138242e53786e487908c558ad79ce5a38b0fa97",
		"manifest.json":           "e846b5211fb581d18dcede8116894157a37aa2c8cf7371bad9d87d5e697a8d86",
		"rounds.jsonl":            "0d3e4383a7ca7401f9b2dc6f59efa410a43b6318781d0292394bfecd77dd2f5a",
		"snapshots.jsonl":         "635293284fd06446ca809a5939770a2a89723bd69c61ffb27748749bbe8c8599",
	}
	for _, c := range []struct {
		name string
		args []string
		want map[string]string
	}{
		{"S1 faulted", []string{"-scenario", "S1", "-frames", "300", "-cam-faults", "seed=7,rate=0.05"}, s1},
		{"S4 workers 1", []string{"-scenario", "S4", "-frames", "600", "-workers", "1"}, s4},
		{"S4 workers 3", []string{"-scenario", "S4", "-frames", "600", "-workers", "3"}, s4},
		{"C16 failover adapt", []string{"-scenario", "C16", "-frames", "400", "-cam-faults", "seed=7,rate=0.1",
			"-health-k", "2", "-adapt", "slo=200ms,window=20,cooldown=2,max=3"}, c16},
	} {
		dir := filepath.Join(t.TempDir(), "run")
		if out, err := mvsim(append(c.args, "-record", dir)...); err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, out)
		}
		got := storeDigests(t, dir)
		for file, want := range c.want {
			if got[file] != want {
				t.Errorf("%s: %s digest %s, want %s", c.name, file, got[file], want)
			}
		}
		for file, d := range got {
			if _, ok := c.want[file]; !ok {
				t.Errorf("%s: unexpected file %s (digest %s)", c.name, file, d)
			}
		}
		if c.name == "C16 failover adapt" {
			checkEngaged(t, filepath.Join(dir, "snapshots.jsonl"))
		}
	}
}

// storeDigests hashes every file under dir, keyed by its slash path.
func storeDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		out[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkEngaged fails unless the run's last snapshot counts both failover
// reassignments and adapt transitions: a digest of a run where neither
// path fires pins nothing of them.
func checkEngaged(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.TrimSpace(data)
	line := data[bytes.LastIndexByte(data, '\n')+1:]
	var last struct {
		Reassignments    int `json:"reassignments"`
		AdaptTransitions int `json:"adapt_transitions"`
	}
	// A store line is "<checksum> <json>".
	if err := json.Unmarshal(line[bytes.IndexByte(line, ' ')+1:], &last); err != nil {
		t.Fatal(err)
	}
	if last.Reassignments == 0 || last.AdaptTransitions == 0 {
		t.Fatalf("C16 run shows %d reassignments and %d adapt transitions; both must be above zero",
			last.Reassignments, last.AdaptTransitions)
	}
}
