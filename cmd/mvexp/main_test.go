package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mvs/internal/experiments"
)

// mvexp drives the command in-process, as main does with os.Args.
func mvexp(args ...string) (string, error) {
	fs := flag.NewFlagSet("mvexp", flag.ContinueOnError)
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

// TestEveryStudy runs each registered study on S1 and checks what it
// prints and the CSV it writes: the header is its column list and the
// row count its shape on S1 (the shard sweep keeps its own C64 fleet, the
// ablations their synthetic instances).
func TestEveryStudy(t *testing.T) {
	wantRows := map[string]int{
		"table1": 5, "fig2": 5, "fig10": 4, "fig11": 4, "fig12": 5, "fig13": 5, "table2": 1, "fig14": 6,
		"sweep": 3, "occlusion": 2, "chaos": 3, "shard": 4, "shed": 12, "adapt": 4, "tenants": 5,
		"ablation": 18,
	}
	studies := experiments.Studies()
	if len(studies) != len(wantRows) {
		t.Fatalf("%d studies registered, the test knows %d", len(studies), len(wantRows))
	}
	for _, st := range studies {
		t.Run(st.Name, func(t *testing.T) {
			dir := t.TempDir()
			out, err := mvexp("-exp", st.Name, "-scenario", "S1", "-frames", "200", "-workers", "1", "-csv", dir)
			mustContain(t, out, err, st.Title, "expected shape: "+st.Expect)
			name := st.Name + "_" + st.ScenariosFor("S1")[0] + ".csv"
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			var header []string
			for _, c := range st.Columns {
				header = append(header, c.Name)
			}
			if !reflect.DeepEqual(records[0], header) {
				t.Fatalf("%s header %v, want %v", name, records[0], header)
			}
			if got := len(records) - 1; got != wantRows[st.Name] {
				t.Fatalf("%s has %d rows, want %d:\n%s", name, got, wantRows[st.Name], data)
			}
		})
	}
}

// TestAnyScenario: every per-scenario study takes any workload.ByName
// scenario, Fig. 14 included.
func TestAnyScenario(t *testing.T) {
	out, err := mvexp("-exp", "fig14", "-scenario", "S2", "-frames", "200")
	mustContain(t, out, err, "Fig 14", "[S2]", "balb_recall")
	out, err = mvexp("-exp", "fig13", "-scenario", "S4", "-frames", "200")
	mustContain(t, out, err, "Fig 13", "[S4]", "BALB-Ind")
}

// TestSnapshotLabels reads -metrics-jsonl back: every arm streams under
// its own label — the occlusion study's included — and arms that several
// studies read (Figs. 12, 13 and Table II share "modes/…") run once.
func TestSnapshotLabels(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		want map[string]int
	}{
		{"occlusion", map[string]int{"occlusion/R=1": 100, "occlusion/R=2": 100}},
		{"table2", map[string]int{"modes/Full": 100, "modes/BALB-Ind": 100, "modes/BALB-Cen": 100, "modes/BALB": 100, "modes/SP": 100}},
	} {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if out, err := mvexp("-exp", tc.exp, "-scenario", "S2", "-frames", "200", "-metrics-jsonl", path); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if got := labelCounts(t, path); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-exp %s snapshot labels %v, want %v", tc.exp, got, tc.want)
		}
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	if out, err := mvexp("-exp", "all", "-scenario", "S2", "-frames", "200", "-metrics-jsonl", path); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for label, n := range labelCounts(t, path) {
		if n != 100 {
			t.Errorf("-exp all: %d snapshots labelled %q, want one run of 100 frames", n, label)
		}
	}
}

func labelCounts(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var snap struct{ Label string }
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		counts[snap.Label]++
	}
	return counts
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		want string
		args []string
	}{
		{`unknown experiment "fig99"`, []string{"-exp", "fig99"}},
		{`unknown scenario "S9"`, []string{"-exp", "table1", "-scenario", "S9"}},
		{"-record needs a single -scenario", []string{"-exp", "fig12", "-record", "x"}},
		{"flag provided but not defined", []string{"-ingest-addr", ":7100"}},
	} {
		if _, err := mvexp(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mvexp %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
