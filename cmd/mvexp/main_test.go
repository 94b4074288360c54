package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// studyRun is one study's in-process run at TestEveryStudy's sizes: what
// it printed and the CSV it wrote.
type studyRun struct {
	out, csvName string
	err          error
	csv          []byte
	jsonl        []byte // the -metrics-jsonl stream, tenants only
}

var studyRuns map[string]studyRun

// everyStudy runs each registered study once on S1 (200 frames, one
// worker) and keeps the results for TestEveryStudy and TestStudyDigests.
func everyStudy(t *testing.T) map[string]studyRun {
	t.Helper()
	if studyRuns != nil {
		return studyRuns
	}
	runs := map[string]studyRun{}
	for _, st := range experiments.Studies() {
		dir := t.TempDir()
		var r studyRun
		args := []string{"-exp", st.Name, "-scenario", "S1", "-frames", "200", "-workers", "1", "-csv", dir}
		jsonl := filepath.Join(dir, "run.jsonl")
		if st.Name == "tenants" {
			args = append(args, "-metrics-jsonl", jsonl)
		}
		r.out, r.err = mvexp(args...)
		r.csvName = st.Name + "_" + st.ScenariosFor("S1")[0] + ".csv"
		if r.err == nil {
			r.csv, r.err = os.ReadFile(filepath.Join(dir, r.csvName))
		}
		if r.err == nil && st.Name == "tenants" {
			r.jsonl, r.err = os.ReadFile(jsonl)
		}
		runs[st.Name] = r
	}
	studyRuns = runs
	return runs
}

// TestEveryStudy checks what each registered study prints on S1 and the
// CSV it writes: the header is its column list and the row count its
// shape on S1 (the shard sweep keeps its own C64 fleet, the ablations
// their synthetic instances).
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
	runs := everyStudy(t)
	for _, st := range studies {
		t.Run(st.Name, func(t *testing.T) {
			r := runs[st.Name]
			mustContain(t, r.out, r.err, st.Title, "expected shape: "+st.Expect)
			records, err := csv.NewReader(bytes.NewReader(r.csv)).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			var header []string
			for _, c := range st.Columns {
				header = append(header, c.Name)
			}
			if !reflect.DeepEqual(records[0], header) {
				t.Fatalf("%s header %v, want %v", r.csvName, records[0], header)
			}
			if got := len(records) - 1; got != wantRows[st.Name] {
				t.Fatalf("%s has %d rows, want %d:\n%s", r.csvName, got, wantRows[st.Name], r.csv)
			}
		})
	}
}

// wallClock lists the columns each study measures on the wall clock;
// TestStudyDigests drops them before hashing. Table II is not listed: all
// its columns but the scenario are wall-clock timings (central_us,
// tracking_us, distributed_us, batching_us, total_us), so it has no
// digest at all.
var wallClock = map[string][]string{
	"shard": {"central_us_per_frame"},
}

// TestStudyDigests pins every study's CSV across commits: the SHA-256 of
// the bytes TestEveryStudy's runs write, less the wall-clock columns
// (all but Table II, which is wall clock throughout). It pins the
// tenants study's snapshot stream too, label by label (labelDigest). A
// refactor must not move one of them; a change that means to move
// numbers lists each old → new digest in CHANGES.md. The values are
// amd64's (docs/ARCHITECTURE.md §4).
func TestStudyDigests(t *testing.T) {
	want := map[string]string{
		"ablation":  "93600219773e57435ac0c149131cb4972e9e9c3cf40370367f9cb3d6ab6f83a6",
		"adapt":     "c8bb801e1176dec1c72af59618d704199c0e13e74b3efcd0a2fb5d2d0607600b",
		"chaos":     "144ca6752cf9008ea50ed24e036924c912058f464ab263b6667579e4b5fc7304",
		"fig10":     "14eadc1f71fb181c94557e5a1afd8db2921ef0e087d928a2a3964e0ff227fd52",
		"fig11":     "c8afcbb49a9780ee0429aa8e8af06e85d95d8983e2ce2aec97726ab16c6ca277",
		"fig12":     "9a06b2fca0e140c2c910a5e7236947d14572f49bd2497864482ac80759e2af0a",
		"fig13":     "b74d824e6102bbd770229c801a254197084c5c57d46534e2c4b2c25eb3c3fe4f",
		"fig14":     "60214a4ffdd2d2ce0bfde68ddebcd85d1ccb4662efe701eb199e815f891c27fa",
		"fig2":      "1689793392c9bcd06ccd0d8a707ad29c255481163f21eefa8ca4eb4d3d0f3d3c",
		"occlusion": "e572ecfcae00350d59db100ba27d2bb3661f6ea4400e99bbd4cfdd2a4bc2931e",
		"shard":     "e2527777813a282f74be8c889e6fdb3af9362df568c11649adcf82256cc2871c",
		"shed":      "d3f72ade77488b29006c9a8a691531e5307576dc25384ef319619b4442eb4efc",
		"sweep":     "bd4f63de7fc5d05bda0c5d42c597ce3f4cc4a896d9b3d2c2f2930122c14c4107",
		"table1":    "8792dad80f06948bb5122ce9f7186a8dce23b0562b78cbbfe2e427e92d110e07",
		"tenants":   "ffee090cf88fc55b5594cde3d3f1e2a07418c03413333588dbfd11ce94d501d5",
	}
	runs := everyStudy(t)
	if len(runs) != len(want)+1 {
		t.Fatalf("%d studies registered, the test pins %d and table2", len(runs), len(want))
	}
	for name, r := range runs {
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		if name == "table2" {
			continue
		}
		data, err := dropColumns(r.csv, wallClock[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: %s digest %s, want %s", name, r.csvName, got, want[name])
		}
	}
	const tenantsStream = "ec03fc7af8cbf1c1215b57e3513735f5a0fe5f23d519c7acdf0cc643f82a1910"
	if got, err := labelDigest(runs["tenants"].jsonl); err != nil || got != tenantsStream {
		t.Errorf("tenants: -metrics-jsonl digest %s (%v), want %s", got, err, tenantsStream)
	}
}

// labelDigest is the SHA-256 of a snapshot stream regrouped by label:
// each label's lines in stream order, the labels in ascending order. The
// serve pool interleaves its tenants' snapshots as they are priced, so
// the raw bytes vary run to run while each label's own stream does not.
func labelDigest(jsonl []byte) (string, error) {
	var lines [][2][]byte // label, line
	for _, line := range bytes.SplitAfter(jsonl, []byte("\n"))[:bytes.Count(jsonl, []byte("\n"))] {
		var snap struct{ Label string }
		if err := json.Unmarshal(line, &snap); err != nil {
			return "", err
		}
		lines = append(lines, [2][]byte{[]byte(snap.Label), line})
	}
	slices.SortStableFunc(lines, func(a, b [2][]byte) int { return bytes.Compare(a[0], b[0]) })
	h := sha256.New()
	for _, l := range lines {
		h.Write(l[1])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dropColumns returns data without the named columns, re-encoded; with
// none to drop it returns data as it is.
func dropColumns(data []byte, drop []string) ([]byte, error) {
	if len(drop) == 0 {
		return data, nil
	}
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, err
	}
	var keep []int
	for i, name := range records[0] {
		if !slices.Contains(drop, name) {
			keep = append(keep, i)
		}
	}
	if len(keep)+len(drop) != len(records[0]) {
		return nil, fmt.Errorf("header %v lacks one of the wall-clock columns %v", records[0], drop)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	for _, rec := range records {
		row := make([]string, len(keep))
		for j, i := range keep {
			row[j] = rec[i]
		}
		if err := w.Write(row); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
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
