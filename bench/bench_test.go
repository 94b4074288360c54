package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the path of the repository's BENCHMARK.json, resolved
// before TestMain moves to a scratch directory.
var benchmarkJSON string

// TestMain lets the test binary stand in for mvbench where the open-loop
// workload re-executes itself as the sender, and runs the tests from a
// scratch directory so that what a run writes (.bench_build/, bench/out/)
// does not land in the source tree.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-role" && os.Args[2] == "sender" {
		if err := senderMain(os.Args[3:]); err != nil {
			fmt.Fprintln(os.Stderr, "sender:", err)
			os.Exit(1)
		}
		return
	}
	abs, err := filepath.Abs(filepath.Join("..", "BENCHMARK.json"))
	dir := ""
	if err == nil {
		benchmarkJSON = abs
		if dir, err = os.MkdirTemp("", "mvbench-test-"); err == nil {
			err = os.Chdir(dir)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkResult asserts that a run's result line parses back and carries
// every declared metric exactly once, finite, under a legal name.
func checkResult(t *testing.T, rep *runReport, want []string) {
	t.Helper()
	line, err := json.Marshal(rep.result)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatalf("result line does not parse: %v\n%s", err, line)
	}
	if back.Correct == nil || back.Attempted == nil || back.Failed == nil {
		t.Fatalf("result line lacks correct/attempted/failed: %s", line)
	}
	if !*back.Correct || *back.Attempted < 1 || *back.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d (check: %v)", *back.Correct, *back.Attempted, *back.Failed, rep.checkErr)
	}
	if len(back.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(back.Metrics), len(want))
	}
	for _, name := range want {
		raw, ok := back.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		var v metricValue
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Errorf("metric %s: %v", name, err)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s is %v", name, v.Value)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
		}
	}
}

func names[T any](defs []T, name func(T) string) []string {
	out := make([]string, len(defs))
	seen := map[string]bool{}
	for i, d := range defs {
		out[i] = name(d)
		if seen[out[i]] {
			panic("metric declared twice: " + out[i])
		}
		seen[out[i]] = true
	}
	return out
}

// TestSmoke runs every workload end to end on short passes, and the
// traced run once.
func TestSmoke(t *testing.T) {
	e2e := names(endToEnd, func(d metricDef) string { return d.Name })
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			rep, err := run(runOptions{def: def, seed: 3, seconds: 0, passFrames: 120})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rep, e2e)
			for _, name := range e2e {
				if rep.result.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics are never 0", name, rep.result.Metrics[name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		def := workloadByName("corridor16-live-record")
		rep, err := run(runOptions{def: def, seed: 3, seconds: 0, traced: true, passFrames: 120})
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, rep, names(perLayer, func(d layerDef) string { return d.Name }))
		for _, name := range []string{"span.engine_self_us", "span.store_append_us", "span.sink_record_us", "flow.update_us", "assoc.associate_us"} {
			if rep.result.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want > 0 on %s", name, rep.result.Metrics[name].Value, def.name)
			}
		}
		if v := rep.result.Metrics["span.exec_submit_us"].Value; v != 0 {
			t.Errorf("span.exec_submit_us = %v on a workload without a serve executor", v)
		}
		checkSpans(t, rep.spanFile)
	})
}

// checkSpans asserts that every span's parent resolves: it precedes the
// span, belongs to the same frame, and encloses it.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []spanLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line: %v", err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	roots := 0
	for i, s := range spans {
		if s.Index != i {
			t.Fatalf("span %d has index %d", i, s.Index)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
		if s.Parent == -1 {
			roots++
			if s.Name != spanStep {
				t.Errorf("span %d (%s) has no parent", i, s.Name)
			}
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d: parent %d does not resolve", i, s.Parent)
		}
		p := spans[s.Parent]
		if p.ID != s.ID || p.Start > s.Start || p.End < s.End {
			t.Errorf("span %d (%s %s) is not inside its parent %d (%s %s)", i, s.ID, s.Name, s.Parent, p.ID, p.Name)
		}
	}
	if roots == 0 {
		t.Error("no Step span")
	}
}

// TestRefKernelPinned fails on any edit that changes what the reference
// kernel computes: the kernel is frozen (refkernel.go).
func TestRefKernelPinned(t *testing.T) {
	const want = uint64(0x3f012050baf32c4d)
	k := newRefKernel()
	if got := k.call(); got != want {
		t.Fatalf("reference kernel checksum %#x, pinned %#x: the kernel must not change", got, want)
	}
	if again := k.call(); again != want {
		t.Fatalf("second call returned %#x: the kernel must be repeatable", again)
	}
}

// TestDeclaredMatch keeps BENCHMARK.json and the declarations in
// metrics.go and workloads.go in step.
func TestDeclaredMatch(t *testing.T) {
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []layerDef  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q / %q, defined %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(decl.EndToEnd), len(endToEnd))
	}
	for i, d := range decl.EndToEnd {
		if d != endToEnd[i] {
			t.Errorf("end-to-end metric %d: declared %+v, defined %+v", i, d, endToEnd[i])
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range decl.PerLayer {
		if d != perLayer[i] {
			t.Errorf("per-layer metric %d: declared %+v, defined %+v", i, d, perLayer[i])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) gives, which the acceptance driver
// computes spreads from.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 2, 7})
	if q1 != 2 || q3 != 10 {
		t.Errorf("quartiles of 2,7,10 = %v, %v; Python gives 2, 10", q1, q3)
	}
}

// TestCompareVerdicts exercises the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "frame_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	set := func(values ...float64) metricStats {
		var runs []runRecord
		for i, v := range values {
			runs = append(runs, runRecord{Workload: "w", Seed: int64(i + 1),
				Result: result{Metrics: map[string]metricValue{d.Name: {Value: v}}}})
		}
		return statsOf(runs, "w", d.Name)
	}
	base := set(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name   string
		change metricStats
		want   string
	}{
		{"same", set(101, 100, 100, 99, 101, 99, 101, 100, 100, 99), "same"},
		{"worse", set(115, 116, 114, 115, 117, 113, 115, 116, 114, 115), "worse"},
		{"better", set(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), "better"},
		{"unresolved", set(80, 130, 95, 120, 70, 125, 100, 60, 140, 105), "unresolved"},
	} {
		if got := verdictOf(d, base, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
