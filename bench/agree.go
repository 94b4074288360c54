package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runRecord is one run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Result   result `json:"result"`
}

// resultFile is what -out writes and -compare reads: the runs of one
// tree on one host.
type resultFile struct {
	Host hostInfo    `json:"host"`
	Runs []runRecord `json:"runs"`
}

func writeResultFile(path string, runs []runRecord) error {
	data, err := json.MarshalIndent(resultFile{Host: readHostInfo(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// childRun runs one workload in a process of its own — the way the
// acceptance driver does, so peak_rss_mb and the garbage collector's
// state are the run's alone — relays what it prints to relay, and
// parses the result line.
func childRun(def *workloadDef, seed int64, seconds float64, traced bool, relay io.Writer) (runRecord, error) {
	rec := runRecord{Workload: def.name, Seed: seed, Traced: traced}
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", def.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, relay)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		if runErr != nil {
			return rec, fmt.Errorf("%s seed %d: %w", def.name, seed, runErr)
		}
		return rec, fmt.Errorf("%s seed %d: result line: %w", def.name, seed, err)
	}
	if runErr != nil {
		return rec, fmt.Errorf("%s seed %d: %w", def.name, seed, runErr)
	}
	return rec, nil
}

// runAll runs every workload once and prints all their metrics.
func runAll(seed int64, seconds float64, traced bool, out string) error {
	var runs []runRecord
	for _, def := range workloads {
		rec, err := childRun(def, seed, seconds, traced, os.Stdout)
		if err != nil {
			return err
		}
		runs = append(runs, rec)
		fmt.Println()
	}
	if out != "" {
		return writeResultFile(out, runs)
	}
	return nil
}

// metricStats summarizes one workload × metric over a set of runs.
type metricStats struct {
	values []float64
	med    float64
	q1, q3 float64
	spread float64
	bySeed map[int64]float64
}

func statsOf(runs []runRecord, workload, metric string) metricStats {
	s := metricStats{bySeed: map[int64]float64{}}
	for _, r := range runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		v, ok := r.Result.Metrics[metric]
		if !ok {
			continue
		}
		s.values = append(s.values, v.Value)
		s.bySeed[r.Seed] = v.Value
	}
	s.med = median(s.values)
	s.q1, s.q3 = quartiles(s.values)
	s.spread = spread(s.values)
	return s
}

// worse returns by what share of base the value got worse (negative:
// better), given the metric's direction.
func worse(d metricDef, base, value float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - value) / math.Abs(base)
	}
	return (value - base) / math.Abs(base)
}

// agreeRuns runs two interleaved sets of n runs of this tree per
// workload — A B A B …, run i of both sets on seed i — and checks what
// the acceptance driver checks: every spread (interquartile range over
// median) within the metric's bound, set-up time excepted, and set B's
// median not worse than set A's by more than the bound. It prints one
// markdown table per workload and fails if any check does. "ok (wide)"
// marks a spread inside the bound but over a third of it: accepted, but
// a comparison on that metric will often come out unresolved.
func agreeRuns(n int, seconds float64, out string) error {
	var sets [2][]runRecord
	for _, def := range workloads {
		for i := 1; i <= n; i++ {
			for k := range sets {
				rec, err := childRun(def, int64(i), seconds, false, io.Discard)
				if err != nil {
					return err
				}
				sets[k] = append(sets[k], rec)
				fmt.Fprintf(os.Stderr, "%s seed %d set %c done\n", def.name, i, 'A'+k)
			}
		}
	}
	if out != "" {
		for k, runs := range sets {
			if err := writeResultFile(fmt.Sprintf("%s-%c.json", out, 'A'+k), runs); err != nil {
				return err
			}
		}
	}
	failed := 0
	for _, def := range workloads {
		fmt.Printf("### %s\n\n", def.name)
		fmt.Println("| metric | unit | bound | A median [q1, q3] | B median [q1, q3] | spread A | spread B | B worse by | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			a, b := statsOf(sets[0], def.name, d.Name), statsOf(sets[1], def.name, d.Name)
			gap := worse(d, a.med, b.med)
			verdict := "ok"
			switch {
			case gap > d.Bound:
				verdict = "GAP"
			case d.Name != "setup_s" && math.Max(a.spread, b.spread) > d.Bound:
				verdict = "SPREAD"
			case d.Name != "setup_s" && math.Max(a.spread, b.spread) > d.Bound/3:
				verdict = "ok (wide)"
			}
			if verdict == "GAP" || verdict == "SPREAD" {
				failed++
			}
			fmt.Printf("| %s | %s | %g | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.4f | %.4f | %+.4f | %s |\n",
				d.Name, d.Unit, d.Bound, a.med, a.q1, a.q3, b.med, b.q1, b.q3, a.spread, b.spread, gap, verdict)
		}
		fmt.Println()
	}
	if failed > 0 {
		return fmt.Errorf("%d workload × metric pairs disagree beyond their bound", failed)
	}
	return nil
}

// compareFiles prints, per workload, a row per end-to-end metric: the
// parent's and the change's medians with quartiles, the ratio with its
// base, and the verdict against the metric's bound —
//
//	worse       the change's median is worse by more than the bound
//	better      the change wins at least nine tenths of the runs paired
//	            by seed and the medians differ by more than the distance
//	            between the parent's quartiles
//	unresolved  a spread is wider than the bound, and the runs of the
//	            two sides overlap
//	same        none of the above: no regression, no claimable gain
func compareFiles(w io.Writer, oldPath, newPath string) error {
	older, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	newer, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parent: %s (rev %s)  change: %s (rev %s)\n\n", oldPath, older.Host.Revision, newPath, newer.Host.Revision)
	for _, def := range workloads {
		fmt.Fprintf(w, "### %s\n\n", def.name)
		fmt.Fprintln(w, "| metric | unit | parent median [q1, q3] (n) | change median [q1, q3] (n) | change/parent | bound | verdict |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			a, b := statsOf(older.Runs, def.name, d.Name), statsOf(newer.Runs, def.name, d.Name)
			if len(a.values) == 0 || len(b.values) == 0 {
				fmt.Fprintf(w, "| %s | %s | n=%d | n=%d | - | %g | missing |\n", d.Name, d.Unit, len(a.values), len(b.values), d.Bound)
				continue
			}
			ratio := math.NaN()
			if a.med != 0 {
				ratio = b.med / a.med
			}
			fmt.Fprintf(w, "| %s | %s | %.5g [%.5g, %.5g] (%d) | %.5g [%.5g, %.5g] (%d) | %.4f of %.5g | %g | %s |\n",
				d.Name, d.Unit, a.med, a.q1, a.q3, len(a.values), b.med, b.q1, b.q3, len(b.values),
				ratio, a.med, d.Bound, verdictOf(d, a, b))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func verdictOf(d metricDef, a, b metricStats) string {
	gap := worse(d, a.med, b.med)
	// Runs paired by seed: wins and losses of the change.
	wins, losses := 0, 0
	for seed, av := range a.bySeed {
		bv, ok := b.bySeed[seed]
		if !ok {
			continue
		}
		switch g := worse(d, av, bv); {
		case g < 0:
			wins++
		case g > 0:
			losses++
		}
	}
	// Separated: every run of one side beats every run of the other.
	extremes := func(s metricStats) (lo, hi float64) { return percentile(s.values, 0), percentile(s.values, 100) }
	alo, ahi := extremes(a)
	blo, bhi := extremes(b)
	allBetter := (d.Better == "lower" && bhi < alo) || (d.Better == "higher" && blo > ahi)
	allWorse := (d.Better == "lower" && blo > ahi) || (d.Better == "higher" && bhi < alo)
	noisy := a.spread > d.Bound || b.spread > d.Bound
	switch {
	case noisy && allBetter:
		return "better"
	case noisy && allWorse && gap > d.Bound:
		return "worse"
	case noisy:
		return "unresolved"
	case gap > d.Bound:
		return "worse"
	case gap < 0 && math.Abs(b.med-a.med) > a.q3-a.q1 && wins+losses > 0 && float64(wins) >= 0.9*float64(wins+losses):
		return "better"
	default:
		return "same"
	}
}
