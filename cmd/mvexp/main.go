// Command mvexp regenerates every table and figure of the paper's
// evaluation section on the simulated testbed, and the extension
// studies beside them.
//
// Usage:
//
//	mvexp [-exp all|table1|fig2|fig10|fig11|fig12|fig13|table2|fig14|
//	           sweep|occlusion|chaos|shard|shed|adapt|tenants|ablation]
//	      [-scenario all|S1|S2|S3|S4|C<n>] [-frames N] [-seed N]
//	      [-workers N] [-csv dir] [-metrics-addr :8080]
//	      [-metrics-jsonl run.jsonl] [-cam-faults seed=7,rate=0.1]
//	      [-health-k K] [-adapt slo=500ms] [-record rundir]
//
// Every study is an experiments.Study: a title, the labelled arms it
// runs, its columns and its expected shape. -exp all runs the paper's
// eight (Table I, Figs. 2 and 10-14, Table II); the eight extension
// studies run only when named: the arrival-rate sweep, the
// redundancy-2 occlusion study, the camera-outage chaos sweep, the
// shard-count sweep on a 64-camera corridor (its own fleet, whatever
// -scenario says), the ingest-overload shed-policy sweep, the
// degradation-control-loop sweep (controller on vs shed-only, tunable
// with -adapt), the consolidated-vs-dedicated tenant sweep of
// docs/SERVING.md, and the ablations of Algorithm 1 (optimality gap,
// batch awareness, heterogeneity) on seeded synthetic instances, no
// world and no scenario.
//
// -scenario names one workload.ByName scenario for every study; "all"
// runs each study on its defaults: S1, S2 and S3, except Fig. 14 and the
// tenant sweep on S1 and the adapt sweep on the eight-camera S4.
//
// -workers bounds the concurrency of a study's arms, each run's
// association and coverage fan-outs, and model training (0 =
// GOMAXPROCS, 1 = fully sequential). Results are identical for every
// value (docs/CONCURRENCY.md, docs/SCALING.md).
//
// Each study prints one table, each cell formatted once, followed by
// its expected shape; -csv writes the same cells to
// <dir>/<study>_<scenario>.csv.
//
// -cam-faults applies a shared camera-outage schedule to the mode
// comparison (figs 12/13, table2), so every algorithm is scored under
// the identical incident; -health-k arms their failover. -record <dir>
// captures the runs' snapshots and the mode runs' round decisions into
// a run store for audit (capture-only: mvsim -replay needs an mvsim
// recording; see docs/STREAMING.md) and requires a single -scenario.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/cliconf"
	"mvs/internal/experiments"
	"mvs/internal/metrics"
	"mvs/internal/store"
	"mvs/internal/workload"
)

func main() {
	cliconf.Exit("mvexp", run(flag.CommandLine, os.Args[1:], os.Stdout))
}

// run is the whole command on an explicit flag set, so a test can drive
// it in-process; progress goes to fs.Output(), the tables to stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var names []string
	for _, st := range experiments.Studies() {
		names = append(names, st.Name)
	}
	exp := fs.String("exp", "all", "study: all, "+strings.Join(names, ", "))
	scenario := fs.String("scenario", "all", "scenario: "+workload.ScenarioNames+"; or all (each study's defaults)")
	frames := fs.Int("frames", 1200, "trace length in frames (10 FPS)")
	seed := fs.Int64("seed", 42, "simulation seed")
	csvDir := fs.String("csv", "", "also write machine-readable CSVs into this directory")
	shared := cliconf.Register(fs, "mvexp")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var studies []*experiments.Study
	for _, st := range experiments.Studies() {
		if *exp == st.Name || *exp == "all" && st.Paper {
			studies = append(studies, st)
		}
	}
	if len(studies) == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	adaptPol, err := adapt.ParseSpec(shared.Adapt)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	return shared.WithExport(func(export *metrics.Export) error {
		rec, err := openRecorder(shared, *exp, *scenario, *seed, *frames)
		if err != nil {
			return err
		}
		h := &experiments.Harness{Seed: *seed, Frames: *frames, Adapt: adaptPol, Opts: experiments.Options{
			Workers: shared.Workers, CamFaults: shared.CamFaults, HealthK: shared.HealthK,
			Sink: shared.Sink(export, rec),
		}}
		if rec != nil {
			h.Opts.Rounds = rec
		}
		err = runStudies(h, studies, *scenario, *csvDir, stdout, fs.Output())
		if rec != nil {
			err = errors.Join(err, rec.Close())
		}
		return err
	})
}

// openRecorder opens the -record capture store: experiment snapshots
// and round decisions under a manifest naming the incident, no frame
// log (the simulator regenerates frames from (scenario, seed)).
func openRecorder(shared *cliconf.Shared, exp, scenario string, seed int64, frames int) (*store.Writer, error) {
	if shared.Record == "" {
		return nil, nil
	}
	if scenario == "all" {
		return nil, fmt.Errorf("-record needs a single -scenario (the manifest pins one camera roster)")
	}
	s, err := workload.ByName(scenario, seed)
	if err != nil {
		return nil, err
	}
	return shared.OpenRecorder(store.Manifest{
		Label: "mvexp/" + exp, Scenario: scenario, Seed: seed,
		TraceFrames: frames, Mode: "modes", Horizon: 10,
	}, s.World.Cameras)
}

// runStudies runs each study on its scenarios, scenario-major — every
// study on one scenario before the next, so a scenario is prepared once
// and studies sharing arms share their runs — and prints each table.
func runStudies(h *experiments.Harness, studies []*experiments.Study, scenario, csvDir string, stdout, stderr io.Writer) error {
	var order []string
	on := map[string][]*experiments.Study{}
	for _, st := range studies {
		for _, name := range st.ScenariosFor(scenario) {
			if on[name] == nil {
				order = append(order, name)
			}
			on[name] = append(on[name], st)
		}
	}
	for _, name := range order {
		for _, st := range on[name] {
			fmt.Fprintf(stderr, "running %s on %s (%d frames, seed %d)...\n", st.Name, name, h.Frames, h.Seed)
			rows, err := h.Run(st, name)
			if err != nil {
				return err
			}
			if err := printTable(stdout, csvDir, st, name, rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// printTable is the one printer: it formats every cell once and renders
// the cells as a text table under the study's title, followed by its
// expected shape, and — with -csv — as <csvDir>/<study>_<scenario>.csv.
func printTable(w io.Writer, csvDir string, st *experiments.Study, scenario string, rows [][]any) error {
	cells := make([][]string, 1, 1+len(rows))
	for _, c := range st.Columns {
		cells[0] = append(cells[0], c.Name)
	}
	for _, row := range rows {
		line := make([]string, len(row))
		for i, v := range row {
			switch v := v.(type) {
			case float64:
				line[i] = strconv.FormatFloat(v, 'f', st.Columns[i].Prec, 64)
			case time.Duration:
				line[i] = strconv.FormatInt(v.Microseconds(), 10)
			default:
				line[i] = fmt.Sprint(v)
			}
		}
		cells = append(cells, line)
	}

	title := fmt.Sprintf("%s [%s]", st.Title, scenario)
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, line := range cells {
		fmt.Fprintln(tw, strings.Join(line, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "expected shape: %s\n", st.Expect)

	if csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, st.Name+"_"+scenario+".csv"))
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(cells); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
