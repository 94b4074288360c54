// Command mvexp regenerates every table and figure of the paper's
// evaluation section on the simulated testbed.
//
// Usage:
//
//	mvexp [-exp all|fig2|table1|fig10|fig11|fig12|fig13|fig14|table2]
//	      [-scenario S1|S2|S3|all] [-frames N] [-seed N] [-workers N]
//	      [-metrics-addr :8080] [-metrics-jsonl run.jsonl]
//	      [-cam-faults seed=7,rate=0.1] [-health-k K] [-record rundir]
//
// Beyond the paper's figures, -exp sweep, -exp occlusion, -exp chaos,
// -exp shard, -exp shed, -exp adapt, and -exp tenants run the
// extrapolated studies (arrival-rate sensitivity, redundancy-2 hedging,
// graceful degradation under camera outages, the 64-camera shard-count
// scaling sweep, the ingest-overload shed-policy sweep, the
// degradation-control-loop sweep — controller on vs shed-only across
// offered loads, on the eight-camera S4 by default, tunable with
// -adapt — and the multi-tenant consolidated-serving sweep of
// docs/SERVING.md, scaling 1-16 tenants over a shared executor pool
// against a dedicated-slice baseline); all seven are excluded from
// "all".
//
// -workers bounds the concurrency of independent experiment points
// (modes, sweep points), each run's association and coverage fan-outs,
// and model training (0 = GOMAXPROCS, 1 = fully sequential). Results are
// identical for every value (docs/CONCURRENCY.md, docs/SCALING.md).
//
// Output is plain text, one table per experiment, with the paper's
// qualitative expectations noted next to each.
//
// -cam-faults applies a shared camera-outage schedule to the mode
// comparison (figs 12/13, table2), so every algorithm is scored under
// the identical incident; -health-k arms their failover. -record <dir>
// captures the mode runs' snapshots and round decisions into a run
// store for audit (capture-only: mvsim -replay needs an mvsim recording;
// see docs/STREAMING.md). Both require a single -scenario.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mvs/internal/adapt"
	"mvs/internal/cliconf"
	"mvs/internal/experiments"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/store"
	"mvs/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all, fig2, table1, fig10, fig11, fig12, fig13, fig14, table2, sweep, occlusion, chaos, shard, shed, adapt, tenants")
		scenario = flag.String("scenario", "all", "scenario: S1, S2, S3, or all")
		frames   = flag.Int("frames", 1200, "trace length in frames (10 FPS)")
		seed     = flag.Int64("seed", 42, "simulation seed")
		csvDir   = flag.String("csv", "", "also write machine-readable CSVs into this directory")
	)
	shared := cliconf.Register(flag.CommandLine, "mvexp")
	flag.Parse()

	cliconf.Exit("mvexp", shared.WithExport(func(export *metrics.Export) error {
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			csvOut = *csvDir
		}
		adaptPol, err := adapt.ParseSpec(shared.Adapt)
		if err != nil {
			return err
		}
		rec, err := openRecorder(shared, *exp, *scenario, *seed, *frames)
		if err != nil {
			return err
		}
		opts := experiments.Options{
			Workers: shared.Workers, CamFaults: shared.CamFaults, HealthK: shared.HealthK,
			Sink: shared.Sink(export, rec),
		}
		if rec != nil {
			opts.Rounds = rec
		}
		err = run(*exp, *scenario, *frames, *seed, adaptPol, opts)
		if rec != nil {
			if cerr := rec.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}))
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

func scenarioNames(scenario string) ([]string, error) {
	switch scenario {
	case "all":
		return []string{"S1", "S2", "S3"}, nil
	case "S1", "S2", "S3":
		return []string{scenario}, nil
	default:
		return nil, fmt.Errorf("unknown scenario %q", scenario)
	}
}

func run(exp, scenario string, frames int, seed int64, adaptPol adapt.Policy, opts experiments.Options) error {
	// Setups are expensive (trace + model training): prepared on first
	// use, once per scenario.
	setups := make(map[string]*experiments.Setup)
	prepare := func(name string) (*experiments.Setup, error) {
		if s, ok := setups[name]; ok {
			return s, nil
		}
		fmt.Fprintf(os.Stderr, "preparing %s (%d frames, seed %d)...\n", name, frames, seed)
		s, err := experiments.Prepare(name, seed, frames, opts.Workers)
		if err != nil {
			return nil, err
		}
		setups[name] = s
		return s, nil
	}
	// each runs one study over the named scenarios, stopping at the
	// first error.
	each := func(names []string, study func(name string) error) error {
		for _, name := range names {
			if err := study(name); err != nil {
				return err
			}
		}
		return nil
	}
	prepared := func(study func(*experiments.Setup) error) func(string) error {
		return func(name string) error {
			s, err := prepare(name)
			if err != nil {
				return err
			}
			return study(s)
		}
	}

	// The adapt sweep targets the eight-camera S4 scale scenario by
	// default, and the tenant sweep replays one scenario's trace per
	// tenant (S1 by default); either takes any single -scenario, S4
	// included, so both resolve theirs before the S1-S3 name check.
	single := func(byDefault string) []string {
		if scenario != "all" {
			return []string{scenario}
		}
		return []string{byDefault}
	}
	switch exp {
	case "adapt":
		return each(single("S4"), prepared(func(s *experiments.Setup) error { return printAdaptSweep(s, adaptPol, opts) }))
	case "tenants":
		return printTenantSweep(single("S1")[0], seed, frames, opts)
	}

	names, err := scenarioNames(scenario)
	if err != nil {
		return err
	}
	// The extension studies rebuild worlds or fleets of their own (the
	// shard sweep a 64-camera corridor), so they only run when asked for
	// explicitly.
	switch exp {
	case "sweep":
		return each(names, func(name string) error { return printArrivalSweep(name, seed, frames, opts) })
	case "occlusion":
		return each(names, func(name string) error { return printOcclusion(name, seed, frames) })
	case "shard":
		return printShardSweep(seed, frames, opts)
	case "chaos":
		return each(names, prepared(func(s *experiments.Setup) error { return printChaos(s, opts) }))
	case "shed":
		return each(names, prepared(func(s *experiments.Setup) error { return printShedSweep(s, opts) }))
	}

	want := func(name string) bool { return exp == "all" || exp == name }
	if !(want("fig2") || want("table1") || want("fig10") || want("fig11") ||
		want("fig12") || want("fig13") || want("fig14") || want("table2")) {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if want("table1") {
		printTableI(seed)
	}
	return each(names, func(name string) error {
		needSetup := want("fig2") || want("fig10") || want("fig11") ||
			want("fig12") || want("fig13") || want("table2") ||
			(want("fig14") && name == "S1")
		if !needSetup {
			return nil
		}
		s, err := prepare(name)
		if err != nil {
			return err
		}
		if want("fig2") {
			printFig2(s)
		}
		if want("fig10") {
			if err := printFig10(s); err != nil {
				return err
			}
		}
		if want("fig11") {
			if err := printFig11(s); err != nil {
				return err
			}
		}
		if want("fig12") || want("fig13") || want("table2") {
			reports, err := experiments.RunModes(s, 10, opts)
			if err != nil {
				return err
			}
			if want("fig12") {
				printFig12(s, reports)
			}
			if want("fig13") {
				printFig13(s, reports)
			}
			if want("table2") {
				printTableII(s, reports[pipeline.BALB])
			}
		}
		if want("fig14") && name == "S1" {
			return printFig14(s, opts)
		}
		return nil
	})
}

func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// csvOut, when non-empty, is the directory machine-readable copies of the
// experiment tables are written into.
var csvOut string

// writeCSV emits one experiment's rows as <csvOut>/<name>.csv; it is a
// no-op unless -csv was given. Errors are reported but non-fatal: the
// textual output remains the primary artifact.
func writeCSV(name string, headerRow []string, rows [][]string) {
	if csvOut == "" {
		return
	}
	path := filepath.Join(csvOut, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvexp: csv:", err)
		return
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(headerRow); err != nil {
		fmt.Fprintln(os.Stderr, "mvexp: csv:", err)
		return
	}
	if err := w.WriteAll(rows); err != nil {
		fmt.Fprintln(os.Stderr, "mvexp: csv:", err)
	}
}

func printTableI(seed int64) {
	header("Table I: hardware configuration per scenario")
	for _, row := range experiments.TableI(seed) {
		devs := make([]string, len(row.Devices))
		for i, d := range row.Devices {
			devs[i] = d.String()
		}
		fmt.Printf("%-4s %s\n", row.Scenario, strings.Join(devs, ", "))
	}
}

func printFig2(s *experiments.Setup) {
	header(fmt.Sprintf("Fig 2 (%s): per-camera object workload, sampled every 2 s", s.Scenario.Name))
	res := experiments.Fig2(s)
	for ci, series := range res.Counts {
		min, max, sum := series[0], series[0], 0
		for _, v := range series {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		fmt.Printf("%-14s mean=%5.1f  min=%2d  max=%2d  series=%v\n",
			res.CameraNames[ci], float64(sum)/float64(len(series)), min, max, head(series, 30))
	}
	fmt.Println("expected shape: large temporal variation, phase-shifted across cameras")
}

func head(xs []int, n int) []int {
	if len(xs) <= n {
		return xs
	}
	return xs[:n]
}

func printFig10(s *experiments.Setup) error {
	header(fmt.Sprintf("Fig 10 (%s): association classifier comparison", s.Scenario.Name))
	rows, err := experiments.Fig10(s)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("%-10s precision=%.3f recall=%.3f\n", r.Model, r.Precision, r.Recall)
		csvRows = append(csvRows, []string{s.Scenario.Name, r.Model,
			strconv.FormatFloat(r.Precision, 'f', 4, 64),
			strconv.FormatFloat(r.Recall, 'f', 4, 64)})
	}
	writeCSV("fig10_"+s.Scenario.Name, []string{"scenario", "model", "precision", "recall"}, csvRows)
	fmt.Println("expected shape: KNN best or near-best precision (precision > recall in importance)")
	return nil
}

func printFig11(s *experiments.Setup) error {
	header(fmt.Sprintf("Fig 11 (%s): association regressor comparison (MAE, px)", s.Scenario.Name))
	rows, err := experiments.Fig11(s)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("%-12s mae=%.1f\n", r.Model, r.MAE)
		csvRows = append(csvRows, []string{s.Scenario.Name, r.Model,
			strconv.FormatFloat(r.MAE, 'f', 2, 64)})
	}
	writeCSV("fig11_"+s.Scenario.Name, []string{"scenario", "model", "mae_px"}, csvRows)
	fmt.Println("expected shape: KNN lowest, homography clearly worst")
	return nil
}

func printFig12(s *experiments.Setup, reports map[pipeline.Mode]*pipeline.Report) {
	header(fmt.Sprintf("Fig 12 (%s): object recall per algorithm", s.Scenario.Name))
	var csvRows [][]string
	for _, mode := range experiments.Modes() {
		r := reports[mode]
		fmt.Printf("%-9s recall=%.3f (tp=%d fn=%d)\n", r.Mode, r.Recall, r.TP, r.FN)
		csvRows = append(csvRows, []string{s.Scenario.Name, r.Mode.String(),
			strconv.FormatFloat(r.Recall, 'f', 4, 64),
			strconv.Itoa(r.TP), strconv.Itoa(r.FN)})
	}
	writeCSV("fig12_"+s.Scenario.Name, []string{"scenario", "algorithm", "recall", "tp", "fn"}, csvRows)
	fmt.Println("expected shape: Full ~= BALB-Ind >= BALB > BALB-Cen; SP hurt most by association errors")
}

func printFig13(s *experiments.Setup, reports map[pipeline.Mode]*pipeline.Report) {
	header(fmt.Sprintf("Fig 13 (%s): per-frame inference latency (slowest camera)", s.Scenario.Name))
	full := reports[pipeline.Full]
	var csvRows [][]string
	for _, mode := range experiments.Modes() {
		r := reports[mode]
		speedup, err := metrics.Speedup(full.MeanSlowest, r.MeanSlowest)
		if err != nil {
			speedup = 0
		}
		fmt.Printf("%-9s latency=%8v speedup_vs_full=%.2fx\n",
			r.Mode, r.MeanSlowest.Round(100*1000), speedup)
		csvRows = append(csvRows, []string{s.Scenario.Name, r.Mode.String(),
			strconv.FormatInt(r.MeanSlowest.Microseconds(), 10),
			strconv.FormatFloat(speedup, 'f', 3, 64)})
	}
	writeCSV("fig13_"+s.Scenario.Name, []string{"scenario", "algorithm", "latency_us", "speedup_vs_full"}, csvRows)
	fmt.Println("expected shape: BALB fastest; speedup largest in S1/S2, smallest in S3; BALB beats SP")
}

func printFig14(s *experiments.Setup, opts experiments.Options) error {
	header("Fig 14 (S1): scheduling-horizon length sweep (BALB)")
	points, err := experiments.Fig14(s, nil, opts)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for _, p := range points {
		fmt.Printf("T=%-3d recall=%.3f cen_recall=%.3f latency=%8v\n",
			p.Horizon, p.Recall, p.CenRecall, p.MeanSlowest.Round(100*1000))
		csvRows = append(csvRows, []string{strconv.Itoa(p.Horizon),
			strconv.FormatFloat(p.Recall, 'f', 4, 64),
			strconv.FormatFloat(p.CenRecall, 'f', 4, 64),
			strconv.FormatInt(p.MeanSlowest.Microseconds(), 10)})
	}
	writeCSV("fig14_S1", []string{"horizon", "balb_recall", "cen_recall", "latency_us"}, csvRows)
	fmt.Println("expected shape: longer horizons faster but lower recall (sharply so")
	fmt.Println("without the distributed stage); T=10 a good tradeoff")
	return nil
}

func printArrivalSweep(name string, seed int64, frames int, opts experiments.Options) error {
	header(fmt.Sprintf("Arrival-rate sweep (%s): distributed-stage contribution vs churn", name))
	points, err := experiments.ArrivalSweep(name, seed, frames, nil, opts)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Printf("rate x%.1f  balb_recall=%.3f cen_recall=%.3f gap=%+.3f latency=%8v\n",
			p.RateScale, p.BALBRecall, p.CenRecall, p.BALBRecall-p.CenRecall,
			p.BALBLatency.Round(100*1000))
	}
	fmt.Println("expected shape: a persistent BALB-over-Cen recall gap at every rate.")
	fmt.Println("The gap is roughly rate-invariant: the fraction of object-frames in")
	fmt.Println("the 'arrived since the last key frame' state is ~(T/2)/lifetime,")
	fmt.Println("independent of arrival rate — it grows with horizon length instead")
	fmt.Println("(see Fig 14's cen_recall column).")
	return nil
}

func printOcclusion(name string, seed int64, frames int) error {
	header(fmt.Sprintf("Occlusion study (%s): redundancy-2 vs single-tracker BALB", name))
	res, err := experiments.OcclusionStudy(name, seed, frames, 0.6)
	if err != nil {
		return err
	}
	fmt.Printf("BALB (R=1): recall=%.3f latency=%8v\n",
		res.BALBRecall, res.BALBLatency.Round(100*1000))
	fmt.Printf("BALB (R=2): recall=%.3f latency=%8v\n",
		res.RedundantRecall, res.RedundantLatency.Round(100*1000))
	fmt.Println("expected shape: redundancy recovers occlusion-lost recall at a")
	fmt.Println("bounded latency cost (the paper's §V occlusion-hedging proposal)")
	return nil
}

func printChaos(s *experiments.Setup, opts experiments.Options) error {
	header(fmt.Sprintf("Chaos sweep (%s): BALB under camera outages, failover vs off", s.Scenario.Name))
	points, err := experiments.ChaosSweep(s, nil, 0, opts)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for _, p := range points {
		fmt.Printf("rate=%.2f outage=%-5d recall fo=%.3f off=%.3f (gap %+.3f)  p99 fo=%8v off=%8v  reassigned=%d orphaned=%d\n",
			p.Rate, p.OutageFrames, p.FailoverRecall, p.NoFailoverRecall,
			p.FailoverRecall-p.NoFailoverRecall,
			p.FailoverP99.Round(100*1000), p.NoFailoverP99.Round(100*1000),
			p.Reassignments, p.Orphaned)
		csvRows = append(csvRows, []string{s.Scenario.Name,
			strconv.FormatFloat(p.Rate, 'f', 3, 64),
			strconv.Itoa(p.OutageFrames),
			strconv.FormatFloat(p.FailoverRecall, 'f', 4, 64),
			strconv.FormatFloat(p.NoFailoverRecall, 'f', 4, 64),
			strconv.FormatInt(p.FailoverP99.Microseconds(), 10),
			strconv.FormatInt(p.NoFailoverP99.Microseconds(), 10),
			strconv.Itoa(p.Reassignments), strconv.Itoa(p.Orphaned)})
	}
	writeCSV("chaos_"+s.Scenario.Name, []string{"scenario", "rate", "outage_frames",
		"failover_recall", "nofailover_recall", "failover_p99_us", "nofailover_p99_us",
		"reassignments", "orphaned"}, csvRows)
	fmt.Println("expected shape: failover recall above the off arm at every rate;")
	fmt.Println("both arms degrade gracefully (recall falls with outage rate, no cliff)")
	return nil
}

func printShardSweep(seed int64, frames int, opts experiments.Options) error {
	header("Shard sweep (C64): global vs sharded central-round cost, 64-camera corridor")
	points, err := experiments.ShardSweep(64, seed, frames, nil, opts)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for _, p := range points {
		label := "global"
		if p.MaxShard > 0 {
			label = fmt.Sprintf("max=%d", p.MaxShard)
		}
		fmt.Printf("%-8s shards=%-3d central/frame=%10v  recall=%.3f latency=%8v\n",
			label, p.Shards, p.CentralPerFrame.Round(1000), p.Recall,
			p.MeanSlowest.Round(100*1000))
		csvRows = append(csvRows, []string{strconv.Itoa(p.MaxShard), strconv.Itoa(p.Shards),
			strconv.FormatInt(p.CentralPerFrame.Microseconds(), 10),
			strconv.FormatFloat(p.Recall, 'f', 4, 64),
			strconv.FormatInt(p.MeanSlowest.Microseconds(), 10)})
	}
	writeCSV("shard_C64", []string{"max_shard", "shards", "central_us_per_frame",
		"recall", "latency_us"}, csvRows)
	fmt.Println("expected shape: central cost flat across shard counts (regressor-less pairs are")
	fmt.Println("skipped, so a sparse corridor's global round is already cheap) and recall holds;")
	fmt.Println("what shards bound is the round barrier's scope, and pair work on dense coverage graphs")
	return nil
}

func printShedSweep(s *experiments.Setup, opts experiments.Options) error {
	header(fmt.Sprintf("Shed sweep (%s): recall and P99 latency vs offered load per admission policy", s.Scenario.Name))
	points, err := experiments.ShedSweep(s, nil, opts)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for _, p := range points {
		survived := p.Offered - p.Shed
		fmt.Printf("%-12s load=%dx  offered=%-5d survived=%-5d shed=%-5d recall=%.3f p99=%8v\n",
			p.Policy, p.Load, p.Offered, survived, p.Shed, p.Recall, p.P99Slowest.Round(100*1000))
		csvRows = append(csvRows, []string{p.Policy, strconv.Itoa(p.Load),
			strconv.Itoa(p.Offered), strconv.Itoa(survived), strconv.Itoa(p.Shed),
			strconv.FormatFloat(p.Recall, 'f', 4, 64),
			strconv.FormatInt(p.P99Slowest.Microseconds(), 10)})
	}
	writeCSV("shed_"+s.Scenario.Name, []string{"policy", "load", "offered_parts",
		"survived_parts", "shed_parts", "recall", "p99_us"}, csvRows)
	fmt.Println("expected shape: at load 1x nothing sheds and every policy matches the")
	fmt.Println("offline run; past the queue bound shed grows with load while recall on")
	fmt.Println("surviving frames holds — the policies differ in which frames survive")
	return nil
}

func printTenantSweep(name string, seed int64, frames int, opts experiments.Options) error {
	header(fmt.Sprintf("Tenant sweep (%s): consolidated vs dedicated serving, shared 4-executor pool", name))
	points, err := experiments.TenantSweep(name, seed, frames, 0, 0, nil, opts)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for _, p := range points {
		con, ded := p.Consolidated, p.Dedicated
		fmt.Printf("tenants=%-3d p99 con=%8v ded=%8v  slo_viol con=%-4d ded=%-4d  shed con=%-5d ded=%-5d  shared=%-4d occ con=%.2f ded=%.2f  thr con=%7.1f ded=%7.1f img/s\n",
			p.Tenants, con.WorstP99.Round(100*1000), ded.WorstP99.Round(100*1000),
			con.SLOViolations, ded.SLOViolations, con.ShedTasks, ded.ShedTasks,
			con.SharedBatches, con.MeanOccupancy, ded.MeanOccupancy,
			con.Throughput, ded.Throughput)
		csvRows = append(csvRows, []string{name, strconv.Itoa(p.Tenants),
			strconv.FormatInt(con.WorstP99.Microseconds(), 10),
			strconv.FormatInt(ded.WorstP99.Microseconds(), 10),
			strconv.Itoa(con.SLOViolations), strconv.Itoa(ded.SLOViolations),
			strconv.Itoa(con.ShedTasks), strconv.Itoa(ded.ShedTasks),
			strconv.Itoa(con.SharedBatches),
			strconv.FormatFloat(con.MeanOccupancy, 'f', 3, 64),
			strconv.FormatFloat(ded.MeanOccupancy, 'f', 3, 64),
			strconv.FormatFloat(con.Throughput, 'f', 1, 64),
			strconv.FormatFloat(ded.Throughput, 'f', 1, 64)})
	}
	writeCSV("tenants_"+name, []string{"scenario", "tenants",
		"con_p99_us", "ded_p99_us", "con_slo_viol", "ded_slo_viol",
		"con_shed", "ded_shed", "shared_batches", "con_occupancy",
		"ded_occupancy", "con_img_per_s", "ded_img_per_s"}, csvRows)
	fmt.Println("expected shape: consolidation packs cross-tenant work into fuller")
	fmt.Println("batches, so at every tenant count its worst per-tenant P99 and SLO")
	fmt.Println("violations sit at or below the dedicated baseline's, decisively so")
	fmt.Println("once the dedicated slices saturate (see docs/SERVING.md)")
	return nil
}

func printAdaptSweep(s *experiments.Setup, pol adapt.Policy, opts experiments.Options) error {
	header(fmt.Sprintf("Adapt sweep (%s): degradation control loop vs shed-only under offered load", s.Scenario.Name))
	points, err := experiments.AdaptSweep(s, pol, nil, opts)
	if err != nil {
		return err
	}
	total := len(s.Test.Frames)
	var csvRows [][]string
	for _, p := range points {
		// Effective recall scores the whole offered trace: a shed frame
		// is a total miss, so recall is scaled by assembly coverage.
		onEff := p.OnRecall * float64(p.OnFrames) / float64(total)
		offEff := p.OffRecall * float64(p.OffFrames) / float64(total)
		fmt.Printf("load=%dx  eff_recall on=%.3f off=%.3f (gap %+.3f)  frames on=%-4d off=%-4d  p99 on=%8v off=%8v  shed on=%-5d off=%-5d  level=%d transitions=%d slo_viol=%d\n",
			p.Load, onEff, offEff, onEff-offEff,
			p.OnFrames, p.OffFrames,
			p.OnP99.Round(100*1000), p.OffP99.Round(100*1000),
			p.OnShed, p.OffShed, p.FinalLevel, p.Transitions, p.SLOViolations)
		csvRows = append(csvRows, []string{s.Scenario.Name, strconv.Itoa(p.Load),
			strconv.FormatFloat(onEff, 'f', 4, 64),
			strconv.FormatFloat(offEff, 'f', 4, 64),
			strconv.FormatFloat(p.OnRecall, 'f', 4, 64),
			strconv.FormatFloat(p.OffRecall, 'f', 4, 64),
			strconv.Itoa(p.OnFrames), strconv.Itoa(p.OffFrames),
			strconv.FormatInt(p.OnP99.Microseconds(), 10),
			strconv.FormatInt(p.OffP99.Microseconds(), 10),
			strconv.Itoa(p.OnShed), strconv.Itoa(p.OffShed),
			strconv.Itoa(p.FinalLevel), strconv.Itoa(p.Transitions),
			strconv.Itoa(p.SLOViolations)})
	}
	writeCSV("adapt_"+s.Scenario.Name, []string{"scenario", "load",
		"on_eff_recall", "off_eff_recall", "on_recall", "off_recall",
		"on_frames", "off_frames", "on_p99_us", "off_p99_us",
		"on_shed", "off_shed", "final_level", "transitions", "slo_violations"}, csvRows)
	fmt.Println("expected shape: at load 1x the arms are identical (the controller never")
	fmt.Println("engages); under overload the ladder outruns the offered load — fewer")
	fmt.Println("shed frames, higher effective recall than shed-only — with P99 inside")
	fmt.Println("the SLO")
	return nil
}

func printTableII(s *experiments.Setup, balb *pipeline.Report) {
	header(fmt.Sprintf("Table II (%s): per-frame framework overhead (BALB)", s.Scenario.Name))
	fmt.Printf("central=%v tracking=%v distributed=%v batching=%v total=%v\n",
		balb.CentralPerFrame.Round(10_000),
		balb.TrackingPerFrame.Round(10_000),
		balb.DistributedPerFrame.Round(1_000),
		balb.BatchingPerFrame.Round(1_000),
		balb.OverheadTotal().Round(10_000))
	fmt.Println("expected shape: total overhead well below the GPU time the scheduler saves")
}
