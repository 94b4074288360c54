// Command mvbench is the repository's benchmark: four named workloads,
// eleven end-to-end metrics per workload, and — in a separate traced
// run — per-layer metrics timed from outside each layer's public
// functions. bench/README.md is the manual; BENCHMARK.json at the
// repository root declares the same workloads and metrics for the
// acceptance driver, which runs
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the root of a checkout and reads the last line of standard
// output.
//
// Other modes:
//
//	mvbench -workload all [-out results.json]   every workload, one process each
//	mvbench -agree N [-out prefix]              two interleaved sets of N runs of this tree
//	mvbench -compare old.json new.json          the table a later change pastes into CHANGES.md
//	mvbench -role sender ...                    the open-loop workload's load generator (internal)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

const (
	defaultSeed    = 1
	defaultSeconds = 25
	// worldSeed seeds scene generation on every workload. It is a
	// constant: two worlds differ by ±15 % in objects per frame, so
	// letting --seed pick the world would bury every bound under input
	// variation (bench/README.md, "Seeds"). --seed seeds what the cameras
	// sense in that world.
	worldSeed = 1
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-role" && os.Args[2] == "sender" {
		if err := senderMain(os.Args[3:]); err != nil {
			fmt.Fprintln(os.Stderr, "mvbench sender:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", defaultSeed, "workload seed: what the cameras sense (detector noise, per-tenant seeds)")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead of the end-to-end ones")
		agree   = flag.Int("agree", 0, "run two interleaved sets of N runs per workload and check they agree within the bounds")
		compare = flag.Bool("compare", false, "compare two result files: mvbench -compare old.json new.json")
		out     = flag.String("out", "", "write the runs' results to this file (-workload all) or file prefix (-agree)")
		verbose = flag.Bool("v", false, "print one line per pass (reference time, speed, uncorrected numbers) to standard error")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *agree > 0:
		err = agreeRuns(*agree, *seconds, *out)
	case *name == "all":
		err = runAll(*seed, *seconds, *traced != 0, *out)
	default:
		def := workloadByName(*name)
		if def == nil {
			err = fmt.Errorf("unknown workload %q (want %s, or all)", *name, strings.Join(workloadNames(), ", "))
			break
		}
		var rep *runReport
		rep, err = run(runOptions{def: def, seed: *seed, seconds: *seconds, traced: *traced != 0, verbose: *verbose})
		if err == nil {
			err = printReport(rep)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printReport prints the run for a reader, then the result as the last
// line for the driver. A failed output check is an error: the result
// line says correct=false and the process exits non-zero.
func printReport(rep *runReport) error {
	o, h := rep.opt, rep.host
	kind := "end-to-end"
	if o.traced {
		kind = "traced"
	}
	fmt.Printf("workload %s (%s run): %s\n", o.def.name, kind, o.def.why)
	fmt.Printf("seed %d  world %d  seconds %g  rev %s  %s  nproc %d  GOMAXPROCS %d  cpu %q\n",
		o.seed, worldSeed, o.seconds, h.Revision, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.CPUModel)
	fmt.Printf("samples: %d passes (1 warm-up discarded), %d frames, %d key frames, %d set-ups; host.speed median %.4f\n",
		rep.passes, rep.frames, rep.keys, rep.setups, rep.speedMed)
	if rep.spanFile != "" {
		fmt.Printf("spans of the last traced pass: %s\n", rep.spanFile)
	}
	fmt.Printf("%-34s %16s  %-6s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	if o.traced {
		for _, d := range perLayer {
			fmt.Printf("%-34s %16.4f  %-6s %-7s -\n", d.Name, rep.result.Metrics[d.Name].Value, d.Unit, d.Better)
		}
	} else {
		for _, d := range endToEnd {
			fmt.Printf("%-34s %16.4f  %-6s %-7s %g\n", d.Name, rep.result.Metrics[d.Name].Value, d.Unit, d.Better, d.Bound)
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.checkErr != nil {
		return fmt.Errorf("%s: output check failed: %w", o.def.name, rep.checkErr)
	}
	return nil
}
