// Command mvviz renders a scenario and its headline results as SVG
// files: the deployment map, the Fig. 2 workload chart, and the Fig. 13
// latency bars.
//
// Usage:
//
//	mvviz [-scenario S1] [-frames N] [-seed N] [-out dir] [-latency]
//
// The latency chart requires running the pipeline under every algorithm,
// so it is opt-in.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mvs/internal/cliconf"
	"mvs/internal/experiments"
	"mvs/internal/workload"
)

func main() {
	var (
		scenario = flag.String("scenario", "S1", "scenario: "+workload.ScenarioNames)
		frames   = flag.Int("frames", 1200, "trace length in frames")
		seed     = flag.Int64("seed", 42, "simulation seed")
		outDir   = flag.String("out", ".", "output directory for SVG files")
		latency  = flag.Bool("latency", false, "also render the Fig. 13 latency bars (runs the pipeline)")
	)
	flag.Parse()

	cliconf.Exit("mvviz", run(*scenario, *frames, *seed, *outDir, *latency))
}

func run(scenario string, frames int, seed int64, outDir string, latency bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simulating %s (%d frames)...\n", scenario, frames)
	setup, err := experiments.Prepare(scenario, seed, frames, 0)
	if err != nil {
		return err
	}

	// 1. Deployment map.
	if err := writeSVG(filepath.Join(outDir, scenario+"_map.svg"), func(f *os.File) error {
		return worldMap(f, setup.Scenario.World)
	}); err != nil {
		return err
	}

	// 2. Workload chart.
	fig2 := experiments.Fig2(setup)
	if err := writeSVG(filepath.Join(outDir, scenario+"_workload.svg"), func(f *os.File) error {
		return workloadChart(f, fig2.CameraNames, fig2.Counts, fig2.SampleEverySec)
	}); err != nil {
		return err
	}

	// 3. Latency bars (optional: needs five pipeline runs).
	if latency {
		fmt.Fprintln(os.Stderr, "running all scheduling algorithms...")
		reports, err := experiments.RunModes(setup, experiments.Options{})
		if err != nil {
			return err
		}
		var labels []string
		var lats []time.Duration
		for _, r := range reports {
			labels = append(labels, r.Mode.String())
			lats = append(lats, r.MeanSlowest)
		}
		if err := writeSVG(filepath.Join(outDir, scenario+"_latency.svg"), func(f *os.File) error {
			return latencyBars(f, labels, lats)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeSVG(path string, render func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}
