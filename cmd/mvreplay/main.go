// Command mvreplay re-drives the streaming engine from a run recorded
// with mvsim -record: the frame log replaces the simulator, the
// manifest regenerates the association model and fault schedule from
// (scenario, seed), and the engine reproduces the recorded run's
// modeled results bit-identically (docs/STREAMING.md).
//
// Usage:
//
//	mvreplay -run rundir [-mode full|ind|cen|balb|sp] [-verify] [-recover]
//	         [-workers N] [-metrics-addr :8080] [-metrics-jsonl out.jsonl]
//
// With no -mode the run replays under its recorded scheduler. -mode
// re-runs the recorded incident — same frames, same faults — under a
// different scheduler, which is how a production anomaly becomes an
// offline A/B experiment. -verify replays under the recorded
// configuration and byte-compares the replayed snapshot stream against
// the recorded one, exiting non-zero on any divergence (the
// determinism check CI runs); it cannot be combined with -mode, and it
// refuses runs whose snapshots are not a pure function of the frame
// log (live-ingest recordings, retention-windowed frame logs).
// -recover first repairs a crashed recording via store.Recover —
// truncating torn tails to the last CRC-valid record and rebuilding
// the frame index — so a SIGKILLed run replays (and -verify passes) on
// its recovered prefix (docs/STREAMING.md §5).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/camfault"
	"mvs/internal/cliconf"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/store"
	"mvs/internal/workload"
)

func main() {
	var (
		runDir      = flag.String("run", "", "run-store directory recorded with mvsim -record (required)")
		modeName    = flag.String("mode", "", "re-run under this scheduler instead of the recorded one: full, ind, cen, balb, sp")
		verify      = flag.Bool("verify", false, "replay under the recorded configuration and byte-compare the snapshot stream")
		recoverRun  = flag.Bool("recover", false, "repair a crashed recording first (store.Recover): truncate torn tails, rebuild the frame index")
		workers     = flag.Int("workers", 0, "association/training worker bound (0 = GOMAXPROCS, 1 = sequential)")
		metricsAddr = flag.String("metrics-addr", "", "serve live /metricsz snapshots on this address (e.g. :8080)")
		metricsLog  = flag.String("metrics-jsonl", "", "append the replay's metrics snapshots to this JSONL file")
	)
	flag.Parse()

	if *runDir == "" {
		fmt.Fprintln(os.Stderr, "mvreplay: -run is required")
		flag.Usage()
		os.Exit(2)
	}
	if *verify && *modeName != "" {
		fmt.Fprintln(os.Stderr, "mvreplay: -verify replays the recorded configuration; it cannot be combined with -mode")
		os.Exit(2)
	}
	export, err := metrics.OpenExport(*metricsAddr, *metricsLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvreplay:", err)
		os.Exit(1)
	}
	var sink metrics.Sink
	if *metricsAddr != "" || *metricsLog != "" {
		sink = export.Sink
	}
	runErr := replay(*runDir, *modeName, *verify, *recoverRun, *workers, sink)
	if err := export.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mvreplay:", runErr)
		os.Exit(1)
	}
}

func replay(dir, modeName string, verify, recoverRun bool, workers int, sink metrics.Sink) error {
	if recoverRun {
		rec, err := store.Recover(dir)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		fmt.Fprintf(os.Stderr, "recovered %s: %d frames, %d snapshots, %d rounds (%d torn bytes truncated, %d unverifiable frames dropped)\n",
			dir, rec.Frames, rec.Snapshots, rec.Rounds, rec.TruncatedBytes, rec.DroppedFrames)
	}
	run, err := store.Open(dir)
	if err != nil {
		return err
	}
	man := run.Manifest()
	if !run.HasFrames() {
		return fmt.Errorf("%s recorded no frames (capture-only run, e.g. from mvexp or mvscheduler -record); only mvsim recordings replay", dir)
	}
	if verify {
		// Byte-identity only holds when the recorded snapshots are a pure
		// function of the frame log: live-ingest counters and retention
		// windows break that (docs/STREAMING.md §5).
		if man.Ingest != "" {
			return fmt.Errorf("-verify refuses live-ingest recordings (%s was fed by -ingest-addr %s): snapshot ingest counters reflect arrival timing; replay without -verify instead", dir, man.Ingest)
		}
		if man.KeepSegments > 0 {
			return fmt.Errorf("-verify refuses retention-windowed recordings (%s kept %d segments): the snapshot log spans the full run but only the window replays", dir, man.KeepSegments)
		}
		if man.KeepDuration != "" {
			return fmt.Errorf("-verify refuses retention-windowed recordings (%s kept %s of segments): the snapshot log spans the full run but only the window replays", dir, man.KeepDuration)
		}
	}

	// The manifest regenerates everything the frame log does not carry:
	// the association model trains on the same (scenario, seed) world the
	// recording ran against, and the fault schedule re-derives from its
	// spec — both deterministic.
	fmt.Fprintf(os.Stderr, "regenerating %s (seed %d) and training the association model...\n",
		man.Scenario, man.Seed)
	s, err := workload.ByName(man.Scenario, man.Seed)
	if err != nil {
		return fmt.Errorf("manifest scenario: %w", err)
	}
	if len(s.World.Cameras) != len(run.Cameras()) {
		return fmt.Errorf("manifest roster has %d cameras but %s/%d regenerates %d — run and scenario disagree",
			len(run.Cameras()), man.Scenario, man.Seed, len(s.World.Cameras))
	}
	trace, err := s.World.Run(man.TraceFrames)
	if err != nil {
		return err
	}
	train, _ := trace.SplitTrain()
	model, err := assoc.Train(train, assoc.Factories{Workers: workers})
	if err != nil {
		return err
	}

	mode, err := cliconf.ParseMode(man.Mode)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if modeName != "" {
		if mode, err = cliconf.ParseMode(modeName); err != nil {
			return err
		}
	}
	cfg := pipeline.NewConfig(mode, man.Seed)
	cfg.Sched.Horizon = man.Horizon
	cfg.Sched.Workers = workers
	if man.CamFaults != "" {
		fcfg, err := camfault.ParseSpec(man.CamFaults)
		if err != nil {
			return fmt.Errorf("manifest fault spec: %w", err)
		}
		faults, err := camfault.Generate(fcfg, len(run.Cameras()), run.NumFrames())
		if err != nil {
			return err
		}
		cfg.Fault.CamFaults = faults
		cfg.Fault.HealthK = man.HealthK
	}
	if man.Adapt != "" {
		// Regenerate the adapt controller from its recorded spec: the
		// controller is a pure function of the modeled window state, so
		// the replay walks the identical degradation ladder.
		pol, err := adapt.ParseSpec(man.Adapt)
		if err != nil {
			return fmt.Errorf("manifest adapt spec: %w", err)
		}
		cfg.Adapt.Policy = pol
	}

	var verifyLog bytes.Buffer
	if verify {
		vs := metrics.NewJSONLSink(&verifyLog)
		if sink != nil {
			sink = metrics.Multi(sink, vs)
		} else {
			sink = metrics.Sink(vs)
		}
	}
	cfg.Obs.Sink = sink

	src, err := run.Source()
	if err != nil {
		return err
	}
	eng, err := pipeline.NewEngine(src, s.Profiles(), model, cfg)
	if err != nil {
		return err
	}
	if err := eng.Run(); err != nil {
		return err
	}
	rep, err := eng.Report()
	if err != nil {
		return err
	}

	fmt.Printf("run:               %s (%s, seed %d)\n", dir, man.Scenario, man.Seed)
	fmt.Printf("recorded mode:     %s", man.Mode)
	if modeName != "" {
		fmt.Printf("   replayed as: %v", rep.Mode)
	}
	fmt.Println()
	fmt.Printf("frames replayed:   %d (horizon T=%d)\n", rep.Frames, rep.Horizon)
	fmt.Printf("object recall:     %.3f (tp=%d fn=%d)\n", rep.Recall, rep.TP, rep.FN)
	fmt.Printf("slowest-camera latency: %v (p95 %v, p99 %v per frame)\n",
		rep.MeanSlowest.Round(100_000), rep.P95Slowest.Round(100_000), rep.P99Slowest.Round(100_000))
	if man.CamFaults != "" {
		fmt.Printf("camera faults:     outage=%d frames, reassigned=%d, orphaned=%d\n",
			rep.OutageFrames, rep.Reassignments, rep.OrphanedObjects)
	}

	if verify {
		want, err := run.SnapshotsRaw()
		if err != nil {
			return err
		}
		if len(want) == 0 {
			return fmt.Errorf("recorded run has no snapshot log to verify against")
		}
		if !bytes.Equal(want, verifyLog.Bytes()) {
			return fmt.Errorf("replay DIVERGED: snapshot stream is not byte-identical to the recording (%d vs %d bytes)",
				verifyLog.Len(), len(want))
		}
		fmt.Printf("verify:            OK — %d snapshot bytes byte-identical to the recording\n", len(want))
	}
	return nil
}
