// Command mvsim runs one scheduling algorithm over one scenario
// end-to-end (in-process) and prints the evaluation summary.
//
// Usage:
//
//	mvsim [-scenario S1|S2|S3] [-mode full|ind|cen|balb|sp]
//	      [-frames N] [-horizon T] [-seed N] [-workers N]
//	      [-metrics-addr :8080] [-metrics-jsonl run.jsonl]
//	      [-cam-faults seed=7,rate=0.1] [-health-k K]
//	      [-record rundir]
//
// -workers bounds the central stage's per-pair association fan-out at
// key frames, the per-cell coverage precomputation at start-up and
// association-model training (0 = GOMAXPROCS, 1 = sequential); a
// frame's cameras are stepped one after another regardless. Results are
// identical for every value (see docs/CONCURRENCY.md and docs/SCALING.md). -metrics-addr serves the latest
// per-frame snapshot at /metricsz while the run is in flight;
// -metrics-jsonl appends every snapshot to a file
// (see docs/OBSERVABILITY.md). -cam-faults injects a deterministic
// camera-outage schedule (syntax in docs/FAULTS.md) and -health-k
// tunes the silence threshold for declaring a camera dead (0 disables
// failover — the ablation).
//
// -record <dir> streams the run into a durable run store: the frame
// log, the per-frame snapshots, the scheduling-round decisions, and a
// manifest that pins scenario, seed, mode, and fault schedule. A
// recorded run replays bit-identically with mvreplay — including under
// a different scheduler (docs/STREAMING.md). -store-fsync,
// -store-keep-segments, and -store-keep-duration tune the store's
// durability and retention
// (docs/STREAMING.md §5); -pace throttles the trace to one frame per
// interval so a run spans wall time (CI's crash-injection step SIGKILLs
// a paced recording mid-run and recovers it with mvreplay -recover).
//
// -adapt arms the degradation control loop (docs/FAULTS.md §10): under
// modeled-latency overload, queue pressure, or camera outages the
// engine climbs a degradation ladder — stretching the key-frame
// cadence and capping inspection input sizes — and recovers with
// hysteresis when the pressure clears. The controller is deterministic
// in the modeled state, so a recorded adapt run still verifies
// byte-identically under mvreplay -verify.
//
// -ingest-addr replaces the generated trace with a live TCP listener:
// frame parts pushed by mvingest are assembled into engine frames, with
// per-camera bounded queues shedding under overload per -shed-policy
// and a watchdog that turns a stalled feed into a typed error instead
// of a hang (docs/STREAMING.md §6).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mvs/internal/cliconf"
	"mvs/internal/experiments"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/store"
	"mvs/internal/workload"
)

func main() {
	var (
		scenario  = flag.String("scenario", "S1", "scenario: S1, S2, or S3")
		modeName  = flag.String("mode", "balb", "scheduler: full, ind, cen, balb, sp")
		frames    = flag.Int("frames", 1200, "trace length in frames (10 FPS)")
		horizon   = flag.Int("horizon", 10, "frames per scheduling horizon (T)")
		seed      = flag.Int64("seed", 42, "simulation seed")
		saveTrace = flag.String("save-trace", "", "write the generated trace as JSON and exit")
		pace      = flag.Duration("pace", 0, "throttle the trace to one frame per interval (e.g. 5ms), so the run spans wall time")
		stall     = flag.Duration("ingest-stall", 30*time.Second, "live-ingest watchdog deadline: fail the run if no frame assembles for this long (0 disables)")
	)
	shared := cliconf.Register(flag.CommandLine, "association/coverage")
	flag.Parse()

	if *saveTrace != "" {
		if err := dumpTrace(*scenario, *frames, *seed, *saveTrace); err != nil {
			fmt.Fprintln(os.Stderr, "mvsim:", err)
			os.Exit(1)
		}
		return
	}
	export, err := shared.OpenExport()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvsim:", err)
		os.Exit(1)
	}
	runErr := run(*scenario, *modeName, *frames, *horizon, *seed, *pace, *stall, shared, export)
	if err := export.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mvsim:", runErr)
		os.Exit(1)
	}
}

// dumpTrace archives a generated workload for external analysis or
// replay.
func dumpTrace(scenario string, frames int, seed int64, path string) error {
	s, err := workload.ByName(scenario, seed)
	if err != nil {
		return err
	}
	trace, err := s.World.Run(frames)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Save(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d frames (%d cameras) to %s\n",
		len(trace.Frames), len(trace.Cameras), path)
	return f.Close()
}

func run(scenario, modeName string, frames, horizon int, seed int64, pace, stall time.Duration, shared *cliconf.Shared, export *metrics.Export) error {
	mode, err := cliconf.ParseMode(modeName)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "preparing %s (%d frames)...\n", scenario, frames)
	setup, err := experiments.Prepare(scenario, seed, frames)
	if err != nil {
		return err
	}
	cfg := pipeline.NewConfig(mode, seed)
	cfg.Sched.Horizon = horizon
	cfg.Sched.Workers = shared.Workers
	if shared.ExportEnabled() {
		cfg.Obs.Sink = export.Sink
	}
	adaptPol, err := shared.AdaptPolicy()
	if err != nil {
		return err
	}
	if adaptPol.Enabled() {
		cfg.Adapt.Policy = adaptPol
		fmt.Fprintf(os.Stderr, "degradation control loop armed: %s\n", adaptPol.Spec())
	}

	if shared.IngestAddr != "" && shared.CamFaults != "" {
		return fmt.Errorf("-cam-faults schedules are trace-indexed and cannot be combined with -ingest-addr (use mvingest -faults for live network chaos)")
	}
	faults, err := shared.FaultModel(len(setup.Test.Cameras), len(setup.Test.Frames))
	if err != nil {
		return err
	}
	if faults != nil {
		cfg.Fault.CamFaults = faults
		cfg.Fault.HealthK = shared.HealthK
		fmt.Fprintf(os.Stderr, "injecting camera faults: %d/%d camera-frames down, health-k=%d\n",
			faults.DownFrames(), len(setup.Test.Cameras)*len(setup.Test.Frames), shared.HealthK)
	}

	// Source selection: the generated trace by default (optionally paced
	// across wall time), or a live TCP ingest listener.
	var src pipeline.Source = pipeline.NewTraceSource(setup.Test)
	if pace > 0 {
		src = &pacedSource{Source: src, interval: pace}
	}
	ingest, err := shared.OpenIngest(setup.Test.Cameras, stall)
	if err != nil {
		return err
	}
	if ingest != nil {
		defer ingest.Close()
		src = ingest
		// The store tee will wrap src, hiding the concrete type from the
		// engine's IngestMeter auto-detection — set it explicitly.
		cfg.Obs.Ingest = ingest
		fmt.Fprintf(os.Stderr, "listening for live frame parts on %s (policy %s, stall %v)...\n",
			shared.IngestAddr, shared.ShedPolicy, stall)
	}

	// -record: tee the frame stream into a durable run store and persist
	// snapshots + round decisions next to it, under a manifest that lets
	// mvreplay regenerate the model and fault schedule.
	var rec *store.Writer
	if shared.Record != "" {
		roster, err := scene.MarshalCameras(setup.Test.Cameras)
		if err != nil {
			return err
		}
		rec, err = shared.OpenRecorder(store.Manifest{
			Scenario: scenario, Seed: seed, TraceFrames: frames,
			Mode: mode.String(), Horizon: horizon, Cameras: roster,
		})
		if err != nil {
			return err
		}
		src = rec.Tee(src)
		cfg.Obs.Rounds = rec
		if cfg.Obs.Sink != nil {
			cfg.Obs.Sink = metrics.Multi(cfg.Obs.Sink, rec)
		} else {
			cfg.Obs.Sink = rec
		}
	}

	eng, err := pipeline.NewEngine(src, setup.Scenario.Profiles(), setup.Model, cfg)
	if err != nil {
		return err
	}
	if err := eng.Run(); err != nil {
		var stalled *pipeline.StallError
		if errors.As(err, &stalled) && rec != nil {
			rec.Close() // seal what was captured before the stall
		}
		return err
	}
	rep, err := eng.Report()
	if err != nil {
		return err
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d frames into %s (replay with: mvreplay -run %s)\n",
			rep.Frames, shared.Record, shared.Record)
	}

	fmt.Printf("scenario:          %s (%s)\n", setup.Scenario.Name, setup.Scenario.Description)
	fmt.Printf("algorithm:         %v\n", rep.Mode)
	if ingest != nil {
		c := ingest.Counters()
		fmt.Printf("live ingest:       %d parts admitted, %d shed (%s policy)\n",
			c.Ingested, c.Shed, shared.ShedPolicy)
	}
	fmt.Printf("frames evaluated:  %d (horizon T=%d)\n", rep.Frames, rep.Horizon)
	fmt.Printf("object recall:     %.3f (tp=%d fn=%d)\n", rep.Recall, rep.TP, rep.FN)
	fmt.Printf("slowest-camera latency: %v (p95 %v, max %v per frame)\n",
		rep.MeanSlowest.Round(100_000), rep.P95Slowest.Round(100_000), rep.MaxSlowest.Round(100_000))
	for i, m := range rep.PerCameraMean {
		fmt.Printf("  camera %d (%s, %s): mean %v\n",
			i, setup.Test.Cameras[i].Name, setup.Scenario.Devices[i], m.Round(100_000))
	}
	fmt.Printf("framework overhead/frame: central=%v tracking=%v distributed=%v batching=%v\n",
		rep.CentralPerFrame.Round(10_000), rep.TrackingPerFrame.Round(10_000),
		rep.DistributedPerFrame.Round(1_000), rep.BatchingPerFrame.Round(1_000))
	if faults != nil {
		fmt.Printf("camera faults:     outage=%d frames, reassigned=%d, orphaned=%d (p99 latency %v)\n",
			rep.OutageFrames, rep.Reassignments, rep.OrphanedObjects, rep.P99Slowest.Round(100_000))
	}

	if mode != pipeline.Full && ingest == nil {
		fullCfg := pipeline.NewConfig(pipeline.Full, seed)
		fullCfg.Sched.Horizon = horizon
		fullCfg.Sched.Workers = shared.Workers
		fullRep, err := pipeline.Run(setup.Test, setup.Scenario.Profiles(), setup.Model, fullCfg)
		if err != nil {
			return err
		}
		speedup, err := metrics.Speedup(fullRep.MeanSlowest, rep.MeanSlowest)
		if err != nil {
			return err
		}
		fmt.Printf("speedup vs full-frame: %.2fx\n", speedup)
	}
	return nil
}

// pacedSource throttles a frame source to one frame per interval of
// wall time, so an otherwise-instant simulated run spans long enough to
// be interrupted (CI's crash-injection step kills a paced recording
// mid-run).
type pacedSource struct {
	pipeline.Source
	interval time.Duration
}

func (p *pacedSource) Next() (*scene.FrameTruth, error) {
	time.Sleep(p.interval)
	return p.Source.Next()
}
