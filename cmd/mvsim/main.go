// Command mvsim runs one scheduling algorithm over one scenario
// end-to-end (in-process) and prints the evaluation summary — from a
// generated trace, a live TCP feed, or a run it recorded earlier.
//
// Usage:
//
//	mvsim [-scenario S1|S2|S3|S4] [-mode full|ind|cen|balb|sp]
//	      [-frames N] [-horizon T] [-seed N] [-workers N]
//	      [-metrics-addr :8080] [-metrics-jsonl run.jsonl]
//	      [-cam-faults seed=7,rate=0.1] [-health-k K] [-adapt slo=500ms]
//	      [-record rundir] [-ingest-addr :7100]
//	mvsim -replay rundir [-verify] [-recover] [-mode M]
//	      [-workers N] [-metrics-addr :8080] [-metrics-jsonl out.jsonl]
//
// Either way the run is built from its recipe, a store.Manifest
// (cliconf.Build): the flags stamp one, -replay reads one back.
//
// The flags shared with the other binaries (-workers, -metrics-*,
// -cam-faults, -health-k, -adapt) are in the README flag matrix; here
// -workers bounds the key frame's per-pair association, the coverage
// precomputation and model training, with identical results at every
// value (docs/CONCURRENCY.md).
//
// -record <dir> streams the run into a durable run store: frame log,
// per-frame snapshots, scheduling-round decisions, and the manifest.
// -store-fsync, -store-keep-segments and -store-keep-duration tune its
// durability and retention; -pace throttles the trace to one frame per
// interval so a run spans wall time (CI's crash-injection step SIGKILLs
// a paced recording and recovers it). See docs/STREAMING.md §4-§5.
//
// -replay <dir> re-drives a recorded run: the frame log replaces the
// simulator and the manifest regenerates the model, fault schedule and
// controller, so the modeled results are bit-identical. -mode re-runs
// the same incident under a different scheduler. -verify byte-compares
// the replayed snapshot stream against the recorded one and names the
// first diverging frame; it excludes -mode and refuses runs whose
// snapshots are not a pure function of the frame log (live-ingest or
// retention-windowed recordings). -recover first repairs a crashed
// recording (store.Recover) so its valid prefix replays. Only -mode,
// -workers and -metrics-* may accompany -replay; any other recipe flag
// contradicts the manifest and is a usage error.
//
// -ingest-addr replaces the generated trace with a live TCP listener
// fed by mvingest: per-camera bounded queues shed under overload per
// -shed-policy, and a watchdog (-ingest-stall) turns a stalled feed into
// a typed error instead of a hang (docs/STREAMING.md §6).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mvs/internal/cliconf"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/store"
	"mvs/internal/workload"
)

func main() {
	cliconf.Exit("mvsim", run(flag.CommandLine, os.Args[1:], os.Stdout))
}

// options are mvsim's own flags, beside the cliconf groups.
type options struct {
	scenario, mode  string
	frames, horizon int
	seed            int64
	pace, stall     time.Duration
	replay          string
	verify, recover bool
	modeSet         bool // -mode was given explicitly
}

// replayFlags are the flags that may accompany -replay: everything else
// is part of the recipe the manifest already pins.
var replayFlags = map[string]bool{
	"replay": true, "verify": true, "recover": true, "mode": true,
	"workers": true, "metrics-addr": true, "metrics-jsonl": true,
}

// run is the whole command on an explicit flag set, so a test can drive
// it in-process; diagnostics go to fs.Output(), the summary to stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var o options
	fs.StringVar(&o.scenario, "scenario", "S1", "scenario: "+workload.ScenarioNames)
	fs.StringVar(&o.mode, "mode", "balb", "scheduler: full, ind, cen, balb, sp (with -replay: override the recorded one)")
	fs.IntVar(&o.frames, "frames", 1200, "trace length in frames (10 FPS)")
	fs.IntVar(&o.horizon, "horizon", 10, "frames per scheduling horizon (T)")
	fs.Int64Var(&o.seed, "seed", 42, "simulation seed")
	fs.DurationVar(&o.pace, "pace", 0, "throttle the trace to one frame per interval (e.g. 5ms), so the run spans wall time")
	fs.DurationVar(&o.stall, "ingest-stall", 30*time.Second, "live-ingest watchdog deadline: fail the run if no frame assembles for this long (0 disables)")
	fs.StringVar(&o.replay, "replay", "", "re-drive the run recorded in this run-store directory instead of generating one")
	fs.BoolVar(&o.verify, "verify", false, "with -replay: byte-compare the replayed snapshot stream against the recorded one")
	fs.BoolVar(&o.recover, "recover", false, "with -replay: repair a crashed recording first (truncate torn tails, rebuild the frame index)")
	shared := cliconf.Register(fs, "mvsim")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Usage errors come before the slow world generation, not after it.
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		o.modeSet = o.modeSet || f.Name == "mode"
		if !replayFlags[f.Name] {
			stray = append(stray, "-"+f.Name)
		}
	})
	switch {
	case o.replay == "" && (o.verify || o.recover):
		return errors.New("-verify and -recover need -replay <dir>")
	case o.replay != "" && len(stray) > 0:
		return fmt.Errorf("-replay takes its recipe from the recorded manifest; %v cannot accompany it (only -mode, -workers, -metrics-addr, -metrics-jsonl, -verify, -recover may)", stray)
	case o.verify && o.modeSet:
		return errors.New("-verify replays the recorded configuration; it cannot be combined with -mode")
	case shared.IngestAddr != "" && shared.CamFaults != "":
		return errors.New("-cam-faults schedules are trace-indexed and cannot be combined with -ingest-addr (use mvingest -faults for live network chaos)")
	}
	return shared.WithExport(func(export *metrics.Export) error {
		return simulate(o, shared, export, stdout, fs.Output())
	})
}

// openReplay opens the -replay store (repairing it first under -recover)
// and applies the refusals: capture-only stores never replay, and
// -verify needs snapshots that are a pure function of the frame log.
func openReplay(o options, stderr io.Writer) (*store.Run, error) {
	if o.recover {
		rec, err := store.Recover(o.replay)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		fmt.Fprintf(stderr, "recovered %s: %d frames, %d snapshots, %d rounds (%d torn bytes truncated, %d unverifiable frames dropped)\n",
			o.replay, rec.Frames, rec.Snapshots, rec.Rounds, rec.TruncatedBytes, rec.DroppedFrames)
	}
	recorded, err := store.Open(o.replay)
	if err != nil {
		return nil, err
	}
	man := recorded.Manifest()
	switch {
	case !recorded.HasFrames():
		return nil, fmt.Errorf("%s recorded no frames (capture-only run, e.g. from mvexp or mvscheduler -record); only mvsim recordings replay", o.replay)
	case !o.verify:
		// The remaining refusals concern -verify only.
	case man.Ingest != "":
		return nil, fmt.Errorf("-verify refuses live-ingest recordings (%s was fed by -ingest-addr %s): snapshot ingest counters reflect arrival timing; replay without -verify instead", o.replay, man.Ingest)
	case man.KeepSegments > 0:
		return nil, fmt.Errorf("-verify refuses retention-windowed recordings (%s kept %d segments): the snapshot log spans the full run but only the window replays", o.replay, man.KeepSegments)
	case man.KeepDuration != "":
		return nil, fmt.Errorf("-verify refuses retention-windowed recordings (%s kept %s of segments): the snapshot log spans the full run but only the window replays", o.replay, man.KeepDuration)
	}
	return recorded, nil
}

// simulate builds the run from its manifest — stamped from the flags, or
// read back from the -replay store — picks the frame source, and drives
// the engine.
func simulate(o options, shared *cliconf.Shared, export *metrics.Export, stdout, stderr io.Writer) error {
	var recorded *store.Run // nil unless -replay
	var man store.Manifest
	if o.replay != "" {
		var err error
		if recorded, err = openReplay(o, stderr); err != nil {
			return err
		}
		man = recorded.Manifest()
		if o.modeSet {
			man.Mode = o.mode
		}
	} else {
		mode, err := cliconf.ParseMode(o.mode)
		if err != nil {
			return err
		}
		man, err = shared.Manifest(store.Manifest{
			Scenario: o.scenario, Seed: o.seed, TraceFrames: o.frames,
			Mode: mode.String(), Horizon: o.horizon,
		})
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(stderr, "preparing %s (seed %d, %d frames)...\n", man.Scenario, man.Seed, man.TraceFrames)
	setup, cfg, err := cliconf.Build(man, shared.Workers)
	if err != nil {
		return err
	}
	cams := setup.Test.Cameras
	if pol := cfg.Adapt.Policy; pol.Enabled() {
		fmt.Fprintf(stderr, "degradation control loop armed: %s\n", pol.Spec())
	}
	if f := cfg.Fault.CamFaults; f != nil {
		fmt.Fprintf(stderr, "injecting camera faults: %d/%d camera-frames down, health-k=%d\n",
			f.DownFrames(), f.NumCameras()*f.NumFrames(), cfg.Fault.HealthK)
	}

	// Source selection: the recorded frame log, a live TCP ingest
	// listener, or the generated trace (optionally paced across wall time).
	var src pipeline.Source = pipeline.NewTraceSource(setup.Test)
	if o.pace > 0 {
		src = &pacedSource{Source: src, interval: o.pace}
	}
	if recorded != nil {
		if len(recorded.Cameras()) != len(cams) {
			return fmt.Errorf("manifest roster has %d cameras but %s/%d regenerates %d — run and scenario disagree",
				len(recorded.Cameras()), man.Scenario, man.Seed, len(cams))
		}
		replay, err := recorded.Source()
		if err != nil {
			return err
		}
		defer replay.Close() // stops its decode-ahead if the run ends early
		src = replay
	}
	ingest, err := shared.OpenIngest(cams, o.stall)
	if err != nil {
		return err
	}
	if ingest != nil {
		defer ingest.Close()
		src = ingest
		// The store tee will wrap src, hiding the concrete type from the
		// engine's IngestMeter auto-detection — set it explicitly.
		cfg.Obs.Ingest = ingest
		fmt.Fprintf(stderr, "listening for live frame parts on %s (policy %s, stall %v)...\n",
			shared.IngestAddr, shared.ShedPolicy, o.stall)
	}

	// -record: tee the frame stream into a durable run store and persist
	// snapshots + round decisions next to it, under the manifest this run
	// was built from.
	rec, err := shared.OpenRecorder(man, cams)
	if err != nil {
		return err
	}
	if rec != nil {
		// Idempotent, so it seals whatever ends the run early and joins
		// the tee's writer goroutine; the success path closes explicitly.
		defer rec.Close()
		src = rec.Tee(src)
		cfg.Obs.Rounds = rec
	}
	cfg.Obs.Sink = shared.Sink(export, rec)
	var replayed bytes.Buffer
	if o.verify {
		cfg.Obs.Sink = metrics.Multi(cfg.Obs.Sink, metrics.NewJSONLSink(&replayed))
	}

	eng, err := pipeline.NewEngine(src, setup.Scenario.Profiles(), setup.Model, cfg)
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
	if rec != nil {
		if err := rec.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "recorded %d frames into %s (replay with: mvsim -replay %s)\n",
			rep.Frames, shared.Record, shared.Record)
	}

	fmt.Fprintf(stdout, "scenario:          %s (%s)\n", setup.Scenario.Name, setup.Scenario.Description)
	if recorded != nil {
		fmt.Fprintf(stdout, "replayed run:      %s (seed %d, recorded as %s)\n", o.replay, man.Seed, recorded.Manifest().Mode)
	}
	fmt.Fprintf(stdout, "algorithm:         %v\n", rep.Mode)
	if ingest != nil {
		c := ingest.Counters()
		fmt.Fprintf(stdout, "live ingest:       %d parts admitted, %d shed (%s policy)\n",
			c.Ingested, c.Shed, shared.ShedPolicy)
	}
	fmt.Fprintf(stdout, "frames evaluated:  %d (horizon T=%d)\n", rep.Frames, rep.Horizon)
	fmt.Fprintf(stdout, "object recall:     %.3f (tp=%d fn=%d)\n", rep.Recall, rep.TP, rep.FN)
	fmt.Fprintf(stdout, "slowest-camera latency: %v (p95 %v, max %v per frame)\n",
		rep.MeanSlowest.Round(100_000), rep.P95Slowest.Round(100_000), rep.MaxSlowest.Round(100_000))
	for i, m := range rep.PerCameraMean {
		fmt.Fprintf(stdout, "  camera %d (%s, %s): mean %v\n",
			i, cams[i].Name, setup.Scenario.Devices[i], m.Round(100_000))
	}
	fmt.Fprintf(stdout, "framework overhead/frame: central=%v tracking=%v distributed=%v batching=%v\n",
		rep.CentralPerFrame.Round(10_000), rep.TrackingPerFrame.Round(10_000),
		rep.DistributedPerFrame.Round(1_000), rep.BatchingPerFrame.Round(1_000))
	if cfg.Fault.CamFaults != nil {
		fmt.Fprintf(stdout, "camera faults:     outage=%d frames, reassigned=%d, orphaned=%d (p99 latency %v)\n",
			rep.OutageFrames, rep.Reassignments, rep.OrphanedObjects, rep.P99Slowest.Round(100_000))
	}

	switch {
	case o.verify:
		return verifySnapshots(recorded, replayed.Bytes(), stdout)
	case rep.Mode != pipeline.Full && ingest == nil && recorded == nil:
		fullCfg := pipeline.NewConfig(pipeline.Full, man.Seed)
		fullCfg.Sched.Horizon = man.Horizon
		fullCfg.Sched.Workers = shared.Workers
		fullRep, err := pipeline.Run(setup.Test, setup.Scenario.Profiles(), setup.Model, fullCfg)
		if err != nil {
			return err
		}
		speedup, err := metrics.Speedup(fullRep.MeanSlowest, rep.MeanSlowest)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "speedup vs full-frame: %.2fx\n", speedup)
	}
	return nil
}

// verifySnapshots byte-compares the replayed snapshot stream against the
// recorded one and names the first frame where they part. A verifiable
// run carries one snapshot per frame from frame 0, so the line number is
// the frame index.
func verifySnapshots(recorded *store.Run, got []byte, stdout io.Writer) error {
	want, err := recorded.SnapshotsRaw()
	if err != nil {
		return err
	}
	if len(want) == 0 {
		return errors.New("recorded run has no snapshot log to verify against")
	}
	if bytes.Equal(want, got) {
		fmt.Fprintf(stdout, "verify:            OK — %d snapshot bytes byte-identical to the recording\n", len(want))
		return nil
	}
	wantLines, gotLines := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	frame := 0
	for frame < len(wantLines) && frame < len(gotLines) && bytes.Equal(wantLines[frame], gotLines[frame]) {
		frame++
	}
	line := func(lines [][]byte) string {
		if frame >= len(lines) || len(lines[frame]) == 0 {
			return "<end of stream>"
		}
		return fmt.Sprintf("%.200s", lines[frame])
	}
	return fmt.Errorf("replay DIVERGED at frame %d: the snapshot stream is not byte-identical to the recording\n  recorded: %s\n  replayed: %s",
		frame, line(wantLines), line(gotLines))
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
