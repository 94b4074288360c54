// Command mvnode runs one camera node of a distributed deployment: it
// regenerates its camera's observations from the shared (scenario, seed)
// pair, connects to the central scheduler, and runs the BALB camera loop.
//
//	mvscheduler -scenario S2 -seed 42 &
//	mvnode -addr localhost:7001 -camera 0 -scenario S2 -seed 42
//	mvnode -addr localhost:7001 -camera 1 -scenario S2 -seed 42
//
// The node is a clock-free machine under a TCP shell. node.Runtime.Step
// decides each frame — a key frame's full inspection and the reports to
// upload, or a regular frame — and takes the round's assignment, or the
// miss that puts it in degraded mode until a later assignment rejoins it
// (following the -adapt level it carries, docs/FAULTS.md §10). The
// cluster.ReconnectClient's node machine owns the connection: retries
// with capped exponential backoff, the reply rules, heartbeats. This
// binary is their shell, and the only node-side code that reads a clock
// or sleeps: it owns where observations come from, the exchanges, the
// camera-fault schedule, pacing, and the summary. -faults injects
// connection faults and -cam-faults camera outages (docs/FAULTS.md);
// sharded schedulers need no node flag (docs/SCALING.md §3). -record
// captures the node's snapshots into a run store; -ingest-addr replaces
// the regenerated observations with a live feed (docs/STREAMING.md §6).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"mvs/internal/cliconf"
	"mvs/internal/cluster"
	"mvs/internal/experiments"
	"mvs/internal/faults"
	"mvs/internal/metrics"
	"mvs/internal/node"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/store"
	"mvs/internal/workload"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.addr, "addr", "localhost:7001", "scheduler address")
	flag.IntVar(&cfg.camera, "camera", 0, "this node's camera index")
	flag.StringVar(&cfg.scenario, "scenario", "S2", "scenario: "+workload.ScenarioNames)
	flag.Int64Var(&cfg.seed, "seed", 42, "shared simulation seed")
	flag.IntVar(&cfg.frames, "frames", 1200, "trace length (first half is the model's training split)")
	flag.IntVar(&cfg.horizon, "horizon", 10, "frames per scheduling horizon (T)")
	flag.DurationVar(&cfg.rate, "rate", 0, "real-time pacing per frame (0 = as fast as possible)")
	flag.DurationVar(&cfg.deadline, "deadline", 30*time.Second, "how long a key frame waits for its assignment before degrading")
	flag.IntVar(&cfg.retries, "retries", 4, "connection attempts per operation before degrading")
	flag.IntVar(&cfg.hbEvery, "heartbeat-every", 0, "send a liveness ping every N regular frames (0 = off; pair with mvscheduler -lease)")
	flag.StringVar(&cfg.faultsSpec, "faults", "", "inject connection faults, e.g. seed=7,drop=0.05,cut=40 (see docs/FAULTS.md)")
	cfg.shared = cliconf.Register(flag.CommandLine, "mvnode")
	flag.Parse()

	cliconf.Exit("mvnode", cfg.shared.WithExport(func(export *metrics.Export) error {
		cfg.export = export
		return run(cfg)
	}))
}

// runConfig is mvnode's flags plus the opened metrics export.
type runConfig struct {
	addr            string
	camera          int
	scenario        string
	seed            int64
	frames, horizon int
	rate, deadline  time.Duration
	retries         int
	hbEvery         int
	faultsSpec      string
	shared          *cliconf.Shared
	export          *metrics.Export
}

func run(cfg runConfig) error {
	// -ingest-addr: this camera's observations arrive live over TCP
	// instead of regenerating from the trace.
	if cfg.shared.IngestAddr != "" && cfg.shared.CamFaults != "" {
		return fmt.Errorf("-cam-faults schedules are trace-indexed and cannot be combined with -ingest-addr")
	}
	log.Printf("camera %d: regenerating %s world...", cfg.camera, cfg.scenario)
	// Evaluate on the second half; the first half trained the
	// scheduler's association model.
	setup, err := experiments.Generate(cfg.scenario, cfg.seed, cfg.frames)
	if err != nil {
		return err
	}
	s, test := setup.Scenario, setup.Test
	if cfg.camera < 0 || cfg.camera >= len(s.World.Cameras) {
		return fmt.Errorf("camera %d out of range: %s has %d cameras", cfg.camera, cfg.scenario, len(s.World.Cameras))
	}

	camModel, err := cfg.shared.FaultModel(len(s.World.Cameras), len(test.Frames))
	if err != nil {
		return err
	}
	if camModel != nil {
		down := 0
		for fi := range test.Frames {
			if camModel.Down(cfg.camera, fi) {
				down++
			}
		}
		log.Printf("camera-fault injection armed: %d/%d frames down for camera %d",
			down, len(test.Frames), cfg.camera)
	}

	// -record: capture this node's per-frame snapshots durably. The node
	// never records frames — the world regenerates from (scenario, seed).
	rec, err := cfg.shared.OpenRecorder(store.Manifest{
		Label: fmt.Sprintf("mvnode/cam%d", cfg.camera), Scenario: cfg.scenario,
		Seed: cfg.seed, TraceFrames: cfg.frames, Mode: "node", Horizon: cfg.horizon,
	}, s.World.Cameras)
	if err != nil {
		return err
	}
	if rec != nil {
		defer rec.Close() // idempotent; the success path closes explicitly
		log.Printf("recording node snapshots into %s", cfg.shared.Record)
	}

	var dial cluster.DialFunc
	if cfg.faultsSpec != "" {
		fcfg, err := faults.ParseSpec(cfg.faultsSpec)
		if err != nil {
			return err
		}
		inj := faults.New(fcfg)
		dial = cluster.DialFunc(inj.Dialer(nil))
		log.Printf("fault injection armed: %s", cfg.faultsSpec)
	}

	cam := s.World.Cameras[cfg.camera]
	client := cluster.NewReconnectClient(cluster.ReconnectConfig{
		Addr: cfg.addr, Camera: cfg.camera,
		FrameW: cam.ImageW, FrameH: cam.ImageH,
		DialTimeout: 10 * time.Second,
		Backoff:     cluster.Backoff{Seed: cfg.seed + int64(cfg.camera)},
		MaxAttempts: cfg.retries,
		Dial:        dial,
		Logger:      log.Default(),
	})
	defer client.Close()

	rcfg := node.Config{
		Camera:     cfg.camera,
		Frame:      cam.Frame(),
		Profile:    s.Profiles()[cfg.camera],
		NumCameras: len(s.World.Cameras),
		Seed:       cfg.seed,
		Sink:       cfg.shared.Sink(cfg.export, rec),
		Horizon:    cfg.horizon,
	}
	if err := client.Connect(); err != nil {
		// The scheduler is unreachable right now: run maskless (masks
		// only arrive with registration), degrade at the first key frame
		// and let later ones rejoin if it comes back.
		log.Printf("scheduler unreachable (%v); starting without masks", err)
	} else if ack := client.Ack(); ack != nil {
		rcfg.GridCols = ack.GridCols
		rcfg.GridRows = ack.GridRows
		rcfg.Coverage = ack.Coverage
		log.Printf("registered: %dx%d mask grid, %d cells",
			ack.GridCols, ack.GridRows, len(ack.Coverage))
	} else {
		return fmt.Errorf("scheduler sent no registration ack payload")
	}

	if cfg.export.Addr != "" {
		log.Printf("serving live metrics at http://%s/metricsz", cfg.export.Addr)
	}
	rt, err := node.New(rcfg)
	if err != nil {
		return err
	}

	// The live feed's watchdog reuses the -deadline budget: a feed silent
	// that long fails the run with a typed stall error rather than
	// hanging the frame loop.
	ingest, err := cfg.shared.OpenIngest([]*scene.Camera{cam}, cfg.deadline)
	if err != nil {
		return err
	}
	if ingest != nil {
		defer ingest.Close()
		log.Printf("listening for camera %d frame parts on %s (policy %s)",
			cfg.camera, cfg.shared.IngestAddr, cfg.shared.ShedPolicy)
	}
	nextObs := func(fi int) ([]scene.Observation, bool, error) {
		if ingest != nil {
			frame, err := ingest.Next()
			if err == io.EOF {
				return nil, false, nil
			}
			if err != nil {
				var stalled *pipeline.StallError
				if errors.As(err, &stalled) {
					return nil, false, fmt.Errorf("live feed degraded: %w", err)
				}
				return nil, false, err
			}
			return frame.PerCamera[0], true, nil
		}
		if fi >= len(test.Frames) {
			return nil, false, nil
		}
		return test.Frames[fi].PerCamera[cfg.camera], true, nil
	}

	start := time.Now()
	for fi := 0; ; fi++ {
		obs, ok, err := nextObs(fi)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if camModel != nil && camModel.Down(cfg.camera, fi) {
			// Camera outage: no capture, no inference, no upload, no
			// heartbeat. A lease-armed scheduler sees the silence, declares
			// this camera dead, and the survivors take over its objects.
			rt.OutageFrame()
		} else {
			reports, settle, err := rt.Step(fi, obs, client.Reconnects())
			switch {
			case err != nil:
				return err
			case settle != nil:
				// A failed exchange returns no assignment: the miss.
				a, _ := client.KeyFrame(fi, reports, cfg.deadline)
				switch {
				case a == nil && !rt.Degraded():
					log.Printf("round %d got no assignment; entering degraded mode", fi)
				case a != nil && rt.Degraded():
					log.Printf("round %d: assignment received, rejoining cluster", fi)
				}
				if err := settle(a); err != nil {
					return err
				}
			case cfg.hbEvery > 0 && fi%cfg.hbEvery == 0:
				// A failed ping already ran the reconnect attempts.
				_ = client.Ping(0)
			}
		}
		if cfg.rate > 0 {
			time.Sleep(cfg.rate)
		}
	}

	st := rt.Stats()
	st.Reconnects = client.Reconnects() // the last exchange's included
	log.Printf("done in %v wall time", time.Since(start).Round(time.Millisecond))
	summarize(os.Stdout, cfg.camera, st, client.BytesSent(), client.BytesReceived())
	if rec != nil {
		return rec.Close()
	}
	return nil
}

// summarize prints the run's summary. The uplink rate is over the
// frames' 10 FPS stream time, so a run that processed no frame has none.
func summarize(w io.Writer, camera int, st node.Stats, sent, received int64) {
	fmt.Fprintf(w, "camera %d summary:\n", camera)
	fmt.Fprintf(w, "  frames:            %d\n", st.Frames)
	fmt.Fprintf(w, "  mean inference:    %v/frame\n", st.MeanLatency.Round(100_000))
	fmt.Fprintf(w, "  distinct objects:  %d detected\n", st.DetectedObjects)
	fmt.Fprintf(w, "  final tracks:      %d active, %d shadows\n", st.ActiveTracks, st.Shadows)
	if st.DegradedFrames > 0 || st.Reconnects > 0 || st.OutageFrames > 0 {
		fmt.Fprintf(w, "  resilience:        %d degraded frames, %d reconnects, %d outage frames, %d takeovers\n",
			st.DegradedFrames, st.Reconnects, st.OutageFrames, st.Reassignments)
	}
	// Uplink usage vs the testbed's 20 Mbps budget: tiny, the point of
	// onboard processing.
	fmt.Fprintf(w, "  network:           %d B up, %d B down", sent, received)
	if st.Frames > 0 {
		secs := float64(st.Frames) / 10.0
		fmt.Fprintf(w, " (%.1f kbit/s uplink)", float64(sent)*8/1000/secs)
	}
	fmt.Fprintln(w)
}
