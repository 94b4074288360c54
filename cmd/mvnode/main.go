// Command mvnode runs one camera node of a distributed deployment: it
// regenerates its camera's observations from the shared (scenario, seed)
// pair, connects to the central scheduler, and executes the BALB camera
// loop — full-frame inspection and detection upload at key frames,
// tracking-based sliced batched inspection plus the distributed stage on
// regular frames.
//
// Start one mvscheduler and one mvnode per camera:
//
//	mvscheduler -scenario S2 -seed 42 &
//	mvnode -addr localhost:7001 -camera 0 -scenario S2 -seed 42
//	mvnode -addr localhost:7001 -camera 1 -scenario S2 -seed 42
//
// The node is fault tolerant (docs/FAULTS.md): the scheduler connection
// reconnects with capped exponential backoff, a round whose assignment
// never arrives puts the node in degraded mode — it keeps inspecting all
// of its own tracks under the last-known priority order and masks — and
// the next successful round rejoins. -faults injects deterministic
// connection faults for chaos runs; -cam-faults injects data-plane
// camera outages (the node skips the frame loop while "down", which a
// lease-armed scheduler observes as silence and reports as a dead
// camera to the surviving nodes). When the scheduler runs -adapt, its
// assignments carry a degradation level: the node caps its inspection
// input sizes at adapt.SizeCapFor(level) and stretches its key-frame
// cadence on the adapt.KeyFrame grid (docs/FAULTS.md §10).
//
// The frame loop's body is node.Runtime.Step; what this binary owns is
// where observations come from, the camera-fault schedule, pacing, and
// the summary.
//
// Sharded deployments (mvscheduler -shard-max / -shards) need no node
// flag: the scheduler routes the node to its shard's round loop at the
// hello handshake, and shard-scoped assignments carry their camera
// roster, from which the node builds a scoped ownership policy
// (docs/SCALING.md §3, docs/ARCHITECTURE.md).
//
// -record <dir> captures the node's per-frame snapshots into a run
// store labelled with its camera index (capture-only). -ingest-addr
// replaces the regenerated observations with a live feed (push with
// mvingest -camera N): it sheds under overload per -shed-policy and
// fails with a typed stall error if the feed goes silent past -deadline
// (docs/STREAMING.md §6).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
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
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.addr, "addr", "localhost:7001", "scheduler address")
	flag.IntVar(&cfg.camera, "camera", 0, "this node's camera index")
	flag.StringVar(&cfg.scenario, "scenario", "S2", "scenario: S1, S2, or S3")
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

		Link:           client,
		Horizon:        cfg.horizon,
		Deadline:       cfg.deadline,
		HeartbeatEvery: cfg.hbEvery,
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
		wasDegraded := rt.Degraded()
		if camModel != nil && camModel.Down(cfg.camera, fi) {
			// Camera outage: no capture, no inference, no upload, no
			// heartbeat. A lease-armed scheduler sees the silence, declares
			// this camera dead, and the survivors take over its objects.
			rt.OutageFrame()
		} else if err := rt.Step(fi, obs); err != nil {
			return err
		}
		if rt.Degraded() != wasDegraded {
			if wasDegraded {
				log.Printf("round %d: assignment received, rejoining cluster", fi)
			} else {
				log.Printf("round %d got no assignment; entering degraded mode", fi)
			}
		}
		if cfg.rate > 0 {
			time.Sleep(cfg.rate)
		}
	}

	st := rt.Stats()
	log.Printf("done in %v wall time", time.Since(start).Round(time.Millisecond))
	fmt.Printf("camera %d summary:\n", cfg.camera)
	fmt.Printf("  frames:            %d\n", st.Frames)
	fmt.Printf("  mean inference:    %v/frame\n", st.MeanLatency.Round(100_000))
	fmt.Printf("  distinct objects:  %d detected\n", st.DetectedObjects)
	fmt.Printf("  final tracks:      %d active, %d shadows\n", st.ActiveTracks, st.Shadows)
	if st.DegradedFrames > 0 || st.Reconnects > 0 || st.OutageFrames > 0 {
		fmt.Printf("  resilience:        %d degraded frames, %d reconnects, %d outage frames, %d takeovers\n",
			st.DegradedFrames, st.Reconnects, st.OutageFrames, st.Reassignments)
	}
	// Uplink usage vs the testbed's 20 Mbps budget: key-frame uploads are
	// tiny compared to streaming video, which is the point of onboard
	// processing.
	secs := float64(st.Frames) / 10.0
	upKbps := float64(client.BytesSent()) * 8 / 1000 / secs
	fmt.Printf("  network:           %d B up, %d B down (%.1f kbit/s uplink)\n",
		client.BytesSent(), client.BytesReceived(), upKbps)
	if rec != nil {
		return rec.Close()
	}
	return nil
}
