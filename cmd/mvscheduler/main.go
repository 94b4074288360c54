// Command mvscheduler runs the central scheduler for a distributed
// deployment: camera nodes (cmd/mvnode) connect over TCP, upload their
// detections at key frames, and receive BALB assignments.
//
// The scheduler and all nodes regenerate the same deterministic world
// from (scenario, seed), so the association model is trained here
// without shipping any data.
//
// Usage:
//
//	mvscheduler [-listen :7001] [-scenario S2] [-seed 42] [-frames 1200]
//	            [-workers N] [-metrics-addr :8080] [-metrics-jsonl rounds.jsonl]
//	            [-record rundir]
//
// -workers bounds association-model training and each round's per-pair
// association fan-out; assignments are bit-identical at every value
// (docs/SCALING.md). The -metrics-* pair exports one snapshot per
// scheduling round (docs/OBSERVABILITY.md). SIGINT/SIGTERM shut the
// scheduler down cleanly, flushing the metrics log.
//
// Resilience (docs/FAULTS.md): -round-timeout bounds how long a round
// waits for stragglers before scheduling with the reports received so
// far; -lease stops silent cameras from blocking the barrier (pair with
// mvnode -heartbeat-every); -faults wraps the listener in a
// deterministic fault injector for chaos runs; -adapt arms the
// degradation control loop (docs/FAULTS.md §10) — when scheduled round
// latency breaches the SLO or leases declare cameras dead, assignments
// carry a degradation level that nodes translate into capped
// inspection sizes and a stretched key-frame cadence.
//
// Scaling (docs/SCALING.md §3): -shard-max N partitions the fleet into
// overlap groups of at most N cameras from the trained model's coverage
// graph and runs one independent scheduling round machine per shard
// (cluster.NewShardedScheduler); -shards gives the partition explicitly,
// e.g. "0,1,2|3,4,5". Nodes need no flag — shard-scoped assignments
// carry their roster on the wire. docs/ARCHITECTURE.md has the full
// picture.
//
// -record <dir> captures every scheduling round's snapshot and
// decision record into a run store for post-incident audit
// (capture-only; camera outages are node-side: mvnode -cam-faults).
// See docs/STREAMING.md.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/cliconf"
	"mvs/internal/cluster"
	"mvs/internal/experiments"
	"mvs/internal/faults"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/shard"
	"mvs/internal/store"
	"mvs/internal/workload"
)

func main() {
	var (
		listen       = flag.String("listen", ":7001", "listen address")
		scenario     = flag.String("scenario", "S2", "scenario: "+workload.ScenarioNames)
		seed         = flag.Int64("seed", 42, "shared simulation seed")
		frames       = flag.Int("frames", 1200, "trace length used for model training")
		roundTimeout = flag.Duration("round-timeout", 30*time.Second, "schedule an incomplete round after this long (0 = wait forever)")
		lease        = flag.Duration("lease", 0, "treat a camera silent for this long as dead for round barriers (0 = off)")
		faultsSpec   = flag.String("faults", "", "inject connection faults on accepted connections, e.g. seed=7,reset=0.02 (see docs/FAULTS.md)")
		shardMax     = flag.Int("shard-max", 0, "partition the fleet into overlap groups of at most N cameras and run one round loop per shard (0 = one global round)")
		shardSpec    = flag.String("shards", "", "explicit shard partition, e.g. 0,1,2|3,4,5 (overrides -shard-max)")
	)
	shared := cliconf.Register(flag.CommandLine, "mvscheduler")
	flag.Parse()

	cliconf.Exit("mvscheduler", shared.WithExport(func(export *metrics.Export) error {
		return run(*listen, *scenario, *seed, *frames, *roundTimeout, *lease, *faultsSpec, *shardMax, *shardSpec, shared, export)
	}))
}

// shardMap resolves the sharding flags against the trained model: an
// explicit -shards spec wins, then -shard-max partitions the coverage
// graph, and with neither the scheduler runs the legacy global round
// (nil map).
func shardMap(spec string, maxShard int, s *workload.Scenario, model *assoc.Model) (*shard.Map, error) {
	if spec == "" && maxShard <= 0 {
		return nil, nil
	}
	rects := make([]geom.Rect, len(s.World.Cameras))
	for i, c := range s.World.Cameras {
		rects[i] = c.Frame()
	}
	adj, err := model.OverlapAdjacency(rects)
	if err != nil {
		return nil, err
	}
	g, err := shard.FromAdjacency(adj)
	if err != nil {
		return nil, err
	}
	if spec != "" {
		return shard.ParseSpec(spec, model.NumCameras(), g)
	}
	return shard.Partition(g, maxShard)
}

func run(listen, scenario string, seed int64, frames int, roundTimeout, lease time.Duration, faultsSpec string, shardMax int, shardSpec string, shared *cliconf.Shared, export *metrics.Export) error {
	adaptPol, err := adapt.ParseSpec(shared.Adapt)
	if err != nil {
		return err
	}
	log.Printf("generating %s trace (%d frames) and training association model...", scenario, frames)
	setup, err := experiments.Prepare(scenario, seed, frames, shared.Workers)
	if err != nil {
		return err
	}
	s, model := setup.Scenario, setup.Model
	m, err := shardMap(shardSpec, shardMax, s, model)
	if err != nil {
		return err
	}

	rec, err := shared.OpenRecorder(store.Manifest{
		Label: "mvscheduler", Scenario: scenario, Seed: seed,
		TraceFrames: frames, Mode: "cluster",
	}, s.World.Cameras)
	if err != nil {
		return err
	}
	if rec != nil {
		defer rec.Close() // idempotent; the serve path closes explicitly
		log.Printf("recording scheduling rounds into %s", shared.Record)
	}
	opts := []cluster.Option{
		cluster.WithLogger(log.Default()), cluster.WithSink(shared.Sink(export, rec)),
		cluster.WithWorkers(shared.Workers),
		cluster.WithRoundTimeout(roundTimeout), cluster.WithLease(lease),
	}
	if rec != nil {
		opts = append(opts, cluster.WithRounds(rec))
	}
	if adaptPol.Enabled() {
		// Under sharding every option applies per shard, so each shard
		// gets its own independent controller.
		opts = append(opts, cluster.WithAdapt(adaptPol))
		log.Printf("degradation control loop armed: %s", adaptPol.Spec())
	}
	var sched *cluster.Scheduler
	if m != nil {
		log.Printf("sharded scheduling: %s", m.String())
		sched, err = cluster.NewShardedScheduler(model, s.Profiles(), 0, m, opts...)
	} else {
		sched, err = cluster.NewScheduler(model, s.Profiles(), 0, opts...)
	}
	if err != nil {
		return err
	}
	if export.Addr != "" {
		log.Printf("serving live metrics at http://%s/metricsz", export.Addr)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	if faultsSpec != "" {
		fcfg, err := faults.ParseSpec(faultsSpec)
		if err != nil {
			ln.Close()
			return err
		}
		ln = faults.New(fcfg).Listener(ln)
		log.Printf("fault injection armed: %s", faultsSpec)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		log.Printf("shutting down...")
		sched.Close() // also closes ln, unblocking Serve
	}()

	log.Printf("central scheduler for %s (%d cameras) listening on %s",
		scenario, len(s.Devices), ln.Addr())
	err = sched.Serve(ln)
	if rec != nil {
		if cerr := rec.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
