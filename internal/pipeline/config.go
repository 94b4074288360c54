package pipeline

import (
	"mvs/internal/adapt"
	"mvs/internal/metrics"
	"mvs/internal/shard"
	"mvs/internal/vision"
)

// Config configures an Engine (and the batch Run wrapper around it),
// grouped by concern: Sim shapes the simulated world and sensing, Sched
// selects and tunes the scheduling algorithm, Fault arms the data-plane
// failure model, Adapt arms the graceful-degradation control loop,
// Serve couples the engine to a shared executor pool, and Obs attaches
// observability. The zero value is a
// valid fault-free Full-mode run; NewConfig fills the two knobs every
// caller sets. Defaults (Horizon 10, redundancy 1, slack 1.2) are
// applied when the engine is built; the cell grid and the association
// threshold are assoc's constants (assoc.GridCols x assoc.GridRows,
// assoc.MinIoU).
//
// Every field except Sched.Workers is part of the determinism contract:
// the same (source, profiles, model, Config modulo Workers) produces
// bit-identical modelled results (docs/CONCURRENCY.md,
// docs/ARCHITECTURE.md). Serve extends the contract across tenants:
// with a shared serve.Pool as the executor, the tenant *set* and
// registration order join the inputs (docs/SERVING.md).
type Config struct {
	Sim   Sim
	Sched Sched
	Fault Fault
	Adapt Adapt
	Serve Serve
	Obs   Obs
}

// NewConfig returns a Config with the two universally-set knobs filled
// in; everything else keeps its zero value and picks up defaults when
// the engine is built.
func NewConfig(mode Mode, seed int64) Config {
	return Config{Sched: Sched{Mode: mode}, Sim: Sim{Seed: seed}}
}

// Sim is the simulated-world half of the configuration: how cameras
// sense the scene, independent of how work is scheduled.
type Sim struct {
	// Seed drives detector noise.
	Seed int64
	// Detector tunes the simulated DNN.
	Detector vision.Config
}

// Sched selects and tunes the scheduling algorithm under evaluation.
type Sched struct {
	// Mode is the algorithm under test.
	Mode Mode
	// Horizon is T, the frames per scheduling horizon (default 10).
	Horizon int
	// Redundancy, when > 1, makes the central stage keep up to this many
	// trackers per object (latency budget permitting) — the paper's §V
	// occlusion-hedging extension. Only meaningful in BALB/CentralOnly
	// modes; 0 or 1 is standard single-tracker BALB.
	Redundancy int
	// RedundancySlack bounds the extra trackers' latency cost as a
	// multiple of the base system latency (default 1.2).
	RedundancySlack float64
	// Workers bounds the goroutines used for the central stage's per-pair
	// association fan-out at key frames and for NewEngine's per-cell
	// coverage precomputation; the cameras of a frame are stepped one
	// after another whatever its value. 1 forces the sequential reference
	// path, 0 (the default) selects GOMAXPROCS, and any value is capped
	// at the item count of each fan-out. The modelled report fields are
	// identical for every value (see Report.Modeled and
	// docs/CONCURRENCY.md).
	Workers int
	// Shards, when non-nil, runs the central stage sharded: one
	// association + BALB solve per shard over that shard's cameras only
	// (on an assoc.Model.Subset), the shard priority orders concatenated
	// in shard order into the distributed stage's one
	// core.DistributedPolicy. This is the in-process analogue of
	// cluster.NewShardedScheduler — no fleet-wide O(N²) association, no
	// data structure spanning shards — usable at 64+ cameras without
	// sockets, but with no boundary hand-off. Only valid for BALB and
	// CentralOnly modes. On a scenario with zero cross-shard coverage the
	// modelled results are bit-identical to the unsharded run (see
	// docs/ARCHITECTURE.md, determinism contract). With boundary traffic,
	// each shard keeps its own copy of a straddling object at key frames,
	// and only between key frames does a new boundary object go to the
	// lowest covering shard.
	Shards *shard.Map
}

// Fault arms the data-plane failure model (docs/FAULTS.md).
type Fault struct {
	// CamFaults, when non-nil, injects the data-plane fault schedule: a
	// camera that is down for a frame produces no observations and runs
	// no inspection (its tracker, executor, and shadows freeze). The
	// model must cover every roster camera and the full stream length.
	// nil runs fault-free — bit-identical to a build without this
	// feature (docs/FAULTS.md, "Data-plane failure model").
	CamFaults *FaultSchedule
	// HealthK is the health-tracker silence threshold: a camera silent
	// for K consecutive frames is marked dead, the central stage
	// reschedules over the healthy subset, and the distributed stage's
	// ownership masks skip it (failover). 0 disables health tracking —
	// faults still drop frames, but scheduling stays oblivious (the
	// no-failover ablation). Only meaningful with CamFaults set.
	HealthK int
}

// Adapt arms the graceful-degradation control loop (docs/FAULTS.md §10):
// an adapt.Controller ticking between association horizons, degrading the
// key-frame interval and per-object inspection sizes to hold the SLO
// under overload or fault pressure, and recovering when it clears.
type Adapt struct {
	// Policy configures the controller; a disabled policy (SLO == 0, the
	// zero value) runs no controller at all — the frame stream, the
	// snapshots, and the report are bit-identical to a build without this
	// feature. With the controller enabled but never provoked (no rung
	// ever engaged), the modelled output is likewise bit-identical to a
	// disabled run: level 0 applies no cap and no stretch.
	//
	// The controller is part of the determinism contract: its decisions
	// are a pure function of modelled window state (frame latency,
	// dead-camera count, association drift) plus the policy. The one
	// exception mirrors Obs.Ingest: live queue-depth samples reflect
	// arrival timing, so a queue-provoked degradation is only as
	// reproducible as the arrivals — trace and replay runs observe
	// queue depth 0.
	Policy adapt.Policy
}

// Obs attaches observability to a run. Sinks observe without
// perturbing: every emitted field is modelled, so attaching one never
// changes the run's results. Ownership rule (stated here once, see
// docs/STREAMING.md): whoever opens a sink closes it; the engine
// Flushes the frame sink exactly once at end of stream and reports the
// first sink error through Engine.Err.
type Obs struct {
	// Sink, when non-nil, receives one metrics.Snapshot per frame —
	// assembled in fixed camera order after the per-camera merge, from
	// modelled fields only. The sink must accept concurrent RecordFrame
	// calls if the same instance is shared by several runs.
	Sink metrics.Sink
	// Rounds, when non-nil, receives one metrics.Round per central-stage
	// scheduling round (key frames of BALB/CentralOnly/SP-with-model
	// runs): the decision record the run store persists for replay and
	// audit. Never flushed by the engine — Round sinks buffer at the
	// owner's discretion.
	Rounds metrics.RoundSink
	// Label tags this run's snapshots and rounds; empty defaults to the
	// mode name. Experiment harnesses use it to demultiplex streams
	// from concurrent runs.
	Label string
	// Ingest, when non-nil, is read once per frame to stamp the live
	// admission counters (ingested/shed/queue depth) into each snapshot.
	// NewEngine fills it automatically when the source itself is an
	// IngestMeter; set it explicitly when the meter is hidden behind a
	// wrapper (e.g. a store.Writer.Tee around an IngestSource). Counters
	// reflect live arrival timing, so they are exempt from the
	// determinism contract — trace and replay runs leave this nil and
	// their snapshots carry none of the ingest keys.
	Ingest IngestMeter
}

func (c Config) withDefaults() Config {
	if c.Sched.Horizon <= 0 {
		c.Sched.Horizon = 10
	}
	if c.Sched.Redundancy < 1 {
		c.Sched.Redundancy = 1
	}
	if c.Sched.RedundancySlack <= 0 {
		c.Sched.RedundancySlack = 1.2
	}
	return c
}

// label resolves the stream label: explicit Obs.Label, else mode name.
func (c Config) label() string {
	if c.Obs.Label != "" {
		return c.Obs.Label
	}
	return c.Sched.Mode.String()
}
