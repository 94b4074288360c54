// Package cliconf is the front-end the mv* commands share, written once:
// the cross-binary flags as per-concern groups (Register installs on a
// binary exactly the groups it reads — the README flag matrix is this
// package's table), the one interpreter that turns a run's recipe — a
// store.Manifest, stamped from flags or read back from a recorded run —
// into the engine configuration and trained setup (Build), and the rest
// of main: the metrics-export lifecycle (WithExport, Exit), the
// export-plus-recorder sink (Sink), the -record store (OpenRecorder) and
// the -ingest-addr listener (OpenIngest).
package cliconf

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/experiments"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/store"
)

// group is a set of flag concerns. A binary registers a group only if it
// reads every flag in it, so an unread flag is rejected by the flag
// package instead of being silently accepted.
type group uint

const (
	workers   group = 1 << iota // -workers
	export                      // -metrics-addr, -metrics-jsonl
	camFaults                   // -cam-faults
	failover                    // -health-k, the engine-side dead-camera threshold
	adaptLoop                   // -adapt
	record                      // -record with its -store-fsync durability policy
	retention                   // -store-keep-*: frame-log retention, for a binary that records frames
	ingest                      // -ingest-addr, -shed-policy
)

// binaries is the flag matrix: which groups each command reads, and what
// its -workers bounds. TestRegisterMatrix pins it flag by flag.
var binaries = map[string]struct {
	groups      group
	workersHelp string
}{
	"mvsim":       {workers | export | camFaults | failover | adaptLoop | record | retention | ingest, "association/coverage/training"},
	"mvexp":       {workers | export | camFaults | failover | adaptLoop | record, "experiment/association"},
	"mvscheduler": {workers | export | adaptLoop | record, "training/association"},
	"mvnode":      {export | camFaults | record | ingest, ""},
	"mvserve":     {workers | export | camFaults | failover | adaptLoop, "association/coverage"},
}

// Shared holds the values of the cross-binary flags, filled by fs.Parse
// after Register; a field whose group the binary did not register keeps
// its default. Register's usage strings say what each one does.
type Shared struct {
	Workers                   int    // 0 = GOMAXPROCS, 1 = sequential; results identical at every value
	MetricsAddr, MetricsJSONL string // docs/OBSERVABILITY.md
	CamFaults                 string // pipeline.ParseFaultSpec syntax, docs/FAULTS.md §6
	HealthK                   int
	Adapt                     string // adapt.ParseSpec syntax, docs/FAULTS.md §10
	Record                    string // run-store directory, docs/STREAMING.md
	// StoreFsync, StoreKeep and StoreKeepDur are the store.Options of the
	// -record store (docs/STREAMING.md §5); the count and age bounds
	// share one pruning path and both apply when both are set.
	StoreFsync             string
	StoreKeep              int
	StoreKeepDur           time.Duration
	IngestAddr, ShedPolicy string // docs/STREAMING.md §6
}

// Register installs on fs the flag groups the named binary reads. An
// unknown binary is a programming error and panics.
func Register(fs *flag.FlagSet, binary string) *Shared {
	b, ok := binaries[binary]
	if !ok {
		panic("cliconf: no flag matrix row for " + binary)
	}
	s := &Shared{StoreFsync: "never"}
	has := func(g group) bool { return b.groups&g != 0 }
	if has(workers) {
		fs.IntVar(&s.Workers, "workers", 0, b.workersHelp+" worker bound (0 = GOMAXPROCS, 1 = sequential)")
	}
	if has(export) {
		fs.StringVar(&s.MetricsAddr, "metrics-addr", "", "serve live /metricsz snapshots on this address (e.g. :8080)")
		fs.StringVar(&s.MetricsJSONL, "metrics-jsonl", "", "append metrics snapshots to this JSONL file")
	}
	if has(camFaults) {
		fs.StringVar(&s.CamFaults, "cam-faults", "", "camera-fault schedule, e.g. seed=7,rate=0.1,mean=20 (see docs/FAULTS.md)")
	}
	if has(failover) {
		fs.IntVar(&s.HealthK, "health-k", 3, "frames of silence before a camera is declared dead (0 disables failover)")
	}
	if has(adaptLoop) {
		fs.StringVar(&s.Adapt, "adapt", "", "degradation control loop, e.g. slo=500ms,window=40,cooldown=2,max=3 (see docs/FAULTS.md)")
	}
	if has(record) {
		fs.StringVar(&s.Record, "record", "", "record this run into a run-store directory (see docs/STREAMING.md)")
		fs.StringVar(&s.StoreFsync, "store-fsync", s.StoreFsync, "-record durability policy: never, interval, every-record")
	}
	if has(retention) {
		fs.IntVar(&s.StoreKeep, "store-keep-segments", 0, "-record frame-log retention: keep only the newest N segments (0 = unlimited)")
		fs.DurationVar(&s.StoreKeepDur, "store-keep-duration", 0, "-record frame-log retention by age: drop segments older than this (0 = unlimited)")
	}
	if has(ingest) {
		fs.StringVar(&s.IngestAddr, "ingest-addr", "", "listen for live length-prefixed frame parts on this address instead of generating a trace (e.g. :7100; push with mvingest)")
		fs.StringVar(&s.ShedPolicy, "shed-policy", "drop-oldest", "ingest overload shedding: drop-oldest, freshest, stale")
	}
	return s
}

// WithExport runs body under the -metrics-* export stack: open, run,
// close, and fold the close error into body's. The export is always
// non-nil (a zero-config export closes cleanly); Sink decides whether it
// is worth attaching.
func (s *Shared) WithExport(body func(*metrics.Export) error) error {
	export, err := metrics.OpenExport(s.MetricsAddr, s.MetricsJSONL)
	if err != nil {
		return err
	}
	err = body(export)
	if cerr := export.Close(); err == nil {
		err = cerr
	}
	return err
}

// Exit ends a command: silently on a nil error, with "name: err" on
// stderr and status 1 otherwise.
func Exit(name string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Sink composes the snapshot sink of a run: the export when a -metrics-*
// flag was given, plus the recorder when there is one. It is nil when
// there is neither, so the engine skips building snapshots.
func (s *Shared) Sink(export *metrics.Export, rec *store.Writer) metrics.Sink {
	exporting := s.MetricsAddr != "" || s.MetricsJSONL != ""
	switch {
	case exporting && rec != nil:
		return metrics.Multi(export.Sink, rec)
	case exporting:
		return export.Sink
	case rec != nil:
		return rec
	}
	return nil
}

// FaultModel materialises the -cam-faults spec for a roster of numCams
// cameras over numFrames frames. It returns (nil, nil) when the flag is
// unset.
func (s *Shared) FaultModel(numCams, numFrames int) (*pipeline.FaultSchedule, error) {
	return pipeline.ParseFaults(s.CamFaults, numCams, numFrames)
}

// StoreOptions materialises the -store-fsync / -store-keep-segments /
// -store-keep-duration flags as store.Options.
func (s *Shared) StoreOptions() (store.Options, error) {
	fsync, err := store.ParseFsync(s.StoreFsync)
	if err != nil {
		return store.Options{}, err
	}
	if s.StoreKeep < 0 {
		return store.Options{}, fmt.Errorf("-store-keep-segments must be >= 0, got %d", s.StoreKeep)
	}
	if s.StoreKeepDur < 0 {
		return store.Options{}, fmt.Errorf("-store-keep-duration must be >= 0, got %v", s.StoreKeepDur)
	}
	return store.Options{Fsync: fsync, KeepSegments: s.StoreKeep, KeepDuration: s.StoreKeepDur}, nil
}

// Manifest stamps the recipe flags this binary read — the fault schedule
// and its failover threshold, the canonical adapt spec, the ingest
// address — into man, so that the manifest alone regenerates the run
// (Build) and -verify can refuse runs whose snapshots are not a pure
// function of the frame log.
func (s *Shared) Manifest(man store.Manifest) (store.Manifest, error) {
	if s.CamFaults != "" {
		man.CamFaults, man.HealthK = s.CamFaults, s.HealthK
	}
	man.Ingest = s.IngestAddr
	if s.Adapt != "" {
		// The canonical spec: adapt.Policy.Spec round-trips through
		// ParseSpec, so a replay regenerates the identical controller.
		pol, err := adapt.ParseSpec(s.Adapt)
		if err != nil {
			return man, err
		}
		man.Adapt = pol.Spec()
	}
	return man, nil
}

// OpenRecorder creates the -record run store for a fleet of cams, under
// man stamped by Manifest and the -store-* options. It returns (nil, nil)
// when -record is unset; callers own the writer's Close.
func (s *Shared) OpenRecorder(man store.Manifest, cams []*scene.Camera) (*store.Writer, error) {
	if s.Record == "" {
		return nil, nil
	}
	man, err := s.Manifest(man)
	if err != nil {
		return nil, err
	}
	if man.Cameras, err = scene.MarshalCameras(cams); err != nil {
		return nil, err
	}
	opts, err := s.StoreOptions()
	if err != nil {
		return nil, err
	}
	return store.CreateWith(s.Record, man, opts)
}

// Build is the one interpreter of a run's recipe: it regenerates the
// manifest's (scenario, seed) world, trains the association model on its
// training half, and derives the engine configuration — mode, horizon,
// the fault schedule regenerated from its spec over the evaluation half,
// the adapt controller from its canonical spec. Whether the manifest was
// stamped from flags (a fresh run) or read back by store.Open (a replay)
// makes no difference, which is what keeps record and replay symmetric.
// workers bounds training and the engine's fan-outs.
func Build(man store.Manifest, workers int) (*experiments.Setup, pipeline.Config, error) {
	// Everything cheap is parsed before the slow world generation, so a
	// bad recipe fails at once.
	mode, err := ParseMode(man.Mode)
	if err != nil {
		return nil, pipeline.Config{}, err
	}
	cfg := pipeline.NewConfig(mode, man.Seed)
	cfg.Sched.Horizon = man.Horizon
	cfg.Sched.Workers = workers
	// An empty spec parses to the zero policy (no controller) and the
	// zero fault config.
	if cfg.Adapt.Policy, err = adapt.ParseSpec(man.Adapt); err != nil {
		return nil, cfg, fmt.Errorf("adapt spec: %w", err)
	}
	faults, err := pipeline.ParseFaultSpec(man.CamFaults)
	if err != nil {
		return nil, cfg, fmt.Errorf("fault spec: %w", err)
	}
	setup, err := experiments.Prepare(man.Scenario, man.Seed, man.TraceFrames, workers)
	if err != nil {
		return nil, cfg, err
	}
	if man.CamFaults != "" {
		// The schedule spans the whole evaluation half, of which a crashed
		// recording replays a prefix: pipeline.GenerateFaults draws each
		// camera's frames in order, so the prefix of the schedule is the
		// schedule of the prefix.
		cfg.Fault.HealthK = man.HealthK
		cfg.Fault.CamFaults, err = pipeline.GenerateFaults(faults, len(setup.Test.Cameras), len(setup.Test.Frames))
		if err != nil {
			return nil, cfg, err
		}
	}
	return setup, cfg, nil
}

// OpenIngest builds and serves the -ingest-addr live source for a fixed
// roster, under the -shed-policy admission policy and a watchdog with
// the given stall deadline. It returns (nil, nil) when -ingest-addr is
// unset; callers own the source's Close.
func (s *Shared) OpenIngest(cams []*scene.Camera, stall time.Duration) (*pipeline.IngestSource, error) {
	if s.IngestAddr == "" {
		return nil, nil
	}
	policy, err := pipeline.ParseShedPolicy(s.ShedPolicy)
	if err != nil {
		return nil, err
	}
	src, err := pipeline.NewIngestSource(cams, pipeline.IngestConfig{Policy: policy, Stall: stall})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", s.IngestAddr)
	if err != nil {
		src.Close()
		return nil, err
	}
	src.Serve(ln)
	return src, nil
}

// ParseMode maps a mode name to its pipeline mode. It accepts both the
// CLI short names (mvsim -mode) and the canonical Mode.String() forms a
// run-store manifest records.
func ParseMode(s string) (pipeline.Mode, error) {
	for mode, short := range map[pipeline.Mode]string{
		pipeline.Full: "full", pipeline.Independent: "ind", pipeline.CentralOnly: "cen",
		pipeline.BALB: "balb", pipeline.StaticPartition: "sp",
	} {
		if s == short || s == mode.String() {
			return mode, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want full, ind, cen, balb, sp)", s)
}
