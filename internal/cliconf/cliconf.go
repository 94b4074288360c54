// Package cliconf holds the flag groups shared by the mv* commands, so
// every binary exposes the identical -workers / -metrics-addr /
// -metrics-jsonl / -cam-faults / -health-k / -record matrix instead of
// four hand-rolled copies (the README flag table is the source of
// truth). Each command registers the shared group once, parses, and
// turns the values into the config objects of the layer it drives:
// metrics.OpenExport for the observability flags, camfault.Generate for
// the fault flags, store.Create for -record, and ParseMode for the
// scheduler-mode names.
package cliconf

import (
	"flag"
	"fmt"
	"net"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/camfault"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/store"
)

// Shared is the flag matrix common to mvsim, mvexp, mvscheduler, and
// mvnode; mvserve registers the RegisterCore subset and mvreplay a
// hand-rolled one. Fields are filled by fs.Parse after Register.
type Shared struct {
	// Workers bounds each binary's fan-outs (0 = GOMAXPROCS,
	// 1 = sequential); modelled results are identical for every value
	// (docs/CONCURRENCY.md, docs/SCALING.md).
	Workers int
	// MetricsAddr and MetricsJSONL are the live-export knobs
	// (docs/OBSERVABILITY.md).
	MetricsAddr  string
	MetricsJSONL string
	// CamFaults is the camera-outage schedule spec (docs/FAULTS.md);
	// empty disables injection. HealthK is the dead-camera silence
	// threshold (0 disables failover).
	CamFaults string
	HealthK   int
	// Record is the run-store directory (docs/STREAMING.md); empty
	// disables recording.
	Record string
	// StoreFsync, StoreKeep, and StoreKeepDur tune the -record store's
	// durability and retention (store.Options; docs/STREAMING.md §5).
	// Count and age bounds share one pruning path; both apply when both
	// are set.
	StoreFsync   string
	StoreKeep    int
	StoreKeepDur time.Duration
	// Adapt is the degradation-control-loop spec (adapt.ParseSpec
	// syntax, docs/FAULTS.md §10); empty disables the controller.
	Adapt string
	// IngestAddr, when set, makes the binary listen for live frame
	// parts (pipeline.IngestSource) instead of generating a trace;
	// ShedPolicy picks what its admission queues drop under overload
	// (docs/STREAMING.md §6).
	IngestAddr string
	ShedPolicy string
}

// Register installs the shared matrix on fs. workersHelp tailors the
// -workers usage line to the binary's fan-outs ("association",
// "experiment/association", ...).
func Register(fs *flag.FlagSet, workersHelp string) *Shared {
	s := RegisterCore(fs, workersHelp)
	fs.StringVar(&s.Record, "record", "", "record this run into a run-store directory (see docs/STREAMING.md)")
	fs.StringVar(&s.StoreFsync, "store-fsync", "never", "-record durability policy: never, interval, every-record")
	fs.IntVar(&s.StoreKeep, "store-keep-segments", 0, "-record frame-log retention: keep only the newest N segments (0 = unlimited)")
	fs.DurationVar(&s.StoreKeepDur, "store-keep-duration", 0, "-record frame-log retention by age: drop segments older than this (0 = unlimited)")
	fs.StringVar(&s.IngestAddr, "ingest-addr", "", "listen for live length-prefixed frame parts on this address instead of generating a trace (e.g. :7100; push with mvingest)")
	fs.StringVar(&s.ShedPolicy, "shed-policy", "drop-oldest", "ingest overload shedding: drop-oldest, freshest, stale")
	return s
}

// RegisterCore installs only the core subset of the matrix — -workers,
// the -metrics-* export pair, the -cam-faults / -health-k fault pair,
// and -adapt — for binaries with no run-store or live-ingest surface
// (mvserve). Register builds on it.
func RegisterCore(fs *flag.FlagSet, workersHelp string) *Shared {
	s := &Shared{}
	fs.IntVar(&s.Workers, "workers", 0, workersHelp+" worker bound (0 = GOMAXPROCS, 1 = sequential)")
	fs.StringVar(&s.MetricsAddr, "metrics-addr", "", "serve live /metricsz snapshots on this address (e.g. :8080)")
	fs.StringVar(&s.MetricsJSONL, "metrics-jsonl", "", "append metrics snapshots to this JSONL file")
	fs.StringVar(&s.CamFaults, "cam-faults", "", "camera-fault schedule, e.g. seed=7,rate=0.1,mean=20 (see docs/FAULTS.md)")
	fs.IntVar(&s.HealthK, "health-k", 3, "frames of silence before a camera is declared dead (0 disables failover)")
	fs.StringVar(&s.Adapt, "adapt", "", "degradation control loop, e.g. slo=500ms,window=40,cooldown=2,max=3 (see docs/FAULTS.md)")
	return s
}

// OpenExport builds the metrics export stack from the -metrics-* flags.
// The export is always non-nil (a zero-config export closes cleanly);
// ExportEnabled reports whether a sink should actually be attached.
func (s *Shared) OpenExport() (*metrics.Export, error) {
	return metrics.OpenExport(s.MetricsAddr, s.MetricsJSONL)
}

// ExportEnabled reports whether any -metrics-* flag was given.
func (s *Shared) ExportEnabled() bool {
	return s.MetricsAddr != "" || s.MetricsJSONL != ""
}

// FaultModel materialises the -cam-faults spec for a roster of numCams
// cameras over numFrames frames. It returns (nil, nil) when the flag is
// unset.
func (s *Shared) FaultModel(numCams, numFrames int) (*camfault.Model, error) {
	if s.CamFaults == "" {
		return nil, nil
	}
	cfg, err := camfault.ParseSpec(s.CamFaults)
	if err != nil {
		return nil, err
	}
	return camfault.Generate(cfg, numCams, numFrames)
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

// AdaptPolicy materialises the -adapt spec as an adapt.Policy. The zero
// policy (flag unset) leaves the controller disabled.
func (s *Shared) AdaptPolicy() (adapt.Policy, error) {
	if s.Adapt == "" {
		return adapt.Policy{}, nil
	}
	return adapt.ParseSpec(s.Adapt)
}

// OpenRecorder creates the -record run store under the -store-* options,
// stamping the fault and ingest flags into the manifest so a replay can
// regenerate the identical schedule (and -verify can refuse runs whose
// snapshots are not a pure function of the frame log). It returns
// (nil, nil) when -record is unset; callers own the writer's Close.
func (s *Shared) OpenRecorder(man store.Manifest) (*store.Writer, error) {
	if s.Record == "" {
		return nil, nil
	}
	if man.CamFaults == "" && s.CamFaults != "" {
		man.CamFaults = s.CamFaults
		man.HealthK = s.HealthK
	}
	if man.Ingest == "" && s.IngestAddr != "" {
		man.Ingest = s.IngestAddr
	}
	if man.Adapt == "" && s.Adapt != "" {
		// Store the canonical spec so a replay regenerates the identical
		// controller (adapt.Policy.Spec round-trips through ParseSpec).
		pol, err := s.AdaptPolicy()
		if err != nil {
			return nil, err
		}
		man.Adapt = pol.Spec()
	}
	opts, err := s.StoreOptions()
	if err != nil {
		return nil, err
	}
	return store.CreateWith(s.Record, man, opts)
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
// CLI short names (mvsim -mode, mvreplay -mode) and the canonical
// Mode.String() forms a run-store manifest records.
func ParseMode(s string) (pipeline.Mode, error) {
	switch s {
	case "full", pipeline.Full.String():
		return pipeline.Full, nil
	case "ind", pipeline.Independent.String():
		return pipeline.Independent, nil
	case "cen", pipeline.CentralOnly.String():
		return pipeline.CentralOnly, nil
	case "balb", pipeline.BALB.String():
		return pipeline.BALB, nil
	case "sp", pipeline.StaticPartition.String():
		return pipeline.StaticPartition, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want full, ind, cen, balb, sp)", s)
	}
}
