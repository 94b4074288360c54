package cliconf

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/store"
	"mvs/internal/workload"
)

// TestRegisterMatrix pins, per binary, the exact set of shared flags it
// exposes. A flag is listed here only if that binary reads it: a group
// added to a binary that ignores it must not get past this table (and
// the README flag matrix, which mirrors it).
func TestRegisterMatrix(t *testing.T) {
	want := map[string][]string{
		"mvsim": {"adapt", "cam-faults", "health-k", "ingest-addr", "metrics-addr", "metrics-jsonl", "record",
			"shed-policy", "store-fsync", "store-keep-duration", "store-keep-segments", "workers"},
		"mvexp":       {"adapt", "cam-faults", "health-k", "metrics-addr", "metrics-jsonl", "record", "store-fsync", "workers"},
		"mvscheduler": {"adapt", "metrics-addr", "metrics-jsonl", "record", "store-fsync", "workers"},
		"mvnode":      {"cam-faults", "ingest-addr", "metrics-addr", "metrics-jsonl", "record", "shed-policy", "store-fsync"},
		"mvserve":     {"adapt", "cam-faults", "health-k", "metrics-addr", "metrics-jsonl", "workers"},
	}
	if len(binaries) != len(want) {
		t.Fatalf("matrix has %d binaries, test pins %d", len(binaries), len(want))
	}
	for binary, flags := range want {
		fs := flag.NewFlagSet(binary, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs, binary)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
		if !reflect.DeepEqual(got, flags) {
			t.Errorf("%s registers %v, want %v", binary, got, flags)
		}
	}

	// The README flag matrix mirrors the table: for every shared flag, a ✓
	// exactly under the binaries that register it.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var columns []string // header cells: Flag, mvsim, ..., Meaning
	checked := 0
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if cells[0] == "Flag" {
			columns = cells
		}
		if len(columns) == 0 || len(cells) != len(columns) || !strings.HasPrefix(cells[0], "`-") {
			continue
		}
		for _, name := range strings.Split(cells[0], " / ") {
			name = strings.Trim(name, "`-")
			if !slices.Contains(want["mvsim"], name) {
				continue // a binary's own flag, not a cliconf one
			}
			checked++
			for i, binary := range columns[1 : len(columns)-1] {
				if got, reg := cells[i+1] == "✓", slices.Contains(want[binary], name); got != reg {
					t.Errorf("README matrix: -%s under %s is %q, but registered = %v", name, binary, cells[i+1], reg)
				}
			}
		}
	}
	if checked != len(want["mvsim"]) {
		t.Errorf("README matrix covers %d of the %d shared flags", checked, len(want["mvsim"]))
	}

	// A flag outside the binary's groups is rejected, not ignored.
	for binary, arg := range map[string]string{
		"mvexp": "-ingest-addr", "mvscheduler": "-cam-faults", "mvnode": "-workers", "mvserve": "-record",
	} {
		fs := flag.NewFlagSet(binary, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs, binary)
		if err := fs.Parse([]string{arg, "1"}); err == nil {
			t.Errorf("%s accepted %s", binary, arg)
		}
	}

	fs := flag.NewFlagSet("mvsim", flag.ContinueOnError)
	s := Register(fs, "mvsim")
	err = fs.Parse([]string{
		"-workers", "4", "-metrics-jsonl", "run.jsonl",
		"-cam-faults", "seed=7,rate=0.1", "-health-k", "5",
		"-record", "/tmp/rec",
		"-store-fsync", "interval", "-store-keep-segments", "3",
		"-ingest-addr", "localhost:7100", "-shed-policy", "freshest",
	})
	if err != nil {
		t.Fatal(err)
	}
	wantShared := Shared{
		Workers: 4, MetricsJSONL: "run.jsonl",
		CamFaults: "seed=7,rate=0.1", HealthK: 5, Record: "/tmp/rec",
		StoreFsync: "interval", StoreKeep: 3,
		IngestAddr: "localhost:7100", ShedPolicy: "freshest",
	}
	if *s != wantShared {
		t.Fatalf("parsed %+v, want %+v", *s, wantShared)
	}

	// Unset flags keep the documented defaults (durability off, ingest
	// off, drop-oldest shedding), and an unregistered -store-fsync still
	// yields valid store options.
	d := Register(flag.NewFlagSet("mvsim", flag.ContinueOnError), "mvsim")
	if d.StoreFsync != "never" || d.StoreKeep != 0 || d.IngestAddr != "" || d.ShedPolicy != "drop-oldest" || d.HealthK != 3 {
		t.Fatalf("defaults: %+v", *d)
	}
	if _, err := Register(flag.NewFlagSet("mvserve", flag.ContinueOnError), "mvserve").StoreOptions(); err != nil {
		t.Fatal(err)
	}
}

// TestSink: the export joins the sink only when a -metrics-* flag asked
// for it, the recorder whenever there is one, and with neither the engine
// gets no sink at all.
func TestSink(t *testing.T) {
	export, err := metrics.OpenExport("", "")
	if err != nil {
		t.Fatal(err)
	}
	defer export.Close()
	if got := (&Shared{}).Sink(export, nil); got != nil {
		t.Fatalf("no flags, no recorder: sink %v, want nil", got)
	}
	if got := (&Shared{MetricsJSONL: "x"}).Sink(export, nil); got != export.Sink {
		t.Fatalf("-metrics-jsonl alone must attach the export, got %v", got)
	}
}

// TestBuildFromManifest: the one recipe interpreter derives mode,
// horizon, fault schedule and controller from a manifest alone, accepts
// the canonical names a recorded manifest carries, and fails on a bad
// recipe before generating the world.
func TestBuildFromManifest(t *testing.T) {
	man, err := (&Shared{CamFaults: "seed=7,rate=0.1", HealthK: 5, Adapt: "slo=100ms"}).Manifest(store.Manifest{
		Scenario: "S2", Seed: 3, TraceFrames: 40, Mode: pipeline.CentralOnly.String(), Horizon: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	setup, cfg, err := Build(man, 1)
	if err != nil {
		t.Fatal(err)
	}
	if setup.Model == nil || len(setup.Test.Frames) != 20 {
		t.Fatalf("setup: model %v, %d test frames", setup.Model, len(setup.Test.Frames))
	}
	if cfg.Sched.Mode != pipeline.CentralOnly || cfg.Sched.Horizon != 5 || cfg.Sched.Workers != 1 || cfg.Sim.Seed != 3 {
		t.Fatalf("sched: %+v sim: %+v", cfg.Sched, cfg.Sim)
	}
	if f := cfg.Fault; f.HealthK != 5 || f.CamFaults == nil || f.CamFaults.NumFrames() != 20 || f.CamFaults.NumCameras() != len(setup.Test.Cameras) {
		t.Fatalf("fault: %+v", f)
	}
	if !cfg.Adapt.Policy.Enabled() || cfg.Adapt.Policy.Spec() != man.Adapt {
		t.Fatalf("adapt policy %q, manifest %q", cfg.Adapt.Policy.Spec(), man.Adapt)
	}
	for _, bad := range []store.Manifest{
		{Scenario: "S2", Mode: "turbo"},
		{Scenario: "S2", Mode: "balb", Adapt: "slo=banana"},
		{Scenario: "S2", Mode: "balb", CamFaults: "rate=banana"},
		{Scenario: "S9", Mode: "balb"},
	} {
		if _, _, err := Build(bad, 1); err == nil {
			t.Errorf("Build(%+v) must fail", bad)
		}
	}
}

func TestFaultModel(t *testing.T) {
	s := &Shared{}
	if m, err := s.FaultModel(4, 100); m != nil || err != nil {
		t.Fatalf("empty spec: %v %v", m, err)
	}
	s.CamFaults = "seed=7,rate=0.1,mean=5"
	m, err := s.FaultModel(4, 100)
	if err != nil || m == nil {
		t.Fatalf("valid spec: %v %v", m, err)
	}
	if m.NumCameras() != 4 || m.NumFrames() != 100 {
		t.Fatalf("model shape %dx%d", m.NumCameras(), m.NumFrames())
	}
	s.CamFaults = "rate=banana"
	if _, err := s.FaultModel(4, 100); err == nil {
		t.Fatal("bad spec must error")
	}
}

func TestOpenRecorderStampsFaults(t *testing.T) {
	s := &Shared{}
	if w, err := s.OpenRecorder(store.Manifest{}, nil); w != nil || err != nil {
		t.Fatalf("unset -record: %v %v", w, err)
	}

	sc, err := workload.ByName("S1", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	s = &Shared{Record: dir, CamFaults: "seed=7,rate=0.1", HealthK: 2}
	w, err := s.OpenRecorder(store.Manifest{Scenario: "S1", Seed: 1, Mode: "BALB"}, sc.World.Cameras)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := run.Manifest()
	if man.CamFaults != "seed=7,rate=0.1" || man.HealthK != 2 {
		t.Fatalf("fault flags not stamped into manifest: %+v", man)
	}
}

func TestStoreOptions(t *testing.T) {
	s := &Shared{StoreFsync: "never"}
	opts, err := s.StoreOptions()
	if err != nil || opts.Fsync != store.FsyncNever || opts.KeepSegments != 0 {
		t.Fatalf("defaults: %+v, %v", opts, err)
	}
	s = &Shared{StoreFsync: "every-record", StoreKeep: 2}
	opts, err = s.StoreOptions()
	if err != nil || opts.Fsync != store.FsyncEveryRecord || opts.KeepSegments != 2 {
		t.Fatalf("every-record: %+v, %v", opts, err)
	}
	if _, err := (&Shared{StoreFsync: "sometimes"}).StoreOptions(); err == nil {
		t.Fatal("bad -store-fsync must error")
	}
	if _, err := (&Shared{StoreFsync: "never", StoreKeep: -1}).StoreOptions(); err == nil {
		t.Fatal("negative -store-keep-segments must error")
	}
}

func TestOpenIngest(t *testing.T) {
	sc, err := workload.ByName("S1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if src, err := (&Shared{}).OpenIngest(sc.World.Cameras, 0); src != nil || err != nil {
		t.Fatalf("unset -ingest-addr: %v %v", src, err)
	}
	if _, err := (&Shared{IngestAddr: "localhost:0", ShedPolicy: "banana"}).OpenIngest(sc.World.Cameras, 0); err == nil {
		t.Fatal("bad -shed-policy must error")
	}
	s := &Shared{IngestAddr: "127.0.0.1:0", ShedPolicy: "stale"}
	src, err := s.OpenIngest(sc.World.Cameras, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if got := len(src.Cameras()); got != len(sc.World.Cameras) {
		t.Fatalf("roster: %d cameras, want %d", got, len(sc.World.Cameras))
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]pipeline.Mode{
		"full": pipeline.Full, "ind": pipeline.Independent,
		"cen": pipeline.CentralOnly, "balb": pipeline.BALB,
		"sp": pipeline.StaticPartition,
	}
	for name, want := range cases {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMode("turbo"); err == nil {
		t.Fatal("unknown mode must error")
	}
}
