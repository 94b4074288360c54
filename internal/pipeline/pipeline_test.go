package pipeline

import (
	"sync"
	"testing"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// testEnv is built once per test binary: a moderate S2 run with a trained
// association model (training KNN models is the slow part).
type testEnv struct {
	scenario *workload.Scenario
	test     *scene.Trace
	model    *assoc.Model
	profiles []*profile.Profile
}

var (
	envOnce sync.Once
	env     testEnv
)

func getEnv(t *testing.T) *testEnv {
	t.Helper()
	envOnce.Do(func() {
		s := workload.S2(11)
		test, model, _ := buildScenarioEnv(t, s, 800)
		env = testEnv{scenario: s, test: test, model: model, profiles: s.Profiles()}
	})
	if env.test == nil {
		t.Fatal("environment failed to initialize")
	}
	return &env
}

func runMode(t *testing.T, mode Mode) *Report {
	t.Helper()
	e := getEnv(t)
	rep, err := Run(e.test, e.profiles, e.model, NewConfig(mode, 5))
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	return rep
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		Full: "Full", Independent: "BALB-Ind", CentralOnly: "BALB-Cen",
		BALB: "BALB", StaticPartition: "SP",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q want %q", m, got, want)
		}
	}
	if Mode(42).String() != "mode(42)" {
		t.Error("unknown mode string")
	}
}

func TestFullModeIsUpperBound(t *testing.T) {
	rep := runMode(t, Full)
	if rep.Recall < 0.98 {
		t.Fatalf("full recall = %v", rep.Recall)
	}
	// Every frame costs exactly the slowest camera's full-frame latency.
	want := profile.TrueFullFrameLatency(profile.JetsonNano)
	if rep.MeanSlowest != want {
		t.Fatalf("slowest = %v want %v", rep.MeanSlowest, want)
	}
}

func TestBALBFasterThanIndependentFasterThanFull(t *testing.T) {
	full := runMode(t, Full)
	ind := runMode(t, Independent)
	balb := runMode(t, BALB)
	if !(balb.MeanSlowest < ind.MeanSlowest && ind.MeanSlowest < full.MeanSlowest) {
		t.Fatalf("latency ordering violated: balb=%v ind=%v full=%v",
			balb.MeanSlowest, ind.MeanSlowest, full.MeanSlowest)
	}
	// The paper's range: multiplicative speedups of at least 2x.
	if full.MeanSlowest < 2*balb.MeanSlowest {
		t.Fatalf("BALB speedup below 2x: %v vs %v", full.MeanSlowest, balb.MeanSlowest)
	}
}

func TestBALBBeatsStaticPartitioning(t *testing.T) {
	balb := runMode(t, BALB)
	sp := runMode(t, StaticPartition)
	if balb.MeanSlowest >= sp.MeanSlowest {
		t.Fatalf("BALB %v not faster than SP %v", balb.MeanSlowest, sp.MeanSlowest)
	}
	if balb.Recall < sp.Recall-0.05 {
		t.Fatalf("BALB recall %v far below SP %v", balb.Recall, sp.Recall)
	}
}

func TestRecallOrdering(t *testing.T) {
	full := runMode(t, Full)
	ind := runMode(t, Independent)
	cen := runMode(t, CentralOnly)
	balb := runMode(t, BALB)
	// Tracking-based slicing shows almost no degradation (Fig. 12):
	// BALB-Ind within a point of Full.
	if ind.Recall < full.Recall-0.02 {
		t.Fatalf("BALB-Ind recall %v below Full %v", ind.Recall, full.Recall)
	}
	// The distributed stage helps over central-only.
	if balb.Recall < cen.Recall {
		t.Fatalf("BALB recall %v below BALB-Cen %v", balb.Recall, cen.Recall)
	}
	if balb.Recall < 0.9 {
		t.Fatalf("BALB recall too low: %v", balb.Recall)
	}
}

func TestCentralOverheadReported(t *testing.T) {
	balb := runMode(t, BALB)
	if balb.CentralPerFrame <= 0 {
		t.Fatal("no central overhead recorded")
	}
	if balb.TrackingPerFrame <= 0 {
		t.Fatal("no tracking overhead recorded")
	}
	if balb.OverheadTotal() < balb.CentralPerFrame {
		t.Fatal("OverheadTotal inconsistent")
	}
	// Framework overhead must stay far below the GPU latency it saves
	// (Table II's point: ~30 ms overhead vs hundreds saved).
	if balb.OverheadTotal() > 50*time.Millisecond {
		t.Fatalf("overhead implausibly high: %v", balb.OverheadTotal())
	}
	full := runMode(t, Full)
	if full.CentralPerFrame != 0 {
		t.Fatal("Full mode has central overhead")
	}
}

func TestPerCameraMeansPopulated(t *testing.T) {
	rep := runMode(t, BALB)
	if len(rep.PerCameraMean) != 2 {
		t.Fatalf("per-camera = %v", rep.PerCameraMean)
	}
	for i, m := range rep.PerCameraMean {
		if m <= 0 {
			t.Fatalf("camera %d mean %v", i, m)
		}
	}
}

func TestHorizonOneIsAllKeyFrames(t *testing.T) {
	e := getEnv(t)
	rep, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB, Horizon: 1}, Sim: Sim{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Every frame is a key frame: latency equals full-frame cost on the
	// slowest camera.
	want := profile.TrueFullFrameLatency(profile.JetsonNano)
	if rep.MeanSlowest != want {
		t.Fatalf("slowest = %v want %v", rep.MeanSlowest, want)
	}
	if rep.Recall < 0.95 {
		t.Fatalf("recall = %v", rep.Recall)
	}
}

func TestLongerHorizonIsFasterButLowerRecall(t *testing.T) {
	e := getEnv(t)
	short, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB, Horizon: 2}, Sim: Sim{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Run(e.test, e.profiles, e.model, Config{Sched: Sched{Mode: BALB, Horizon: 40}, Sim: Sim{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if long.MeanSlowest >= short.MeanSlowest {
		t.Fatalf("long horizon %v not faster than short %v", long.MeanSlowest, short.MeanSlowest)
	}
	if long.Recall > short.Recall+0.01 {
		t.Fatalf("long horizon recall %v above short %v", long.Recall, short.Recall)
	}
}

func TestRunValidation(t *testing.T) {
	e := getEnv(t)
	empty := &scene.Trace{FPS: 10, Cameras: e.test.Cameras}
	if _, err := Run(empty, e.profiles, e.model, Config{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := Run(e.test, e.profiles[:1], e.model, Config{}); err == nil {
		t.Fatal("profile count mismatch accepted")
	}
	if _, err := Run(e.test, e.profiles, nil, Config{Sched: Sched{Mode: BALB}}); err == nil {
		t.Fatal("BALB without model accepted")
	}
	if _, err := Run(e.test, e.profiles, nil, Config{Sched: Sched{Mode: Full}}); err != nil {
		t.Fatalf("Full without model rejected: %v", err)
	}
	// Model/camera-count mismatch.
	s3 := workload.S3(1)
	tr3, err := s3.World.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := assoc.Train(tr3, assoc.Factories{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e.test, e.profiles, m3, Config{Sched: Sched{Mode: BALB}}); err == nil {
		t.Fatal("camera-count mismatch accepted")
	}
}

func TestTailLatencyReported(t *testing.T) {
	rep := runMode(t, BALB)
	if rep.MaxSlowest <= 0 || rep.P95Slowest <= 0 {
		t.Fatalf("tail stats missing: p95=%v max=%v", rep.P95Slowest, rep.MaxSlowest)
	}
	if rep.P95Slowest > rep.MaxSlowest {
		t.Fatalf("p95 %v above max %v", rep.P95Slowest, rep.MaxSlowest)
	}
	// The per-horizon key frame is the tail: max must be at least the
	// slowest camera's full-frame time.
	if rep.MaxSlowest < profile.TrueFullFrameLatency(profile.JetsonNano) {
		t.Fatalf("max %v below a key frame's cost", rep.MaxSlowest)
	}
}

func TestModeledProjection(t *testing.T) {
	rep := runMode(t, BALB)
	m := rep.Modeled()
	if m.CentralPerFrame != 0 || m.TrackingPerFrame != 0 ||
		m.DistributedPerFrame != 0 || m.BatchingPerFrame != 0 {
		t.Fatalf("measured fields survived the projection: %+v", m)
	}
	if m.Recall != rep.Recall || m.TP != rep.TP || m.FN != rep.FN ||
		m.MeanSlowest != rep.MeanSlowest || m.P95Slowest != rep.P95Slowest ||
		m.MaxSlowest != rep.MaxSlowest {
		t.Fatalf("modelled fields altered: %+v vs %+v", m, rep)
	}
	if len(m.PerCameraMean) != len(rep.PerCameraMean) {
		t.Fatal("per-camera means dropped")
	}
	// The projection must be a copy: mutating it cannot touch the
	// original report.
	if len(m.PerCameraMean) > 0 {
		m.PerCameraMean[0]++
		if m.PerCameraMean[0] == rep.PerCameraMean[0] {
			t.Fatal("PerCameraMean aliases the original report")
		}
	}
}
