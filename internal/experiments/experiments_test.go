package experiments

import (
	"reflect"
	"sync"
	"testing"

	"mvs/internal/metrics"
	"mvs/internal/pipeline"
)

var (
	s2Once sync.Once
	s2     *Setup
	s2Err  error
)

func setupS2(t *testing.T) *Setup {
	t.Helper()
	s2Once.Do(func() {
		s2, s2Err = Prepare("S2", 13, 600, 0)
	})
	if s2Err != nil {
		t.Fatal(s2Err)
	}
	return s2
}

func TestPrepareSplitsTrace(t *testing.T) {
	s := setupS2(t)
	if len(s.Train.Frames) != 300 || len(s.Test.Frames) != 300 {
		t.Fatalf("split = %d/%d", len(s.Train.Frames), len(s.Test.Frames))
	}
	if s.Model == nil || s.Model.NumCameras() != 2 {
		t.Fatal("model not trained")
	}
	if s.Scenario.Name != "S2" {
		t.Fatalf("scenario = %s", s.Scenario.Name)
	}
}

func TestPrepareRejectsUnknown(t *testing.T) {
	if _, err := Prepare("S9", 1, 100, 0); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestFig2Shape(t *testing.T) {
	s := setupS2(t)
	res := Fig2(s)
	if len(res.Counts) != 2 || len(res.CameraNames) != 2 {
		t.Fatalf("cams = %d/%d", len(res.Counts), len(res.CameraNames))
	}
	// 300 test frames at 10 FPS sampled every 2 s -> 15 samples.
	if len(res.Counts[0]) != 15 {
		t.Fatalf("samples = %d", len(res.Counts[0]))
	}
	if res.SampleEverySec != 2 {
		t.Fatalf("interval = %v", res.SampleEverySec)
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	rows := TableI(1)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[string]int{"S1": 5, "S2": 2, "S3": 3}
	for _, r := range rows {
		if len(r.Devices) != want[r.Scenario] {
			t.Errorf("%s has %d devices, want %d", r.Scenario, len(r.Devices), want[r.Scenario])
		}
	}
}

func TestFig10AllModelsReported(t *testing.T) {
	s := setupS2(t)
	rows, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]ClassifierResult)
	for _, r := range rows {
		seen[r.Model] = r
		if r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			t.Errorf("%s out of range: %+v", r.Model, r)
		}
	}
	for _, m := range []string{"knn", "svm", "logistic", "tree"} {
		if _, ok := seen[m]; !ok {
			t.Errorf("model %s missing", m)
		}
	}
	// The paper's key claim: KNN precision at or near the top.
	knn := seen["knn"].Precision
	for name, r := range seen {
		if r.Precision > knn+0.05 {
			t.Errorf("%s precision %.3f clearly above knn %.3f", name, r.Precision, knn)
		}
	}
}

func TestFig11HomographyWorst(t *testing.T) {
	s := setupS2(t)
	rows, err := Fig11(s)
	if err != nil {
		t.Fatal(err)
	}
	maes := make(map[string]float64)
	for _, r := range rows {
		if r.MAE <= 0 {
			t.Errorf("%s MAE %v", r.Model, r.MAE)
		}
		maes[r.Model] = r.MAE
	}
	if maes["knn"] >= maes["homography"] {
		t.Errorf("knn %.1f not below homography %.1f", maes["knn"], maes["homography"])
	}
	if maes["knn"] >= maes["linear"] {
		t.Errorf("knn %.1f not below linear %.1f", maes["knn"], maes["linear"])
	}
}

func TestRunModesCoversAll(t *testing.T) {
	s := setupS2(t)
	reports, err := RunModes(s, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	full := reports[pipeline.Full]
	balb := reports[pipeline.BALB]
	if balb.MeanSlowest >= full.MeanSlowest {
		t.Fatalf("BALB %v not faster than Full %v", balb.MeanSlowest, full.MeanSlowest)
	}
}

// TestRunModesDeterministic asserts the harness-level determinism
// contract: the concurrent mode fan-out produces modelled reports
// bit-identical to the fully sequential harness. Run under -race this
// also exercises concurrent pipeline runs over one shared Setup.
func TestRunModesDeterministic(t *testing.T) {
	s := setupS2(t)
	seq, err := RunModes(s, 10, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunModes(s, 10, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("reports = %d vs %d", len(par), len(seq))
	}
	for mode, a := range seq {
		b, ok := par[mode]
		if !ok {
			t.Fatalf("mode %v missing from parallel reports", mode)
		}
		if !reflect.DeepEqual(a.Modeled(), b.Modeled()) {
			t.Errorf("mode %v diverged:\nseq: %+v\npar: %+v", mode, a.Modeled(), b.Modeled())
		}
	}
}

// TestFig14Deterministic checks the sweep-point fan-out keeps
// point order and values.
func TestFig14Deterministic(t *testing.T) {
	s := setupS2(t)
	seq, err := Fig14(s, []int{2, 10, 20}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig14(s, []int{2, 10, 20}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("horizon sweep diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestFig14Monotonicity(t *testing.T) {
	s := setupS2(t)
	points, err := Fig14(s, []int{2, 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].MeanSlowest >= points[0].MeanSlowest {
		t.Fatalf("latency did not fall with T: %v -> %v", points[0].MeanSlowest, points[1].MeanSlowest)
	}
	if points[1].CenRecall > points[0].CenRecall+0.01 {
		t.Fatalf("central-only recall rose with T: %v -> %v", points[0].CenRecall, points[1].CenRecall)
	}
}

func TestTableIIOverheadSmall(t *testing.T) {
	// Table II is the overhead breakdown of a BALB run's report.
	s := setupS2(t)
	rep, err := pipeline.Run(s.Test, s.Scenario.Profiles(), s.Model, pipeline.NewConfig(pipeline.BALB, s.Seed))
	if err != nil {
		t.Fatal(err)
	}
	total := rep.OverheadTotal()
	if total != rep.CentralPerFrame+rep.TrackingPerFrame+rep.DistributedPerFrame+rep.BatchingPerFrame {
		t.Fatal("total inconsistent")
	}
	// Framework overhead must be a tiny fraction of a 100 ms frame
	// budget.
	if total.Milliseconds() > 50 {
		t.Fatalf("overhead = %v", total)
	}
}

// TestRunModesSinkLabels checks the observability wiring of the
// experiments fan-out: one shared sink receives every run's per-frame
// snapshots, tagged with a per-mode label so concurrent streams stay
// distinguishable.
func TestRunModesSinkLabels(t *testing.T) {
	s := setupS2(t)
	frames := len(s.Test.Frames)
	sink := metrics.NewChannelSink(1, 5*frames+1)
	if _, err := RunModes(s, 10, Options{Workers: 4, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	if sink.Dropped() != 0 {
		t.Fatalf("dropped %d snapshots with a full-size buffer", sink.Dropped())
	}
	perLabel := make(map[string]int)
	for snap := range sink.Snapshots() {
		if snap.Source != metrics.SourcePipeline {
			t.Fatalf("source = %q", snap.Source)
		}
		perLabel[snap.Label]++
	}
	if len(perLabel) != len(Modes()) {
		t.Fatalf("labels = %v, want one per mode", perLabel)
	}
	for _, mode := range Modes() {
		label := "modes/" + mode.String()
		if perLabel[label] != frames {
			t.Fatalf("label %q got %d snapshots, want %d", label, perLabel[label], frames)
		}
	}
}

// TestShardSweepSmall runs the shard-count sweep on a small corridor and
// checks its structural invariants: the global point leads, shard counts
// grow as the max-shard bound falls, and sharding does not collapse
// recall.
func TestShardSweepSmall(t *testing.T) {
	points, err := ShardSweep(8, 7, 240, []int{4, 2}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	if points[0].MaxShard != 0 || points[0].Shards != 1 {
		t.Fatalf("global point = %+v", points[0])
	}
	for i, p := range points {
		if p.CentralPerFrame <= 0 {
			t.Fatalf("point %d: central cost %v", i, p.CentralPerFrame)
		}
		if p.Recall < 0.5 {
			t.Fatalf("point %d (max=%d): recall %v", i, p.MaxShard, p.Recall)
		}
	}
	if points[1].Shards < 2 || points[2].Shards < points[1].Shards {
		t.Fatalf("shard counts %d, %d do not grow as max falls", points[1].Shards, points[2].Shards)
	}
	if diff := points[0].Recall - points[2].Recall; diff > 0.1 {
		t.Fatalf("sharding cost %.3f recall", diff)
	}
}
