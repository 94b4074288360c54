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

// study returns the registered study of that name.
func study(t *testing.T, name string) *Study {
	t.Helper()
	for _, st := range Studies() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("no study %q", name)
	return nil
}

// runOn runs the named study on the prepared S2 setup and returns the
// harness, whose finished arms the test reads by label, and the rows.
func runOn(t *testing.T, name string, opts Options) (*Harness, [][]any) {
	t.Helper()
	s := setupS2(t)
	h := on(s, opts)
	rows, err := h.Run(study(t, name), s.Scenario.Name)
	if err != nil {
		t.Fatal(err)
	}
	return h, rows
}

// report is the finished arm's report under label.
func (h *Harness) report(t *testing.T, label string) *pipeline.Report {
	t.Helper()
	o, ok := h.runs[label]
	if !ok || o.rep == nil {
		t.Fatalf("no report labelled %q", label)
	}
	return o.rep
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
	st := study(t, "table1")
	scenarios := st.ScenariosFor("all")
	if len(scenarios) != 3 {
		t.Fatalf("scenarios = %v", scenarios)
	}
	want := map[string]int{"S1": 5, "S2": 2, "S3": 3}
	h := &Harness{Seed: 1}
	for _, name := range scenarios {
		rows, err := h.Run(st, name)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want[name] {
			t.Errorf("%s has %d devices, want %d", name, len(rows), want[name])
		}
	}
}

func TestFig10AllModelsReported(t *testing.T) {
	_, rows := runOn(t, "fig10", Options{})
	precision := make(map[string]float64)
	for _, r := range rows {
		model, p, rec := r[1].(string), r[2].(float64), r[3].(float64)
		precision[model] = p
		if p < 0 || p > 1 || rec < 0 || rec > 1 {
			t.Errorf("%s out of range: %v", model, r)
		}
	}
	for _, m := range []string{"knn", "svm", "logistic", "tree"} {
		if _, ok := precision[m]; !ok {
			t.Errorf("model %s missing", m)
		}
	}
	// The paper's key claim: KNN precision at or near the top.
	knn := precision["knn"]
	for name, p := range precision {
		if p > knn+0.05 {
			t.Errorf("%s precision %.3f clearly above knn %.3f", name, p, knn)
		}
	}
}

func TestFig11HomographyWorst(t *testing.T) {
	_, rows := runOn(t, "fig11", Options{})
	maes := make(map[string]float64)
	for _, r := range rows {
		model, mae := r[1].(string), r[2].(float64)
		if mae <= 0 {
			t.Errorf("%s MAE %v", model, mae)
		}
		maes[model] = mae
	}
	if maes["knn"] >= maes["homography"] {
		t.Errorf("knn %.1f not below homography %.1f", maes["knn"], maes["homography"])
	}
	if maes["knn"] >= maes["linear"] {
		t.Errorf("knn %.1f not below linear %.1f", maes["knn"], maes["linear"])
	}
}

func TestRunModesCoversAll(t *testing.T) {
	h, _ := runOn(t, "fig12", Options{})
	if len(h.runs) != 5 {
		t.Fatalf("reports = %d", len(h.runs))
	}
	full := h.report(t, "modes/Full")
	balb := h.report(t, "modes/BALB")
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
	seq, err := RunModes(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunModes(s, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("reports = %d vs %d", len(par), len(seq))
	}
	for i, mode := range Modes() {
		a, b := seq[i], par[i]
		if a.Mode != mode || b.Mode != mode {
			t.Fatalf("report %d is %v/%v, want %v", i, a.Mode, b.Mode, mode)
		}
		if !reflect.DeepEqual(a.Modeled(), b.Modeled()) {
			t.Errorf("mode %v diverged:\nseq: %+v\npar: %+v", mode, a.Modeled(), b.Modeled())
		}
	}
}

// TestFig14Deterministic checks the sweep-point fan-out keeps
// point order and values.
func TestFig14Deterministic(t *testing.T) {
	_, seq := runOn(t, "fig14", Options{Workers: 1})
	_, par := runOn(t, "fig14", Options{Workers: 3})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("horizon sweep diverged:\nseq: %v\npar: %v", seq, par)
	}
}

func TestFig14Monotonicity(t *testing.T) {
	h, rows := runOn(t, "fig14", Options{})
	if len(rows) != len(fig14Horizons) {
		t.Fatalf("points = %d", len(rows))
	}
	short, long := h.report(t, "fig14/T=2"), h.report(t, "fig14/T=20")
	if long.MeanSlowest >= short.MeanSlowest {
		t.Fatalf("latency did not fall with T: %v -> %v", short.MeanSlowest, long.MeanSlowest)
	}
	shortCen, longCen := h.report(t, "fig14/T=2/cen"), h.report(t, "fig14/T=20/cen")
	if longCen.Recall > shortCen.Recall+0.01 {
		t.Fatalf("central-only recall rose with T: %v -> %v", shortCen.Recall, longCen.Recall)
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
	if _, err := RunModes(s, Options{Workers: 4, Sink: sink}); err != nil {
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
	st := shardStudy(8)
	h := &Harness{Seed: 7, Frames: 240, Opts: Options{Workers: 2}}
	rows, err := h.Run(st, st.ScenariosFor("S1")[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(shardMax) {
		t.Fatalf("points = %d, want %d", len(rows), 1+len(shardMax))
	}
	if rows[0][0] != 0 || rows[0][1] != 1 {
		t.Fatalf("global point = %v", rows[0])
	}
	labels := []string{"shard/global", "shard/max=16", "shard/max=8", "shard/max=4"}
	for i, label := range labels {
		rep := h.report(t, label)
		if rep.CentralPerFrame <= 0 {
			t.Fatalf("%s: central cost %v", label, rep.CentralPerFrame)
		}
		if rep.Recall < 0.5 {
			t.Fatalf("%s: recall %v", label, rep.Recall)
		}
		if i > 1 && rows[i][1].(int) < rows[i-1][1].(int) {
			t.Fatalf("shard counts %v, %v do not grow as max falls", rows[i-1][1], rows[i][1])
		}
	}
	if last := rows[len(rows)-1][1].(int); last < 2 {
		t.Fatalf("max=4 left %d shards", last)
	}
	if diff := h.report(t, "shard/global").Recall - h.report(t, "shard/max=4").Recall; diff > 0.1 {
		t.Fatalf("sharding cost %.3f recall", diff)
	}
}

// TestAblationExpect holds the ablation study's rows to its Expect
// sentence: BALB at the optimum on every small instance, busy time more
// than 10x without batching, BALB's Nano below SP's and BALB-Ind's, and
// every shared object on the Xavier.
func TestAblationExpect(t *testing.T) {
	st := study(t, "ablation")
	rows, err := (&Harness{}).Run(st, st.ScenariosFor("all")[0])
	if err != nil {
		t.Fatal(err)
	}
	cell := map[[3]string]float64{}
	for _, r := range rows {
		var v float64
		switch x := r[3].(type) {
		case float64:
			v = x
		case int64:
			v = float64(x)
		case int:
			v = float64(x)
		default:
			t.Fatalf("row %v: value of type %T", r, x)
		}
		cell[[3]string{r[0].(string), r[1].(string), r[2].(string)}] = v
	}
	get := func(ablation, arm, metric string) float64 {
		t.Helper()
		v, ok := cell[[3]string{ablation, arm, metric}]
		if !ok {
			t.Fatalf("no row %s/%s/%s in %v", ablation, arm, metric, rows)
		}
		return v
	}
	if worst := get("optimality", "BALB", "worst_over_optimum"); worst != 1 {
		t.Errorf("worst BALB-to-optimum ratio = %.4f, want 1.000", worst)
	}
	if busy := get("batching", "BALB-no-batching", "busy_time_x"); busy <= 10 {
		t.Errorf("busy-time inflation without batching = %.2fx, want above 10x", busy)
	}
	nano := get("heterogeneity", "BALB", "nano_ms")
	for _, arm := range []string{"SP", "BALB-Ind"} {
		if other := get("heterogeneity", arm, "nano_ms"); nano >= other {
			t.Errorf("BALB's Nano %v ms is not below %s's %v ms", nano, arm, other)
		}
	}
	onXavier := get("heterogeneity", "BALB", "shared_on_xavier")
	if elsewhere := get("heterogeneity", "BALB", "shared_on_nano") + get("heterogeneity", "BALB", "shared_on_tx2"); onXavier == 0 || elsewhere != 0 {
		t.Errorf("shared objects: %v on the Xavier, %v elsewhere; want all on the Xavier", onXavier, elsewhere)
	}
}
