// Package experiments reproduces every table and figure of the paper's
// evaluation section on the simulated testbed. Each experiment is a pure
// function from a prepared Setup to structured results; the mvexp command
// prints them, and is the one place a figure is regenerated.
//
// # Execution model
//
// A prepared Setup is read-only, so independent experiment points —
// the five scheduling modes of RunModes, the horizon points of Fig14,
// the rate-scale points of ArrivalSweep — run concurrently on the
// shared internal/pool worker pool. Every experiment takes an Options
// struct whose Workers knob (0 = GOMAXPROCS, 1 = fully sequential)
// bounds the outer point-level fan-out and, via
// pipeline.Config.Sched.Workers, each pipeline run's per-pair
// association and per-cell coverage fan-outs; points
// that retrain an association model (ArrivalSweep) reuse the bound for
// assoc.Factories.Workers too. Results are assembled positionally, and
// the pipeline's determinism contract (docs/CONCURRENCY.md) guarantees
// the numbers are identical for every Workers value — and for every
// Sink, which observes runs without influencing them
// (docs/OBSERVABILITY.md).
//
// # Experiment index
//
// See DESIGN.md for the full mapping:
//
//	Fig2    — temporal variation of per-camera object workload
//	TableI  — hardware configuration per scenario
//	Fig10   — association classifier comparison (precision/recall)
//	Fig11   — association regressor comparison (MAE)
//	Fig12   — object recall per scheduling algorithm
//	Fig13   — per-frame inference latency per scheduling algorithm
//	Fig14   — scheduling-horizon length sweep
//	TableII — per-frame framework overhead breakdown (read off RunModes' BALB report)
package experiments

import (
	"fmt"
	"sort"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/camfault"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/ml"
	"mvs/internal/pipeline"
	"mvs/internal/pool"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/shard"
	"mvs/internal/workload"
)

// Setup is a prepared scenario: the generated trace split into the
// training half (association models) and the evaluation half, as in the
// paper ("we use half length of the video to train the cross-camera
// object association model ... and use the remaining half for testing").
type Setup struct {
	// Scenario is the deployment under test.
	Scenario *workload.Scenario
	// Train is the first half of the trace.
	Train *scene.Trace
	// Test is the second half, used by all experiments.
	Test *scene.Trace
	// Model is the deployed (KNN) association model trained on Train.
	Model *assoc.Model
	// Seed is carried into pipeline runs.
	Seed int64
}

// Generate regenerates the scenario world and splits its trace into the
// training and evaluation halves, without training a model. It is the
// one step a scheduler, its camera nodes and a frame sender must agree
// on: all three derive the same halves from (name, seed, frames).
// frames <= 0 defaults to 1200 (two minutes at 10 FPS).
func Generate(name string, seed int64, frames int) (*Setup, error) {
	if frames <= 0 {
		frames = 1200
	}
	s, err := workload.ByName(name, seed)
	if err != nil {
		return nil, err
	}
	trace, err := s.World.Run(frames)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	train, test := trace.SplitTrain()
	return &Setup{Scenario: s, Train: train, Test: test, Seed: seed}, nil
}

// Prepare is Generate plus the deployed association model, trained on
// the training half with at most workers goroutines (0 = GOMAXPROCS; the
// model is identical at every value).
func Prepare(name string, seed int64, frames, workers int) (*Setup, error) {
	s, err := Generate(name, seed, frames)
	if err != nil {
		return nil, err
	}
	s.Model, err = assoc.Train(s.Train, assoc.Factories{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s association training: %w", name, err)
	}
	return s, nil
}

// Options bounds an experiment's execution and attaches observability
// without changing its results (the pipeline's determinism contract
// covers both knobs).
type Options struct {
	// Workers bounds the point-level fan-out and, through it, each
	// pipeline run's per-pair association and per-cell coverage fan-outs
	// and (for experiments that retrain, like ArrivalSweep) the per-pair
	// training fan-out: 0 means GOMAXPROCS, 1 fully sequential.
	Workers int
	// Sink, when non-nil, receives every pipeline run's per-frame
	// snapshots. Runs are labelled per experiment point (for example
	// "modes/BALB" or "fig14/T=20") so one sink can serve concurrent
	// runs; the bundled sinks are all safe for concurrent RecordFrame.
	// Experiments never Flush the sink — its lifecycle belongs to the
	// caller.
	Sink metrics.Sink
	// Rounds, when non-nil, receives every RunModes run's scheduling-round
	// decisions (pipeline.Config.Obs.Rounds) — the stream mvexp -record
	// persists. Like Sink, its lifecycle belongs to the caller.
	Rounds metrics.RoundSink
	// CamFaults, when non-empty, is a camfault spec (docs/FAULTS.md)
	// applied to every RunModes run: all modes share the identical
	// outage schedule, so Figs. 12/13 and Table II compare the
	// algorithms under the same incident. HealthK arms failover for
	// those runs (0 = no failover, the ablation).
	CamFaults string
	HealthK   int
}

// Fig2Result is the per-camera object-count time series.
type Fig2Result struct {
	// CameraNames labels the series.
	CameraNames []string
	// SampleEverySec is the sampling interval (the paper samples once
	// every 2 seconds).
	SampleEverySec float64
	// Counts[c][k] is camera c's visible-object count at sample k.
	Counts [][]int
}

// Fig2 reproduces the workload-variation plot: per-camera object counts
// sampled every two seconds.
func Fig2(s *Setup) *Fig2Result {
	every := int(2 * s.Test.FPS)
	res := &Fig2Result{SampleEverySec: 2, Counts: s.Test.ObjectCounts(every)}
	for _, c := range s.Test.Cameras {
		res.CameraNames = append(res.CameraNames, c.Name)
	}
	return res
}

// TableIRow describes one scenario's hardware roster.
type TableIRow struct {
	Scenario string
	Devices  []profile.DeviceClass
}

// TableI reproduces the hardware-configuration table.
func TableI(seed int64) []TableIRow {
	rows := make([]TableIRow, 0, 3)
	for _, s := range workload.All(seed) {
		rows = append(rows, TableIRow{Scenario: s.Name, Devices: s.Devices})
	}
	return rows
}

// ClassifierResult is one model's micro-averaged precision/recall over
// all ordered camera pairs of a scenario.
type ClassifierResult struct {
	Model     string
	Precision float64
	Recall    float64
}

// classifierFactories lists the Fig. 10 contenders.
func classifierFactories() map[string]func() ml.Classifier {
	return map[string]func() ml.Classifier{
		"knn":      func() ml.Classifier { return &ml.KNNClassifier{K: 5} },
		"svm":      func() ml.Classifier { return &ml.SVMClassifier{} },
		"logistic": func() ml.Classifier { return &ml.LogisticClassifier{} },
		"tree":     func() ml.Classifier { return &ml.TreeClassifier{} },
	}
}

// Fig10 reproduces the classification-module comparison: every model is
// trained per ordered camera pair on the training half and evaluated on
// the test half; true/false positives are micro-averaged across pairs.
func Fig10(s *Setup) ([]ClassifierResult, error) {
	numCams := len(s.Test.Cameras)
	type agg struct{ tp, fp, fn, tn int }
	totals := make(map[string]*agg)
	for name := range classifierFactories() {
		totals[name] = &agg{}
	}

	for src := 0; src < numCams; src++ {
		for dst := 0; dst < numCams; dst++ {
			if src == dst {
				continue
			}
			trainS, err := assoc.BuildPairSamples(s.Train, src, dst)
			if err != nil {
				return nil, err
			}
			testS, err := assoc.BuildPairSamples(s.Test, src, dst)
			if err != nil {
				return nil, err
			}
			if len(trainS) == 0 || len(testS) == 0 {
				continue
			}
			trainX, trainY := assoc.ClassificationData(trainS)
			testX, testY := assoc.ClassificationData(testS)
			for name, factory := range classifierFactories() {
				clf := factory()
				if err := clf.Fit(trainX, trainY); err != nil {
					return nil, fmt.Errorf("experiments: fig10 %s pair (%d,%d): %w", name, src, dst, err)
				}
				m, err := ml.EvaluateClassifier(clf, testX, testY)
				if err != nil {
					return nil, err
				}
				t := totals[name]
				t.tp += m.TP
				t.fp += m.FP
				t.fn += m.FN
				t.tn += m.TN
			}
		}
	}

	var out []ClassifierResult
	for name, t := range totals {
		r := ClassifierResult{Model: name}
		if t.tp+t.fp > 0 {
			r.Precision = float64(t.tp) / float64(t.tp+t.fp)
		}
		if t.tp+t.fn > 0 {
			r.Recall = float64(t.tp) / float64(t.tp+t.fn)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out, nil
}

// RegressorResult is one model's mean absolute error over all ordered
// camera pairs (pixels).
type RegressorResult struct {
	Model string
	MAE   float64
}

func regressorFactories() map[string]func() ml.Regressor {
	return map[string]func() ml.Regressor{
		"knn":        func() ml.Regressor { return &ml.KNNRegressor{K: 5} },
		"linear":     func() ml.Regressor { return &ml.LinearRegressor{} },
		"ransac":     func() ml.Regressor { return &ml.RANSACRegressor{Seed: 1} },
		"homography": func() ml.Regressor { return &ml.HomographyRegressor{} },
	}
}

// Fig11 reproduces the regression-module comparison: each model is
// trained on the co-visible pairs of the training half and scored by MAE
// on the test half, sample-weighted across camera pairs.
func Fig11(s *Setup) ([]RegressorResult, error) {
	numCams := len(s.Test.Cameras)
	sums := make(map[string]float64)
	counts := make(map[string]int)

	for src := 0; src < numCams; src++ {
		for dst := 0; dst < numCams; dst++ {
			if src == dst {
				continue
			}
			trainS, err := assoc.BuildPairSamples(s.Train, src, dst)
			if err != nil {
				return nil, err
			}
			testS, err := assoc.BuildPairSamples(s.Test, src, dst)
			if err != nil {
				return nil, err
			}
			trainX, trainY := assoc.RegressionData(trainS)
			testX, testY := assoc.RegressionData(testS)
			if len(trainX) < 8 || len(testX) == 0 {
				continue // too few co-visible cases for a fair comparison
			}
			for name, factory := range regressorFactories() {
				reg := factory()
				if err := reg.Fit(trainX, trainY); err != nil {
					return nil, fmt.Errorf("experiments: fig11 %s pair (%d,%d): %w", name, src, dst, err)
				}
				mae, err := ml.EvaluateRegressor(reg, testX, testY)
				if err != nil {
					return nil, err
				}
				sums[name] += mae * float64(len(testX))
				counts[name] += len(testX)
			}
		}
	}

	var out []RegressorResult
	for name, sum := range sums {
		out = append(out, RegressorResult{Model: name, MAE: sum / float64(counts[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out, nil
}

// Modes lists the scheduling algorithms of Figs. 12 and 13, in the
// paper's presentation order.
func Modes() []pipeline.Mode {
	return []pipeline.Mode{
		pipeline.Full, pipeline.Independent, pipeline.CentralOnly,
		pipeline.BALB, pipeline.StaticPartition,
	}
}

// RunModes executes the pipeline once per scheduling algorithm and
// returns the reports keyed by mode. Figs. 12 and 13 and Table II all
// read from these. The five modes run on at most opts.Workers
// goroutines, and each pipeline run reuses the same bound for its
// association fan-out; Options{} reproduces the default (GOMAXPROCS)
// harness, Options{Workers: 1} the fully sequential one. Snapshots are
// labelled "modes/<mode>".
func RunModes(s *Setup, horizon int, opts Options) (map[pipeline.Mode]*pipeline.Report, error) {
	var faults *camfault.Model
	if opts.CamFaults != "" {
		fcfg, err := camfault.ParseSpec(opts.CamFaults)
		if err != nil {
			return nil, err
		}
		faults, err = camfault.Generate(fcfg, len(s.Test.Cameras), len(s.Test.Frames))
		if err != nil {
			return nil, err
		}
	}
	modes := Modes()
	reports := make([]*pipeline.Report, len(modes))
	err := pool.Do(opts.Workers, len(modes), func(i int) error {
		rep, err := pipeline.Run(s.Test, s.Scenario.Profiles(), s.Model, pipeline.Config{
			Sched: pipeline.Sched{Mode: modes[i], Horizon: horizon, Workers: opts.Workers},
			Sim:   pipeline.Sim{Seed: s.Seed},
			Fault: pipeline.Fault{CamFaults: faults, HealthK: opts.HealthK},
			Obs:   pipeline.Obs{Sink: opts.Sink, Rounds: opts.Rounds, Label: "modes/" + modes[i].String()},
		})
		if err != nil {
			return fmt.Errorf("experiments: mode %v: %w", modes[i], err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[pipeline.Mode]*pipeline.Report, len(modes))
	for i, mode := range modes {
		out[mode] = reports[i]
	}
	return out, nil
}

// HorizonPoint is one point of the Fig. 14 sweep.
type HorizonPoint struct {
	// Horizon is T, the frames per scheduling horizon.
	Horizon int
	// Recall is BALB's attained object recall.
	Recall float64
	// MeanSlowest is BALB's Fig. 13 latency metric at this horizon.
	MeanSlowest time.Duration
	// CenRecall is BALB-Cen's recall at the same horizon — the ablation
	// that shows how strongly recall couples to T without the
	// distributed stage.
	CenRecall float64
}

// Fig14 sweeps the scheduling-horizon length for the full BALB algorithm
// (and the central-only ablation). horizons nil defaults to the
// paper-style sweep {2, 5, 10, 20, 30, 50}. opts.Workers bounds the
// point-level fan-out (and, through it, the association fan-out of each
// run). Snapshots are labelled "fig14/T=<h>" (BALB) and
// "fig14/T=<h>/cen" (the ablation).
func Fig14(s *Setup, horizons []int, opts Options) ([]HorizonPoint, error) {
	if len(horizons) == 0 {
		horizons = []int{2, 5, 10, 20, 30, 50}
	}
	out := make([]HorizonPoint, len(horizons))
	err := pool.Do(opts.Workers, len(horizons), func(i int) error {
		h := horizons[i]
		rep, err := pipeline.Run(s.Test, s.Scenario.Profiles(), s.Model, pipeline.Config{
			Sched: pipeline.Sched{Mode: pipeline.BALB, Horizon: h, Workers: opts.Workers},
			Sim:   pipeline.Sim{Seed: s.Seed},
			Obs:   pipeline.Obs{Sink: opts.Sink, Label: fmt.Sprintf("fig14/T=%d", h)},
		})
		if err != nil {
			return fmt.Errorf("experiments: horizon %d: %w", h, err)
		}
		cen, err := pipeline.Run(s.Test, s.Scenario.Profiles(), s.Model, pipeline.Config{
			Sched: pipeline.Sched{Mode: pipeline.CentralOnly, Horizon: h, Workers: opts.Workers},
			Sim:   pipeline.Sim{Seed: s.Seed},
			Obs:   pipeline.Obs{Sink: opts.Sink, Label: fmt.Sprintf("fig14/T=%d/cen", h)},
		})
		if err != nil {
			return fmt.Errorf("experiments: horizon %d (central-only): %w", h, err)
		}
		out[i] = HorizonPoint{
			Horizon: h, Recall: rep.Recall, MeanSlowest: rep.MeanSlowest,
			CenRecall: cen.Recall,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ArrivalPoint is one point of the arrival-rate ablation sweep: how much
// the distributed stage matters as object churn grows.
type ArrivalPoint struct {
	// RateScale multiplies the scenario's nominal arrival rates.
	RateScale float64
	// BALBRecall and CenRecall are the recalls with and without the
	// distributed stage.
	BALBRecall float64
	CenRecall  float64
	// BALBLatency is the Fig. 13 latency metric for full BALB.
	BALBLatency time.Duration
}

// ArrivalSweep regenerates the scenario at several arrival-rate scales
// and compares BALB with BALB-Cen: the distributed stage's recall
// contribution should grow with churn (DESIGN.md's ablation index). It
// rebuilds the world per point, so it is the most expensive experiment
// — and the one that profits most from the concurrent points (each one
// regenerates a trace and trains an association model from scratch).
// opts.Workers bounds the point-level fan-out. Snapshots are labelled
// "sweep/x<scale>" (BALB) and "sweep/x<scale>/cen" (the ablation).
func ArrivalSweep(name string, seed int64, frames int, scales []float64, opts Options) ([]ArrivalPoint, error) {
	if len(scales) == 0 {
		scales = []float64{0.5, 1, 2}
	}
	if frames <= 0 {
		frames = 800
	}
	out := make([]ArrivalPoint, len(scales))
	err := pool.Do(opts.Workers, len(scales), func(i int) error {
		scale := scales[i]
		s, err := workload.ByName(name, seed)
		if err != nil {
			return err
		}
		for ri := range s.World.Routes {
			r := &s.World.Routes[ri]
			switch a := r.Arrivals.(type) {
			case scene.Poisson:
				r.Arrivals = scene.Poisson{RatePerSec: a.RatePerSec * scale}
			case scene.TrafficLight:
				a.RatePerSec *= scale
				r.Arrivals = a
			}
		}
		trace, err := s.World.Run(frames)
		if err != nil {
			return fmt.Errorf("experiments: arrival sweep %v: %w", scale, err)
		}
		train, test := trace.SplitTrain()
		model, err := assoc.Train(train, assoc.Factories{Workers: opts.Workers})
		if err != nil {
			return fmt.Errorf("experiments: arrival sweep %v: %w", scale, err)
		}
		balb, err := pipeline.Run(test, s.Profiles(), model, pipeline.Config{
			Sched: pipeline.Sched{Mode: pipeline.BALB, Workers: opts.Workers},
			Sim:   pipeline.Sim{Seed: seed},
			Obs:   pipeline.Obs{Sink: opts.Sink, Label: fmt.Sprintf("sweep/x%g", scale)},
		})
		if err != nil {
			return err
		}
		cen, err := pipeline.Run(test, s.Profiles(), model, pipeline.Config{
			Sched: pipeline.Sched{Mode: pipeline.CentralOnly, Workers: opts.Workers},
			Sim:   pipeline.Sim{Seed: seed},
			Obs:   pipeline.Obs{Sink: opts.Sink, Label: fmt.Sprintf("sweep/x%g/cen", scale)},
		})
		if err != nil {
			return err
		}
		out[i] = ArrivalPoint{
			RateScale:   scale,
			BALBRecall:  balb.Recall,
			CenRecall:   cen.Recall,
			BALBLatency: balb.MeanSlowest,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ShardPoint is one point of the shard-count scaling sweep.
type ShardPoint struct {
	// MaxShard is the -shard-max bound the partition was built with
	// (0 = no sharding, the global round).
	MaxShard int
	// Shards is the resulting shard count (1 for the global round).
	Shards int
	// CentralPerFrame is the measured central-stage cost (association +
	// BALB across all shards), amortized per frame — the quantity
	// docs/SCALING.md §3's cost model prices.
	CentralPerFrame time.Duration
	// Recall and MeanSlowest check the quality side: sharding must not
	// tank the scheduling quality it is accelerating.
	Recall      float64
	MeanSlowest time.Duration
}

// ShardSweep prices overlap-group sharding on a large corridor fleet:
// the same trace and association model run once globally and once per
// max-shard bound, under pipeline.Config.Sched.Shards (the in-process
// analogue of cluster.ShardedScheduler). cams <= 0 defaults to 64,
// frames <= 0 to 400, maxShards nil to {16, 8, 4}. The global point
// runs first; sweep points then run concurrently under opts.Workers.
// Snapshots are labelled "shard/global" and "shard/max=<k>".
func ShardSweep(cams int, seed int64, frames int, maxShards []int, opts Options) ([]ShardPoint, error) {
	if cams <= 0 {
		cams = 64
	}
	if frames <= 0 {
		frames = 400
	}
	if len(maxShards) == 0 {
		maxShards = []int{16, 8, 4}
	}
	s, err := workload.Corridor(cams, seed)
	if err != nil {
		return nil, err
	}
	trace, err := s.World.Run(frames)
	if err != nil {
		return nil, fmt.Errorf("experiments: shard sweep: %w", err)
	}
	train, test := trace.SplitTrain()
	model, err := assoc.Train(train, assoc.Factories{Workers: opts.Workers})
	if err != nil {
		return nil, fmt.Errorf("experiments: shard sweep training: %w", err)
	}
	rects := make([]geom.Rect, len(s.World.Cameras))
	for i, c := range s.World.Cameras {
		rects[i] = c.Frame()
	}
	adj, err := model.OverlapAdjacency(rects, 16, 9, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: shard sweep: %w", err)
	}
	g, err := shard.FromAdjacency(adj)
	if err != nil {
		return nil, fmt.Errorf("experiments: shard sweep: %w", err)
	}

	global, err := pipeline.Run(test, s.Profiles(), model, pipeline.Config{
		Sched: pipeline.Sched{Mode: pipeline.BALB, Workers: opts.Workers},
		Sim:   pipeline.Sim{Seed: seed},
		Obs:   pipeline.Obs{Sink: opts.Sink, Label: "shard/global"},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: shard sweep global: %w", err)
	}
	out := make([]ShardPoint, 1+len(maxShards))
	out[0] = ShardPoint{
		MaxShard: 0, Shards: 1,
		CentralPerFrame: global.CentralPerFrame,
		Recall:          global.Recall,
		MeanSlowest:     global.MeanSlowest,
	}
	err = pool.Do(opts.Workers, len(maxShards), func(i int) error {
		k := maxShards[i]
		m, err := shard.Partition(g, k)
		if err != nil {
			return fmt.Errorf("experiments: shard sweep max=%d: %w", k, err)
		}
		rep, err := pipeline.Run(test, s.Profiles(), model, pipeline.Config{
			Sched: pipeline.Sched{Mode: pipeline.BALB, Workers: opts.Workers, Shards: m},
			Sim:   pipeline.Sim{Seed: seed},
			Obs:   pipeline.Obs{Sink: opts.Sink, Label: fmt.Sprintf("shard/max=%d", k)},
		})
		if err != nil {
			return fmt.Errorf("experiments: shard sweep max=%d: %w", k, err)
		}
		out[1+i] = ShardPoint{
			MaxShard: k, Shards: m.NumShards(),
			CentralPerFrame: rep.CentralPerFrame,
			Recall:          rep.Recall,
			MeanSlowest:     rep.MeanSlowest,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ShedPoint is one point of the ingest-overload shed sweep: one
// admission policy at one offered-load multiple.
type ShedPoint struct {
	// Policy is the admission policy's name (pipeline.ShedPolicy).
	Policy string
	// Load is the offered-load multiple: frames pushed per camera per
	// engine step. 1 is real time (no overload); L > 1 offers L× what
	// the engine drains, forcing the bounded queues to shed.
	Load int
	// Offered is the pushed part count (frames x cameras). Ingested and
	// Shed are the source's cumulative admission counters: a part
	// admitted then evicted by a later overflow counts in both, so
	// Offered - Shed parts survived to assembly.
	Offered  int
	Ingested int
	Shed     int
	// Recall and P99Slowest score the frames that survived admission —
	// the quality/latency trade each policy makes under overload.
	Recall     float64
	P99Slowest time.Duration
}

// runFed runs a BALB engine under cfg on an in-process IngestSource with
// the given admission policy, feeding it the prepared scenario's
// evaluation frames — lockstep, no sockets: before every engine step it
// offers the next arrivals(src) frames' parts, and the end of stream once
// the trace is exhausted. It returns the engine's report and the source's
// admission counters.
func runFed(setup *Setup, policy pipeline.ShedPolicy, cfg pipeline.Config,
	arrivals func(*pipeline.IngestSource) int) (*pipeline.Report, pipeline.IngestCounters, error) {
	fail := func(err error) (*pipeline.Report, pipeline.IngestCounters, error) {
		return nil, pipeline.IngestCounters{}, fmt.Errorf("experiments: %s: %w", cfg.Obs.Label, err)
	}
	src, err := pipeline.NewIngestSource(setup.Test.Cameras, pipeline.IngestConfig{Policy: policy})
	if err != nil {
		return fail(err)
	}
	defer src.Close()
	eng, err := pipeline.NewEngine(src, setup.Scenario.Profiles(), setup.Model, cfg)
	if err != nil {
		return fail(err)
	}
	frames := setup.Test.Frames
	var parts []pipeline.FramePart
	for fi, eos := 0, false; ; {
		parts = parts[:0]
		for n := arrivals(src); n > 0 && fi < len(frames); n-- {
			parts = pipeline.AppendFrameParts(parts, fi, &frames[fi])
			fi++
		}
		if fi >= len(frames) && !eos {
			eos = true
			parts = pipeline.AppendEOSParts(parts, len(setup.Test.Cameras))
		}
		for _, p := range parts {
			if err := src.Offer(p); err != nil {
				return fail(err)
			}
		}
		more, err := eng.Step()
		if err != nil {
			return fail(err)
		}
		if !more {
			break
		}
	}
	rep, err := eng.Report()
	if err != nil {
		return fail(err)
	}
	return rep, src.Counters(), nil
}

// ShedSweep measures what each ingest admission policy preserves under
// overload: the prepared scenario's evaluation frames are offered to a
// pipeline.IngestSource at a multiple of the engine's drain rate —
// lockstep, in process, no sockets — and the BALB pipeline consumes
// whatever survives the bounded per-camera queues. Every admission
// decision is a pure function of queue state (docs/STREAMING.md §6),
// so the sweep is deterministic for every Workers value. loads nil
// defaults to {1, 2, 4, 8}; all three policies run at every load.
// Snapshots are labelled "shed/<policy>/load=<L>".
func ShedSweep(setup *Setup, loads []int, opts Options) ([]ShedPoint, error) {
	if len(loads) == 0 {
		loads = []int{1, 2, 4, 8}
	}
	policies := []pipeline.ShedPolicy{pipeline.ShedDropOldest, pipeline.ShedFreshest, pipeline.ShedStale}
	out := make([]ShedPoint, len(policies)*len(loads))
	err := pool.Do(opts.Workers, len(out), func(i int) error {
		policy, load := policies[i/len(loads)], loads[i%len(loads)]
		// Lockstep overload: offer `load` frames' parts per camera, then
		// let the engine drain exactly one assembled frame.
		cfg := pipeline.NewConfig(pipeline.BALB, setup.Seed)
		cfg.Sched.Workers = opts.Workers
		cfg.Obs.Sink = opts.Sink
		cfg.Obs.Label = fmt.Sprintf("shed/%s/load=%d", policy, load)
		rep, c, err := runFed(setup, policy, cfg, func(*pipeline.IngestSource) int { return load })
		if err != nil {
			return err
		}
		out[i] = ShedPoint{
			Policy: policy.String(), Load: load,
			Offered: len(setup.Test.Frames) * len(setup.Test.Cameras), Ingested: c.Ingested, Shed: c.Shed,
			Recall: rep.Recall, P99Slowest: rep.P99Slowest,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AdaptPoint is one point of the degradation-control-loop sweep: the
// same offered-load multiple run twice — once with the adapt controller
// armed, once shed-only — so the gap quantifies what the ladder buys
// under overload (docs/FAULTS.md §10).
type AdaptPoint struct {
	// Load is the offered-load multiple (ShedPoint.Load semantics).
	Load int
	// Offered is the pushed part count (frames x cameras), identical in
	// both arms.
	Offered int
	// OffRecall/OffP99/OffShed/OffFrames score the shed-only baseline:
	// the bounded queues drop parts, the pipeline runs undegraded.
	// Frames counts the frames that survived to assembly, so
	// Recall*Frames/trace-frames is the effective recall over the whole
	// offered trace (shed frames are total misses).
	OffRecall float64
	OffP99    time.Duration
	OffShed   int
	OffFrames int
	// OnRecall/OnP99/OnShed/OnFrames score the controller arm: the
	// ladder caps inspection sizes and stretches the key-frame cadence,
	// cutting modeled per-frame latency — and arrivals accrue per unit
	// of modeled processing time, so a degraded pipeline outruns the
	// offered load and sheds less.
	OnRecall float64
	OnP99    time.Duration
	OnShed   int
	OnFrames int
	// FinalLevel, Transitions, and SLOViolations are the controller
	// arm's ladder telemetry (pipeline.Report fields).
	FinalLevel    int
	Transitions   int
	SLOViolations int
}

// adaptFramePeriod is the camera frame period the adapt sweep's arrival
// model assumes (10 FPS, as everywhere in the testbed).
const adaptFramePeriod = 100 * time.Millisecond

// latestLatency captures the most recent frame's modeled latency from
// the snapshot stream — the adapt sweep's arrival model reads it after
// every engine step. The engine emits snapshots synchronously inside
// Step, so no locking is needed in the single-threaded drive loop.
type latestLatency struct {
	lat time.Duration
}

func (l *latestLatency) RecordFrame(snap metrics.Snapshot) { l.lat = snap.FrameLatency }
func (l *latestLatency) Flush() error                      { return nil }

// runAdaptArm drives one latency-coupled overload pipeline run with the
// given adapt policy (zero = disabled) and returns its report plus the
// ingest counters. Unlike ShedSweep's fixed offer/drain lockstep, the
// arrival model here accrues load*latency/framePeriod new frames per
// engine step — arrivals pile up while the modeled pipeline is busy —
// so a controller that cuts modeled latency genuinely drains faster and
// sheds less. Everything is a pure function of modeled state, so the
// arm is deterministic for every Workers value.
func runAdaptArm(setup *Setup, pol adapt.Policy, load int, label string, opts Options) (*pipeline.Report, pipeline.IngestCounters, error) {
	lat := &latestLatency{lat: adaptFramePeriod}
	cfg := pipeline.NewConfig(pipeline.BALB, setup.Seed)
	cfg.Sched.Workers = opts.Workers
	cfg.Obs.Sink = metrics.Sink(lat)
	if opts.Sink != nil {
		cfg.Obs.Sink = metrics.Multi(opts.Sink, lat)
	}
	cfg.Obs.Label = label
	cfg.Adapt.Policy = pol
	backlog := 0.0
	return runFed(setup, pipeline.ShedDropOldest, cfg, func(src *pipeline.IngestSource) int {
		// New arrivals since the last drain: load frames per frame
		// period of modeled processing time.
		backlog += float64(load) * float64(lat.lat) / float64(adaptFramePeriod)
		n := int(backlog)
		if n == 0 && src.Counters().QueueDepth == 0 {
			// Queue empty and nothing due: the engine is outrunning the
			// feed, so it waits for the next arrival (arrival-paced).
			n = 1
		}
		backlog = max(backlog-float64(n), 0)
		return n
	})
}

// AdaptSweep measures what the degradation control loop buys under
// ingest overload: the evaluation frames arrive at a multiple of real
// time against a drain rate set by the engine's own modeled per-frame
// latency (runAdaptArm; drop-oldest admission), with the adapt
// controller on and off. All admission and ladder decisions are pure
// functions of queue and modeled window state, so the sweep is
// deterministic for every Workers value. pol's
// zero value defaults to slo=500ms, window=20, cooldown=2, max=3 with
// QueueHigh at half the fleet's total queue capacity; loads nil
// defaults to {1, 2, 4, 8}. Snapshots are labelled
// "adapt/<on|off>/load=<L>".
func AdaptSweep(setup *Setup, pol adapt.Policy, loads []int, opts Options) ([]AdaptPoint, error) {
	if len(loads) == 0 {
		loads = []int{1, 2, 4, 8}
	}
	if !pol.Enabled() {
		pol = adapt.Policy{
			SLO: 500 * time.Millisecond, Window: 20, Cooldown: 2, MaxLevel: 3,
			QueueHigh: 8 * len(setup.Test.Cameras),
		}
	}
	out := make([]AdaptPoint, len(loads))
	// Both arms of point i write disjoint fields of out[i], so the
	// fan-out is race-free.
	err := pool.Do(opts.Workers, 2*len(loads), func(k int) error {
		i, arm := k/2, k%2
		load := loads[i]
		armPol, armName := adapt.Policy{}, "off"
		if arm == 0 {
			armPol, armName = pol, "on"
		}
		label := fmt.Sprintf("adapt/%s/load=%d", armName, load)
		rep, c, err := runAdaptArm(setup, armPol, load, label, opts)
		if err != nil {
			return err
		}
		p := &out[i]
		if arm == 0 {
			p.Load = load
			p.Offered = len(setup.Test.Frames) * len(setup.Test.Cameras)
			p.OnRecall = rep.Recall
			p.OnP99 = rep.P99Slowest
			p.OnShed = c.Shed
			p.OnFrames = rep.Frames
			p.FinalLevel = rep.AdaptLevel
			p.Transitions = rep.AdaptTransitions
			p.SLOViolations = rep.SLOViolations
		} else {
			p.OffRecall = rep.Recall
			p.OffP99 = rep.P99Slowest
			p.OffShed = c.Shed
			p.OffFrames = rep.Frames
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ChaosPoint is one point of the camera-fault chaos sweep: the same
// deterministic outage schedule run twice — once with health tracking
// and failover on, once with the feature off — so the gap quantifies
// graceful degradation.
type ChaosPoint struct {
	// Rate is the configured long-run camera-frame outage fraction.
	Rate float64
	// OutageFrames is the realized number of camera-frames lost
	// (identical in both arms, by construction).
	OutageFrames int
	// FailoverRecall and NoFailoverRecall compare BALB recall with the
	// health tracker on (HealthK > 0) and off.
	FailoverRecall   float64
	NoFailoverRecall float64
	// FailoverP99 and NoFailoverP99 are the per-frame system-latency
	// P99s of the two arms.
	FailoverP99   time.Duration
	NoFailoverP99 time.Duration
	// Reassignments and Orphaned are the failover arm's ownership
	// transfers and lost objects.
	Reassignments int
	Orphaned      int
}

// ChaosSweep runs BALB under seeded camera-fault schedules of
// increasing outage rate (rates nil defaults to {0.05, 0.1, 0.2}),
// with and without health-tracked failover (healthK <= 0 defaults to
// 3), and reports recall plus tail latency per point. The two arms of
// a point share the identical fault schedule, so every difference is
// attributable to the failover machinery. Snapshots are labelled
// "chaos/r=<rate>/fo" and "chaos/r=<rate>/off".
func ChaosSweep(s *Setup, rates []float64, healthK int, opts Options) ([]ChaosPoint, error) {
	if len(rates) == 0 {
		rates = []float64{0.05, 0.1, 0.2}
	}
	if healthK <= 0 {
		healthK = 3
	}
	out := make([]ChaosPoint, len(rates))
	// Both arms of point i regenerate the identical schedule from the
	// same derived seed; the arms write disjoint fields of out[i], so
	// the fan-out is race-free.
	err := pool.Do(opts.Workers, 2*len(rates), func(k int) error {
		i, arm := k/2, k%2
		faults, err := camfault.Generate(camfault.Config{
			Seed: s.Seed + int64(i)*7919, Rate: rates[i], MeanOutage: 20, BootDelay: 2,
		}, len(s.Test.Cameras), len(s.Test.Frames))
		if err != nil {
			return fmt.Errorf("experiments: chaos rate %g: %w", rates[i], err)
		}
		popts := pipeline.Config{
			Sched: pipeline.Sched{Mode: pipeline.BALB, Workers: opts.Workers},
			Sim:   pipeline.Sim{Seed: s.Seed},
			Obs:   pipeline.Obs{Sink: opts.Sink},
			Fault: pipeline.Fault{CamFaults: faults},
		}
		if arm == 0 {
			popts.Fault.HealthK = healthK
			popts.Obs.Label = fmt.Sprintf("chaos/r=%g/fo", rates[i])
		} else {
			popts.Obs.Label = fmt.Sprintf("chaos/r=%g/off", rates[i])
		}
		rep, err := pipeline.Run(s.Test, s.Scenario.Profiles(), s.Model, popts)
		if err != nil {
			return fmt.Errorf("experiments: chaos rate %g: %w", rates[i], err)
		}
		p := &out[i]
		if arm == 0 {
			p.Rate = rates[i]
			p.OutageFrames = rep.OutageFrames
			p.FailoverRecall = rep.Recall
			p.FailoverP99 = rep.P99Slowest
			p.Reassignments = rep.Reassignments
			p.Orphaned = rep.OrphanedObjects
		} else {
			p.NoFailoverRecall = rep.Recall
			p.NoFailoverP99 = rep.P99Slowest
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OcclusionResult compares recall with dynamic occlusions for standard
// BALB against redundancy-2 BALB — the paper's §V occlusion-hedging
// proposal ("assigning objects to multiple cameras with sufficiently
// different vantage points can also reduce occlusion-related failures").
type OcclusionResult struct {
	// BALBRecall is single-tracker BALB's recall under occlusion.
	BALBRecall float64
	// RedundantRecall is redundancy-2 BALB's recall under occlusion.
	RedundantRecall float64
	// BALBLatency and RedundantLatency are the Fig. 13 latency metrics.
	BALBLatency      time.Duration
	RedundantLatency time.Duration
}

// OcclusionStudy regenerates the scenario with dynamic occlusions
// enabled (occlusionFrac <= 0 defaults to 0.6) and measures how much
// redundancy-2 assignment recovers.
func OcclusionStudy(name string, seed int64, frames int, occlusionFrac float64) (*OcclusionResult, error) {
	if occlusionFrac <= 0 {
		occlusionFrac = 0.6
	}
	if frames <= 0 {
		frames = 800
	}
	s, err := workload.ByName(name, seed)
	if err != nil {
		return nil, err
	}
	s.World.OcclusionFrac = occlusionFrac
	trace, err := s.World.Run(frames)
	if err != nil {
		return nil, fmt.Errorf("experiments: occlusion study: %w", err)
	}
	train, test := trace.SplitTrain()
	model, err := assoc.Train(train, assoc.Factories{})
	if err != nil {
		return nil, fmt.Errorf("experiments: occlusion study: %w", err)
	}
	balb, err := pipeline.Run(test, s.Profiles(), model, pipeline.NewConfig(pipeline.BALB, seed))
	if err != nil {
		return nil, err
	}
	red, err := pipeline.Run(test, s.Profiles(), model, pipeline.Config{
		Sched: pipeline.Sched{Mode: pipeline.BALB, Redundancy: 2, RedundancySlack: 1.3},
		Sim:   pipeline.Sim{Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	return &OcclusionResult{
		BALBRecall:       balb.Recall,
		RedundantRecall:  red.Recall,
		BALBLatency:      balb.MeanSlowest,
		RedundantLatency: red.MeanSlowest,
	}, nil
}
