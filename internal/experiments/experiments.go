// Package experiments reproduces every table and figure of the paper's
// evaluation section on the simulated testbed, and the extension
// studies beside them. Each one is a Study: data naming its title, the
// labelled arms it runs, its columns and the shape the paper (or the
// design) predicts. One runner executes any study's arms and a Harness
// turns them into the study's table; the mvexp command prints every
// table with one printer, and is the one place a figure is regenerated.
//
// # Execution model
//
// A prepared Setup is read-only, so a study's arms — the five
// scheduling modes of RunModes, the horizon points of Fig. 14, the
// rate-scale points of the arrival sweep — run concurrently on the
// shared internal/pool worker pool. Options.Workers (0 = GOMAXPROCS,
// 1 = fully sequential, in arm order) bounds that fan-out and, via
// pipeline.Config.Sched.Workers, each pipeline run's per-pair
// association and per-cell coverage fan-outs, and the training of the
// association models a study prepares. Outcomes are assembled
// positionally, and the pipeline's determinism contract
// (docs/CONCURRENCY.md) guarantees the modelled numbers are identical
// for every Workers value — and for every Sink, which observes runs
// without influencing them (docs/OBSERVABILITY.md).
//
// Studies is the index, in print order; DESIGN.md maps each study to
// the paper.
package experiments

import (
	"fmt"

	"mvs/internal/assoc"
	"mvs/internal/metrics"
	"mvs/internal/ml"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
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
	return generate(name, seed, frames, nil)
}

// generate is Generate with the scenario varied before its world runs
// (vary may be nil).
func generate(name string, seed int64, frames int, vary func(*workload.Scenario)) (*Setup, error) {
	if frames <= 0 {
		frames = 1200
	}
	s, err := workload.ByName(name, seed)
	if err != nil {
		return nil, err
	}
	if vary != nil {
		vary(s)
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
	return prepare(name, seed, frames, workers, nil)
}

func prepare(name string, seed int64, frames, workers int, vary func(*workload.Scenario)) (*Setup, error) {
	s, err := generate(name, seed, frames, vary)
	if err != nil {
		return nil, err
	}
	s.Model, err = assoc.Train(s.Train, assoc.Factories{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s association training: %w", name, err)
	}
	return s, nil
}

// Options bounds a study's execution and attaches observability
// without changing its results (the pipeline's determinism contract
// covers both knobs).
type Options struct {
	// Workers bounds the arm-level fan-out and, through it, each
	// pipeline run's per-pair association and per-cell coverage fan-outs
	// and the per-pair training fan-out of the models a study prepares:
	// 0 means GOMAXPROCS, 1 fully sequential.
	Workers int
	// Sink, when non-nil, receives every pipeline run's per-frame
	// snapshots. Runs are labelled per arm (for example "modes/BALB" or
	// "fig14/T=20") so one sink can serve concurrent runs; the bundled
	// sinks are all safe for concurrent RecordFrame. Studies never Flush
	// the sink — its lifecycle belongs to the caller.
	Sink metrics.Sink
	// Rounds, when non-nil, receives every RunModes run's scheduling-round
	// decisions (pipeline.Config.Obs.Rounds) — the stream mvexp -record
	// persists. Like Sink, its lifecycle belongs to the caller.
	Rounds metrics.RoundSink
	// CamFaults, when non-empty, is a camera-fault spec
	// (pipeline.ParseFaultSpec, docs/FAULTS.md)
	// applied to every RunModes run: all modes share the identical
	// outage schedule, so Figs. 12/13 and Table II compare the
	// algorithms under the same incident. HealthK arms failover for
	// those runs (0 = no failover, the ablation).
	CamFaults string
	HealthK   int
}

// Fig2Result is the per-camera object-count time series (mvviz draws
// it).
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

// Modes lists the scheduling algorithms of Figs. 12 and 13, in the
// paper's presentation order.
func Modes() []pipeline.Mode {
	return []pipeline.Mode{
		pipeline.Full, pipeline.Independent, pipeline.CentralOnly,
		pipeline.BALB, pipeline.StaticPartition,
	}
}

// modesHorizon is the scheduling horizon of the mode comparison.
const modesHorizon = 10

// RunModes executes the pipeline once per scheduling algorithm at
// horizon 10 and returns the reports in Modes order. Figs. 12 and 13 and
// Table II all read from these runs. Options{} reproduces the default
// (GOMAXPROCS) harness, Options{Workers: 1} the fully sequential one.
// Snapshots are labelled "modes/<mode>".
func RunModes(s *Setup, opts Options) ([]*pipeline.Report, error) {
	p := &plan{Harness: on(s, opts)}
	outs, err := p.modes()
	if err != nil {
		return nil, err
	}
	if err := runArms(p.arms, opts.Workers); err != nil {
		return nil, err
	}
	reports := make([]*pipeline.Report, len(outs))
	for i, o := range outs {
		reports[i] = o.rep
	}
	return reports, nil
}

// modes adds the five mode-comparison arms on the prepared scenario, all
// under the Options' shared camera-fault schedule, failover threshold
// and round sink.
func (p *plan) modes() ([]*outcome, error) {
	s, err := p.setup()
	if err != nil {
		return nil, err
	}
	faults, err := pipeline.ParseFaults(p.Opts.CamFaults, len(s.Test.Cameras), len(s.Test.Frames))
	if err != nil {
		return nil, err
	}
	var outs []*outcome
	for _, mode := range Modes() {
		cfg := p.config("modes/"+mode.String(), mode)
		cfg.Sched.Horizon = modesHorizon
		cfg.Fault = pipeline.Fault{CamFaults: faults, HealthK: p.Opts.HealthK}
		cfg.Obs.Rounds = p.Opts.Rounds
		outs = append(outs, p.pipe(s, cfg))
	}
	return outs, nil
}

// forPairs calls fn with the training and evaluation samples of every
// ordered camera pair of s — the unit Figs. 10 and 11 score models on.
func forPairs(s *Setup, fn func(train, test []assoc.Sample) error) error {
	numCams := len(s.Test.Cameras)
	for src := 0; src < numCams; src++ {
		for dst := 0; dst < numCams; dst++ {
			if src == dst {
				continue
			}
			train, err := assoc.BuildPairSamples(s.Train, src, dst)
			if err != nil {
				return err
			}
			test, err := assoc.BuildPairSamples(s.Test, src, dst)
			if err != nil {
				return err
			}
			if err := fn(train, test); err != nil {
				return fmt.Errorf("experiments: pair (%d,%d): %w", src, dst, err)
			}
		}
	}
	return nil
}

// classifiers are the Fig. 10 contenders, in row (name) order.
var classifiers = []struct {
	name string
	new  func() ml.Classifier
}{
	{"knn", func() ml.Classifier { return &ml.KNNClassifier{K: 5} }},
	{"logistic", func() ml.Classifier { return &ml.LogisticClassifier{} }},
	{"svm", func() ml.Classifier { return &ml.SVMClassifier{} }},
	{"tree", func() ml.Classifier { return &ml.TreeClassifier{} }},
}

// regressors are the Fig. 11 contenders, in row (name) order.
var regressors = []struct {
	name string
	new  func() ml.Regressor
}{
	{"homography", func() ml.Regressor { return &ml.HomographyRegressor{} }},
	{"knn", func() ml.Regressor { return &ml.KNNRegressor{K: 5} }},
	{"linear", func() ml.Regressor { return &ml.LinearRegressor{} }},
	{"ransac", func() ml.Regressor { return &ml.RANSACRegressor{Seed: 1} }},
}

// fig10 reproduces the classification-module comparison: every model is
// trained per ordered camera pair on the training half and evaluated on
// the test half; true/false positives are micro-averaged across pairs.
func fig10(p *plan) error {
	s, err := p.setup()
	if err != nil {
		return err
	}
	totals := make([]ml.ClassificationMetrics, len(classifiers))
	err = forPairs(s, func(train, test []assoc.Sample) error {
		if len(train) == 0 || len(test) == 0 {
			return nil
		}
		trainX, trainY := assoc.ClassificationData(train)
		testX, testY := assoc.ClassificationData(test)
		for i, c := range classifiers {
			clf := c.new()
			if err := clf.Fit(trainX, trainY); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			m, err := ml.EvaluateClassifier(clf, testX, testY)
			if err != nil {
				return err
			}
			t := &totals[i]
			t.TP, t.FP, t.FN, t.TN = t.TP+m.TP, t.FP+m.FP, t.FN+m.FN, t.TN+m.TN
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, t := range totals {
		var precision, recall float64
		if t.TP+t.FP > 0 {
			precision = float64(t.TP) / float64(t.TP+t.FP)
		}
		if t.TP+t.FN > 0 {
			recall = float64(t.TP) / float64(t.TP+t.FN)
		}
		p.row(p.scenario, classifiers[i].name, precision, recall)
	}
	return nil
}

// fig11 reproduces the regression-module comparison: each model is
// trained on the co-visible pairs of the training half and scored by MAE
// on the test half, sample-weighted across camera pairs.
func fig11(p *plan) error {
	s, err := p.setup()
	if err != nil {
		return err
	}
	sums := make([]float64, len(regressors))
	var count int
	err = forPairs(s, func(train, test []assoc.Sample) error {
		trainX, trainY := assoc.RegressionData(train)
		testX, testY := assoc.RegressionData(test)
		if len(trainX) < 8 || len(testX) == 0 {
			return nil // too few co-visible cases for a fair comparison
		}
		for i, r := range regressors {
			reg := r.new()
			if err := reg.Fit(trainX, trainY); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			mae, err := ml.EvaluateRegressor(reg, testX, testY)
			if err != nil {
				return err
			}
			sums[i] += mae * float64(len(testX))
		}
		count += len(testX)
		return nil
	})
	if err != nil {
		return err
	}
	if count == 0 {
		return nil
	}
	for i, sum := range sums {
		p.row(p.scenario, regressors[i].name, sum/float64(count))
	}
	return nil
}
