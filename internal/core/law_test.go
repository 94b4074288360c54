package core_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/experiments"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/vision"
)

// The law: pipeline.Engine, run on the paper's configurations, emits
// what the loop (loop_test.go) emits, frame by frame. Configurations
// outside the paper are excluded by name (lawExclusions), never by
// tolerance.

// lawFixture is a deployment the law runs: a scenario's world at a seed
// and length, its trained model, and its arms' detector seed. S1 and S2
// are the pipeline package's own test fixtures, and run at every
// fan-out width its determinism tests used.
type lawFixture struct {
	name               string
	seed, detectorSeed int64
	frames             int
	widths             []int
}

var lawFixtures = []lawFixture{
	{"S1", 17, 17, 400, []int{1, 2, 0, 4, 8, 64}},
	{"S2", 11, 5, 800, []int{1, 2, 0, 4, 8, 64}},
	{"S3", 3, 3, 400, []int{1, 2, 0}},
	{"S4", 1, 1, 600, []int{1, 2, 0}},
	{"C16", 1, 1, 600, []int{1, 2, 0}},
}

// lawArm is a configuration the law holds the engine to on a fixture.
type lawArm struct {
	fixture int // in lawFixtures
	cfg     pipeline.Config
}

// lawArms are every mode on every fixture, BALB at redundancy 2 / slack
// 1.3 on C16, and BALB at T = 5 with a retuned detector on S3.
func lawArms() []lawArm {
	var arms []lawArm
	for f, fx := range lawFixtures {
		for _, mode := range []pipeline.Mode{pipeline.Full, pipeline.Independent, pipeline.CentralOnly, pipeline.BALB, pipeline.StaticPartition} {
			arms = append(arms, lawArm{f, pipeline.NewConfig(mode, fx.detectorSeed)})
		}
	}
	redundant := pipeline.NewConfig(pipeline.BALB, 1)
	redundant.Sched.Redundancy, redundant.Sched.RedundancySlack, redundant.Obs.Label = 2, 1.3, "BALB/R=2"
	tuned := pipeline.NewConfig(pipeline.BALB, 3)
	tuned.Sched.Horizon, tuned.Obs.Label = 5, "BALB/T=5"
	tuned.Sim.Detector = vision.Config{MissBase: 0.05, NoiseFrac: 0.04, MinSide: 30, RegionBonus: 0.8, MinCoverage: 0.4}
	return append(arms, lawArm{4, redundant}, lawArm{2, tuned})
}

// lawExclusions names the Config fields no arm sets, with the reason the
// paper's loop does not cover them.
var lawExclusions = map[string]string{
	"Sched.Shards": "shards: one scheduler per shard is not the paper's one central scheduler",
	"Fault":        "faults: §III–IV assume every camera up",
	"Adapt":        "adapt: the degradation ladder is not in the paper",
	"Serve":        "tenants: a pool shared across deployments prices their frames together",
	"Obs.Ingest":   "live admission counters are arrival timing, not modelled output",
}

// recorder keeps what an engine's sinks receive.
type recorder struct {
	snaps  []metrics.Snapshot
	rounds []metrics.Round
}

func (r *recorder) RecordFrame(s metrics.Snapshot) { r.snaps = append(r.snaps, s) }
func (r *recorder) RecordRound(x metrics.Round)    { r.rounds = append(r.rounds, x) }
func (r *recorder) Flush() error                   { return nil }

// runConfig is an arm's configuration at one fan-out width, its sinks
// on rec.
func runConfig(arm lawArm, workers int, rec *recorder) pipeline.Config {
	cfg := arm.cfg
	cfg.Sched.Workers, cfg.Obs.Sink, cfg.Obs.Rounds = workers, rec, rec
	return cfg
}

// TestEngineMeetsSpec is the law: on every arm, at every width, the
// engine's rounds (priority order, assigned counts, objects), every
// snapshot (recall, frame latency, each camera's latency, batches,
// regions, fill, tracks and shadows) and its final Report.Modeled()
// equal the loop's, bit for bit, frame by frame. Equal to the loop at
// every width, the runs equal each other too. An arm's widths run at
// once over one trace, model and set of profiles, so under -race the
// law also shows that a run writes none of its shared inputs.
func TestEngineMeetsSpec(t *testing.T) {
	arms := lawArms()
	for f, fx := range lawFixtures {
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			s, err := experiments.Prepare(fx.name, fx.seed, fx.frames, 1)
			if err != nil {
				t.Fatal(err)
			}
			profiles := s.Scenario.Profiles()
			for _, arm := range arms {
				if arm.fixture != f {
					continue
				}
				want := runSpec(t, s.Test, profiles, s.Model, arm.cfg)
				errs := make([]error, len(fx.widths))
				var wg sync.WaitGroup
				for k, workers := range fx.widths {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var rec recorder
						rep, err := runEngine(s.Test, profiles, s.Model, runConfig(arm, workers, &rec), k)
						if err == nil {
							err = want.check(&rec, rep)
						}
						errs[k] = err
					}()
				}
				wg.Wait()
				for k, err := range errs {
					if err != nil {
						t.Fatalf("%s, workers %d: %v", want.snaps[0].Label, fx.widths[k], err)
					}
				}
			}
		})
	}
}

// runEngine runs the engine over the trace: through pipeline.Run for
// k == 0, from a ChannelSource another goroutine feeds for k == 2, else
// from a TraceSource.
func runEngine(trace *scene.Trace, profiles []*profile.Profile, model *assoc.Model, cfg pipeline.Config, k int) (*pipeline.Report, error) {
	if k == 0 {
		return pipeline.Run(trace, profiles, model, cfg)
	}
	var src pipeline.Source = pipeline.NewTraceSource(trace)
	if k == 2 {
		ch := pipeline.NewChannelSource(trace.Cameras, 4)
		ctx, stop := context.WithCancel(context.Background())
		defer stop() // a feeder the engine stopped reading from returns
		go func() {
			for i := range trace.Frames {
				if ch.PushCtx(ctx, &trace.Frames[i]) != nil {
					return
				}
			}
			ch.Close()
		}()
		src = ch
	}
	e, err := pipeline.NewEngine(src, profiles, model, cfg)
	if err == nil {
		err = e.Run()
	}
	if err != nil {
		return nil, err
	}
	return e.Report()
}

// check reports the engine's first departure from the loop, in frame
// order.
func (want *specRun) check(got *recorder, rep *pipeline.Report) error {
	if len(got.snaps) != len(want.snaps) || len(got.rounds) != len(want.rounds) {
		return fmt.Errorf("%d snapshots and %d rounds, the loop %d and %d",
			len(got.snaps), len(got.rounds), len(want.snaps), len(want.rounds))
	}
	r := 0
	for fi, snap := range want.snaps {
		for ; r < len(want.rounds) && want.rounds[r].Frame == fi; r++ {
			if !reflect.DeepEqual(got.rounds[r], want.rounds[r]) {
				return fmt.Errorf("frame %d round:\nengine %+v\nloop   %+v", fi, got.rounds[r], want.rounds[r])
			}
		}
		if !reflect.DeepEqual(got.snaps[fi], snap) {
			return fmt.Errorf("frame %d snapshot:\nengine %+v\nloop   %+v", fi, got.snaps[fi], snap)
		}
	}
	if m := rep.Modeled(); !reflect.DeepEqual(m, want.report) {
		return fmt.Errorf("report:\nengine %+v\nloop   %+v", m, want.report)
	}
	return nil
}

// TestSpecCoversEveryConfigField walks pipeline.Config's leaf fields:
// each must be set by some run of the law or excluded by name, and an
// exclusion must name a field no run sets. A new knob fails here until
// someone says whether the loop covers it.
func TestSpecCoversEveryConfigField(t *testing.T) {
	var runs []reflect.Value
	for _, arm := range lawArms() {
		for _, w := range lawFixtures[arm.fixture].widths {
			runs = append(runs, reflect.ValueOf(runConfig(arm, w, &recorder{})))
		}
	}
	named := map[string]bool{}
	var walk func(path string, typ reflect.Type, vals []reflect.Value)
	walk = func(path string, typ reflect.Type, vals []reflect.Value) {
		set := slices.ContainsFunc(vals, func(v reflect.Value) bool { return !v.IsZero() })
		if _, excluded := lawExclusions[path]; excluded || typ.Kind() != reflect.Struct {
			named[path] = excluded
			if excluded == set {
				t.Errorf("Config.%s: a run of the law must set it or lawExclusions name it, not both or neither", path)
			}
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			fields := make([]reflect.Value, len(vals))
			for k, v := range vals {
				fields[k] = v.Field(i)
			}
			walk(strings.TrimPrefix(path+"."+typ.Field(i).Name, "."), typ.Field(i).Type, fields)
		}
	}
	walk("", reflect.TypeOf(pipeline.Config{}), runs)
	for name := range lawExclusions {
		if !named[name] {
			t.Errorf("exclusion %q names no Config field", name)
		}
	}
}
