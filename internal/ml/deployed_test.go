package ml_test

import (
	"slices"
	"sync"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/ml"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// knnLog is a fitted KNN model with its training rows and every query it
// answered.
type knnLog struct {
	x       [][]float64
	queries [][]float64
	clf     *ml.KNNClassifier // exactly one of clf, reg is set
	reg     *ml.KNNRegressor
}

// recorder hands assoc.Train KNN models that log what they see.
type recorder struct {
	mu   sync.Mutex
	logs []*knnLog
}

func (r *recorder) add(l *knnLog) *knnLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logs = append(r.logs, l)
	return l
}

func (r *recorder) note(l *knnLog, q []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.queries = append(l.queries, slices.Clone(q))
}

// reset forgets the queries made so far, keeping the models.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.logs {
		l.queries = nil
	}
}

type recClf struct {
	r *recorder
	l *knnLog
}

func (c *recClf) Name() string { return "knn" }
func (c *recClf) Fit(x [][]float64, y []bool) error {
	c.l.x = x
	return c.l.clf.Fit(x, y)
}
func (c *recClf) Predict(q []float64) (bool, error) {
	c.r.note(c.l, q)
	return c.l.clf.Predict(q)
}

type recReg struct {
	r *recorder
	l *knnLog
}

func (g *recReg) Name() string { return "knn" }
func (g *recReg) Fit(x [][]float64, y [][]float64) error {
	g.l.x = x
	return g.l.reg.Fit(x, y)
}
func (g *recReg) Predict(dst, q []float64) ([]float64, error) {
	g.r.note(g.l, q)
	return g.l.reg.Predict(dst, q)
}

// TestKNNIndexOnDeployedShape trains the C16 and S4 association models
// the way the benchmark does (150 and 200 training frames, K = 5) and
// runs 300 frames of BALB on each; every classifier and regressor query
// the run's key frames make must get the brute-force neighbour list.
func TestKNNIndexOnDeployedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two fleets")
	}
	c16, err := workload.Corridor(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scn   *workload.Scenario
		train int
	}{{c16, 150}, {workload.S4(1), 200}} {
		t.Run(tc.scn.Name, func(t *testing.T) {
			const frames = 300
			trace, err := tc.scn.World.Run(tc.train + frames)
			if err != nil {
				t.Fatal(err)
			}
			train := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[:tc.train]}
			test := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[tc.train:]}
			rec := &recorder{}
			model, err := assoc.Train(train, assoc.Factories{
				NewClassifier: func() ml.Classifier {
					return &recClf{rec, rec.add(&knnLog{clf: &ml.KNNClassifier{K: 5}})}
				},
				NewRegressor: func() ml.Regressor {
					return &recReg{rec, rec.add(&knnLog{reg: &ml.KNNRegressor{K: 5}})}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := pipeline.NewConfig(pipeline.BALB, 1)
			cfg.Sched.Workers = 1
			eng, err := pipeline.NewEngine(pipeline.NewTraceSource(test), tc.scn.Profiles(), model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec.reset() // count the frames' queries, not coverage set-up
			for {
				ok, err := eng.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			queries, big := 0, 0
			for _, l := range rec.logs {
				if len(l.x) >= 64 {
					big++
				}
				for _, q := range l.queries {
					var got []int
					if l.clf != nil {
						got = l.clf.Neighbors(q)
					} else {
						got = l.reg.Neighbors(q)
					}
					if want := ml.ReferenceNearest(l.x, q, 5); !slices.Equal(got, want) {
						t.Fatalf("n=%d q=%v: index %v, reference %v", len(l.x), q, got, want)
					}
					queries++
				}
			}
			if queries < 1000 || big == 0 {
				t.Fatalf("%d queries over %d models (%d with >= 64 rows): fixture degenerate", queries, len(rec.logs), big)
			}
			t.Logf("%d queries over %d models checked", queries, len(rec.logs))
		})
	}
}
