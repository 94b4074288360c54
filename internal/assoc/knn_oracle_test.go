package assoc

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"mvs/internal/ml"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// bruteKNN is the KNN classifier and regressor written as a full sort of
// the training set by (distance, row) — no index — with ml's vote and
// inverse-distance weighting.
type bruteKNN struct {
	x       [][]float64
	labels  []bool
	targets [][]float64
}

func (b *bruteKNN) Name() string { return "brute-knn" }

func (b *bruteKNN) Fit(x [][]float64, y []bool) error {
	b.x, b.labels = x, y
	return nil
}

func (b *bruteKNN) nearest(q []float64) (rows []int, dist []float64) {
	rows = make([]int, len(b.x))
	dist = make([]float64, len(b.x))
	for i, p := range b.x {
		rows[i] = i
		for j := range p {
			d := p[j] - q[j]
			dist[i] += d * d
		}
	}
	sort.Slice(rows, func(a, c int) bool {
		if da, dc := dist[rows[a]], dist[rows[c]]; da != dc {
			return da < dc
		}
		return rows[a] < rows[c]
	})
	return rows[:min(5, len(rows))], dist
}

func (b *bruteKNN) Predict(q []float64) (bool, error) {
	rows, _ := b.nearest(q)
	pos := 0
	for _, i := range rows {
		if b.labels[i] {
			pos++
		}
	}
	return pos*2 >= len(rows), nil
}

type bruteKNNReg struct{ bruteKNN }

func (b *bruteKNNReg) Fit(x [][]float64, y [][]float64) error {
	b.x, b.targets = x, y
	return nil
}

func (b *bruteKNNReg) Predict(dst, q []float64) ([]float64, error) {
	rows, dist := b.nearest(q)
	pred := make([]float64, len(b.targets[0]))
	var wsum float64
	for _, i := range rows {
		if dist[i] == 0 {
			copy(pred, b.targets[i])
			return append(dst, pred...), nil
		}
		w := 1 / math.Sqrt(dist[i])
		wsum += w
		for j := range pred {
			pred[j] += w * b.targets[i][j]
		}
	}
	for j := range pred {
		pred[j] /= wsum
	}
	return append(dst, pred...), nil
}

// TestAssociateMatchesBruteForceKNN trains the C16 and S4 models the way
// the benchmark does (150 and 200 training frames) twice — once on ml's
// indexed KNN, once on bruteKNN — and requires every key frame of the
// next 300 frames to associate into the same groups, and every pair to
// map every box the same way.
func TestAssociateMatchesBruteForceKNN(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two fleets twice")
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
			trace, err := tc.scn.World.Run(tc.train + 300)
			if err != nil {
				t.Fatal(err)
			}
			train := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[:tc.train]}
			test := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[tc.train:]}
			indexed, err := Train(train, Factories{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			brute, err := Train(train, Factories{
				NewClassifier: func() ml.Classifier { return &bruteKNN{} },
				NewRegressor:  func() ml.Regressor { return &bruteKNNReg{} },
				Workers:       1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(indexed.matchable) != len(brute.matchable) || len(indexed.matchable) == 0 {
				t.Fatalf("matchable pairs: indexed %d, brute %d", len(indexed.matchable), len(brute.matchable))
			}
			grouped := 0
			for fi := 0; fi < len(test.Frames); fi += 10 {
				boxes := frameBoxes(test, fi)
				want, err := brute.Associate(boxes, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := indexed.Associate(boxes, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("key frame %d:\n got %v\nwant %v", fi, got, want)
				}
				for src := range boxes {
					for dst := range boxes {
						for _, b := range boxes[src] {
							gb, gv, gerr := indexed.MapBox(src, dst, b)
							wb, wv, werr := brute.MapBox(src, dst, b)
							if gb != wb || gv != wv || (gerr == nil) != (werr == nil) {
								t.Fatalf("key frame %d, pair (%d,%d), box %v: got %v %v, want %v %v", fi, src, dst, b, gb, gv, wb, wv)
							}
						}
					}
				}
				for _, g := range want {
					if len(g.Members) > 1 {
						grouped++
					}
				}
			}
			if grouped == 0 {
				t.Fatal("no cross-camera group on any key frame — fixture degenerate")
			}
		})
	}
}
