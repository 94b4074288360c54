package assoc_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/geom"
	"mvs/internal/ml"
	"mvs/internal/pipeline"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// bruteKNN is a pair's KNN model written as full sorts of its samples by
// (distance, row) — no index, no early stop, no shared search — with
// ml's vote and inverse-distance weighting: the vote over the K nearest
// samples, the regression over the K nearest visible ones.
type bruteKNN struct {
	k       int
	x       [][]float64
	visible []bool
	targets [][]float64
}

func newBrute(samples []assoc.Sample, k int) *bruteKNN {
	b := &bruteKNN{k: k}
	b.x, b.visible = assoc.ClassificationData(samples)
	b.targets = make([][]float64, len(samples))
	for i, s := range samples {
		b.targets[i] = s.DstBox.Vec4()
	}
	return b
}

func dist2(p, q []float64) float64 {
	var sum float64
	for j := range p {
		d := p[j] - q[j]
		sum += d * d
	}
	return sum
}

// nearest returns the k nearest rows to q (only visible ones when asked)
// in (distance, row) order, with every row's distance.
func (b *bruteKNN) nearest(q []float64, onlyVisible bool) (rows []int, dist []float64) {
	dist = make([]float64, len(b.x))
	for i, p := range b.x {
		dist[i] = dist2(p, q)
		if !onlyVisible || b.visible[i] {
			rows = append(rows, i)
		}
	}
	sort.Slice(rows, func(a, c int) bool {
		if da, dc := dist[rows[a]], dist[rows[c]]; da != dc {
			return da < dc
		}
		return rows[a] < rows[c]
	})
	return rows[:min(b.k, len(rows))], dist
}

func (b *bruteKNN) vote(q []float64) bool {
	rows, _ := b.nearest(q, false)
	pos := 0
	for _, i := range rows {
		if b.visible[i] {
			pos++
		}
	}
	return pos*2 >= len(rows)
}

// mapVec is the vote, then, when visible, the regression.
func (b *bruteKNN) mapVec(q []float64) ([]float64, bool) {
	if !b.vote(q) {
		return nil, false
	}
	rows, dist := b.nearest(q, true)
	pred := make([]float64, len(b.targets[rows[0]]))
	var wsum float64
	for _, i := range rows {
		if dist[i] == 0 {
			copy(pred, b.targets[i])
			return pred, true
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
	return pred, true
}

// checkIndex holds the joint index's vote and mapped vector to the brute
// force at q, bit for bit, and reports the answer.
func checkIndex(t *testing.T, idx *ml.KNNMap, b *bruteKNN, q []float64) bool {
	t.Helper()
	vote, err := idx.Visible(q)
	if err != nil {
		t.Fatal(err)
	}
	pred, visible, err := idx.Map(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	want, wantVisible := b.mapVec(q)
	if vote != wantVisible || visible != wantVisible || len(pred) != len(want) {
		t.Fatalf("n=%d k=%d q=%v: vote %v, map %v %v; brute force %v %v", len(b.x), b.k, q, vote, visible, pred, wantVisible, want)
	}
	for j := range want {
		if math.Float64bits(pred[j]) != math.Float64bits(want[j]) {
			t.Fatalf("n=%d k=%d q=%v: mapped %v, brute force %v", len(b.x), b.k, q, pred, want)
		}
	}
	return visible
}

// TestKNNMapMatchesBruteForce holds the joint index to the brute force on
// generated pair sets: duplicate points and equal-distance ties (boxes on
// a coarse lattice), fewer samples than K for K from 1 to 7, and sets
// whose samples are all, none, or some of them visible. Queries sit on
// the lattice, on samples, and between lattice points.
func TestKNNMapMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	lattice := func() float64 { return float64(rng.Intn(4)) * 8 }
	box := func() geom.Rect {
		x, y := lattice(), lattice()
		return geom.Rect{MinX: x, MinY: y, MaxX: x + 8 + lattice(), MaxY: y + 8 + lattice()}
	}
	visibleShares := []struct {
		name      string
		isVisible func() bool
	}{
		{"all", func() bool { return true }},
		{"none", func() bool { return false }},
		{"some", func() bool { return rng.Intn(3) == 0 }},
		{"most", func() bool { return rng.Intn(4) > 0 }},
	}
	checked := 0
	for k := 1; k <= 7; k++ {
		for _, n := range []int{1, k - 1, k, k + 1, 9, 17, 60, 200} {
			if n < 1 {
				continue
			}
			for _, share := range visibleShares {
				samples := make([]assoc.Sample, n)
				for i := range samples {
					if i > 0 && rng.Intn(4) == 0 {
						samples[i].SrcBox = samples[rng.Intn(i)].SrcBox // a duplicate point
					} else {
						samples[i].SrcBox = box()
					}
					if samples[i].Visible = share.isVisible(); samples[i].Visible {
						samples[i].DstBox = box()
					}
				}
				b := newBrute(samples, k)
				_, targets := assoc.RegressionData(samples)
				idx, err := ml.NewKNNMap(b.x, b.visible, targets, k)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("k=%d/n=%d/%s", k, n, share.name), func(t *testing.T) {
					for q := 0; q < 40; q++ {
						vec := box().Vec4()
						switch q % 3 {
						case 1:
							vec = slices.Clone(b.x[rng.Intn(n)]) // on a sample
						case 2:
							vec[rng.Intn(4)] += 4 // between lattice points
						}
						checkIndex(t, idx, b, vec)
						checked++
					}
				})
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

// TestNewKNNMapRejectsBadSets pins NewKNNMap's input checks.
func TestNewKNNMapRejectsBadSets(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 1}}
	for name, tc := range map[string]struct {
		visible []bool
		targets [][]float64
	}{
		"labels":         {[]bool{true}, [][]float64{{1}}},
		"too few rows":   {[]bool{true, true}, [][]float64{{1}}},
		"too many rows":  {[]bool{false, true}, [][]float64{{1}, {2}}},
		"ragged targets": {[]bool{true, true}, [][]float64{{1}, {2, 3}}},
		"empty target":   {[]bool{true, false}, [][]float64{{}}},
	} {
		if _, err := ml.NewKNNMap(x, tc.visible, tc.targets, 5); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	idx, err := ml.NewKNNMap(x, []bool{false, true}, [][]float64{{7}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := idx.Map(nil, []float64{1}); err == nil {
		t.Error("a query of the wrong dimension accepted")
	}
}

// TestAssociateMatchesBruteForceKNN trains the C16 and S4 models the way
// the benchmark does (150 and 200 training frames), runs 450 frames of
// BALB on each, and holds every query the run's key frames make — each
// box of camera i of every pair (i < j) association maps — to the brute
// force on the pair's samples: the joint index's vote and mapped box bit
// for bit, and MapBox's answer. A trained pair without an index must
// have no co-visible sample, and MapBox must answer "not visible" there,
// as the brute force does; only indexed queries count towards the
// fixture's floor of 1000. The cell-coverage votes the engine is built on
// are held to the brute force too.
func TestAssociateMatchesBruteForceKNN(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two fleets and runs them")
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
			const frames = 450
			trace, err := tc.scn.World.Run(tc.train + frames)
			if err != nil {
				t.Fatal(err)
			}
			train := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[:tc.train]}
			test := &scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[tc.train:]}
			model, err := assoc.Train(train, assoc.Factories{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var keyFrames [][][]geom.Rect
			model.ObserveAssociate(func(boxes [][]geom.Rect) {
				frame := make([][]geom.Rect, len(boxes))
				for c, b := range boxes {
					frame[c] = slices.Clone(b)
				}
				keyFrames = append(keyFrames, frame)
			})
			cfg := pipeline.NewConfig(pipeline.BALB, 1)
			cfg.Sched.Workers = 1
			eng, err := pipeline.NewEngine(pipeline.NewTraceSource(test), tc.scn.Profiles(), model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}

			n := len(trace.Cameras)
			brute := make(map[[2]int]*bruteKNN)
			bruteOf := func(src, dst int) *bruteKNN {
				if brute[[2]int{src, dst}] == nil {
					samples, err := assoc.BuildPairSamples(train, src, dst)
					if err != nil {
						t.Fatal(err)
					}
					brute[[2]int{src, dst}] = newBrute(samples, 5)
				}
				return brute[[2]int{src, dst}]
			}
			queries, mapped, unindexed := 0, 0, 0
			for _, boxes := range keyFrames {
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if len(boxes[i]) == 0 || len(boxes[j]) == 0 {
							continue
						}
						idx, b := model.PairIndex(i, j), bruteOf(i, j)
						covisible := slices.Contains(b.visible, true)
						if idx == nil && covisible {
							t.Fatalf("pair (%d,%d) has co-visible samples and no index", i, j)
						}
						for _, box := range boxes[i] {
							got, gotVisible, err := model.MapBox(i, j, box)
							if err != nil {
								t.Fatal(err)
							}
							if idx == nil {
								if gotVisible {
									t.Fatalf("key frame pair (%d,%d) without an index maps box %v to %v", i, j, box, got)
								}
								unindexed++
								continue
							}
							visible := checkIndex(t, idx, b, box.Vec4())
							want, wantVisible := b.mapVec(box.Vec4())
							if gotVisible != wantVisible || (wantVisible && got != geom.RectFromVec4(want)) {
								t.Fatalf("key frame pair (%d,%d) box %v: MapBox %v %v, brute force %v %v", i, j, box, got, gotVisible, want, wantVisible)
							}
							queries++
							if visible {
								mapped++
							}
						}
					}
				}
			}
			if len(keyFrames) < frames/20 || queries < 1000 || mapped == 0 || mapped == queries || unindexed == 0 {
				t.Fatalf("%d key frames, %d indexed queries, %d mapped, %d unindexed: fixture degenerate", len(keyFrames), queries, mapped, unindexed)
			}

			votes := 0
			for src := 0; src < n; src++ {
				grid := geom.NewGrid(trace.Cameras[src].Frame(), assoc.GridCols, assoc.GridRows)
				cover, err := model.CellCoverage(src, grid)
				if err != nil {
					t.Fatal(err)
				}
				for c := range cover {
					vec := model.NominalBox(src, grid.CellCenter(c)).Vec4()
					want := []int{src}
					for dst := 0; dst < n; dst++ {
						if dst != src && model.PairIndex(src, dst) != nil {
							if bruteOf(src, dst).vote(vec) {
								want = append(want, dst)
							}
							votes++
						}
					}
					if !slices.Equal(cover[c], want) {
						t.Fatalf("camera %d cell %d: coverage %v, brute force %v", src, c, cover[c], want)
					}
				}
			}
			t.Logf("%d key frames: %d indexed queries (%d mapped), %d unindexed, %d coverage votes checked", len(keyFrames), queries, mapped, unindexed, votes)
		})
	}
}
