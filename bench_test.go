// Package mvs's root benchmarks time the layers: the central stage and
// its scaling, association, training, the streaming engine and live
// ingest. Every table, figure and ablation (optimality gap, batch
// awareness, heterogeneity) is regenerated in one place, `mvexp -exp
// ...` (DESIGN.md's experiment index); the end-to-end benchmark with
// paired runs lives in bench/.
package mvs

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/core"
	"mvs/internal/experiments"
	"mvs/internal/geom"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// --- Central-stage and association benches ---

// randomInstance builds a synthetic MVS instance.
func randomInstance(rng *rand.Rand, m, n int) ([]core.CameraSpec, []core.ObjectSpec) {
	classes := []profile.DeviceClass{profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier}
	cams := make([]core.CameraSpec, m)
	for i := range cams {
		cams[i] = core.CameraSpec{Index: i, Profile: profile.Derived(classes[i%3])}
	}
	sizes := []int{64, 128, 256, 512}
	objects := make([]core.ObjectSpec, n)
	for i := range objects {
		k := 1 + rng.Intn(m)
		perm := rng.Perm(m)[:k]
		sz := make(map[int]int, k)
		for _, c := range perm {
			sz[c] = sizes[rng.Intn(4)]
		}
		objects[i] = core.ObjectSpec{ID: i + 1, Coverage: perm, Size: sz}
	}
	return cams, objects
}

// BenchmarkCentralStage measures the central-stage scheduling cost at the
// paper's scale (5 cameras, 100 objects) — the Table II "central stage"
// component.
func BenchmarkCentralStage(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cams, objects := randomInstance(rng, 5, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Central(cams, objects, core.CentralOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCentralReassign measures the cost of the central stage's
// fault response: when a quarter of the cameras drop, the scheduler
// re-runs core.Central over the healthy subset (objects filtered to
// surviving coverage). This is the recompute the health tracker
// triggers at the next key frame after an outage, so its cost bounds
// how cheaply the system absorbs a camera loss at 4/8/16 cameras.
func BenchmarkCentralReassign(b *testing.B) {
	for _, m := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("cams=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			cams, objects := randomInstance(rng, m, 25*m)
			// First quarter of the roster goes dark; rebuild the instance
			// the central stage actually sees.
			deadBelow := m / 4
			alive := cams[deadBelow:]
			surviving := make([]core.ObjectSpec, 0, len(objects))
			orphaned := 0
			for _, o := range objects {
				cover := make([]int, 0, len(o.Coverage))
				sz := make(map[int]int, len(o.Coverage))
				for _, c := range o.Coverage {
					if c >= deadBelow {
						cover = append(cover, c-deadBelow)
						sz[c-deadBelow] = o.Size[c]
					}
				}
				if len(cover) == 0 {
					orphaned++ // no live camera sees it: nothing to schedule
					continue
				}
				surviving = append(surviving, core.ObjectSpec{ID: o.ID, Coverage: cover, Size: sz})
			}
			reindexed := make([]core.CameraSpec, len(alive))
			for i, c := range alive {
				reindexed[i] = core.CameraSpec{Index: i, Profile: c.Profile}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Central(reindexed, surviving, core.CentralOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(orphaned), "orphaned-objects")
		})
	}
}

// BenchmarkCrossCameraAssociation measures one association round on the
// prepared S1 setup (5 cameras), using a mid-trace frame's boxes.
func BenchmarkCrossCameraAssociation(b *testing.B) {
	s1, err := experiments.Prepare("S1", 42, 600, 0)
	if err != nil {
		b.Fatal(err)
	}
	frame := &s1.Test.Frames[len(s1.Test.Frames)/2]
	perCam := make([][]geom.Rect, len(frame.PerCamera))
	for ci, obs := range frame.PerCamera {
		for _, o := range obs {
			perCam[ci] = append(perCam[ci], o.Box)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s1.Model.Associate(perCam, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Central-stage scaling benches (docs/SCALING.md) ---

// corridorWorld chains n cameras, spacing metres apart, along a straight
// road (the S4 idiom at arbitrary width): adjacent cameras overlap, so
// the trained model holds O(n) useful pairs out of the n*(n-1) directed
// pairs the association layer enumerates — more of them the closer the
// cameras stand. Traffic arrives on per-segment routes (one pair per
// adjacent camera pair) rather than one end-to-end route, so every
// camera sees vehicles from the first frames even on a short trace —
// a full-corridor route would leave the far half of a 32-camera world
// empty for the first ~two minutes.
func corridorWorld(seed int64, n int, spacing float64) *scene.World {
	length := spacing * float64(n+1)
	camX := func(i int) float64 { return -length/2 + spacing*float64(i+1) }
	cams := make([]*scene.Camera, n)
	var routes []scene.Route
	for i := range cams {
		x := camX(i)
		y, yaw := 16.0, -0.35
		if i%2 == 1 {
			y, yaw = -16.0, 0.35
		}
		cams[i] = &scene.Camera{
			Name: fmt.Sprintf("corridor-%d", i), Pos: geom.Point{X: x, Y: y},
			Height: 8, Yaw: yaw, Pitch: 0.4, Focal: 560,
			ImageW: 1280, ImageH: 704, MaxRange: 68,
		}
		if i+1 < n {
			a, bx := camX(i)-spacing/2, camX(i+1)+spacing/2
			east := scene.MustPath(geom.Point{X: a, Y: 4}, geom.Point{X: bx, Y: 4})
			west := scene.MustPath(geom.Point{X: bx, Y: -4}, geom.Point{X: a, Y: -4})
			routes = append(routes,
				scene.Route{Path: east, Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.3}},
				scene.Route{Path: west, Speed: 9, Arrivals: scene.Poisson{RatePerSec: 0.3}},
			)
		}
	}
	return &scene.World{
		Routes:  routes,
		Cameras: cams,
		FPS:     10,
		Seed:    seed,
	}
}

// corridorFixture is a cached corridor world of one width and spacing:
// the training half, a trained model, one mid-trace frame's boxes, and
// the boxes of every key frame (each tenth frame) of the test half.
type corridorFixture struct {
	train    *scene.Trace
	model    *assoc.Model
	boxes    [][]geom.Rect
	keyBoxes [][][]geom.Rect
	err      error
}

// corridorKey names a corridor fixture: width and camera spacing.
type corridorKey struct {
	cams    int
	spacing float64
}

var (
	corridorMu       sync.Mutex
	corridorFixtures = map[corridorKey]*corridorFixture{}
)

// frameBoxes is one frame's per-camera detection boxes, ground truth.
func frameBoxes(frame *scene.FrameTruth) [][]geom.Rect {
	boxes := make([][]geom.Rect, len(frame.PerCamera))
	for ci, obs := range frame.PerCamera {
		for _, o := range obs {
			boxes[ci] = append(boxes[ci], o.Box)
		}
	}
	return boxes
}

// benchCorridor builds (once per width and spacing) the corridor fixture
// used by the central-stage scaling benches.
func benchCorridor(b *testing.B, cams int, spacing float64) *corridorFixture {
	b.Helper()
	corridorMu.Lock()
	key := corridorKey{cams, spacing}
	fx, ok := corridorFixtures[key]
	if !ok {
		fx = &corridorFixture{}
		corridorFixtures[key] = fx
		fx.err = func() error {
			trace, err := corridorWorld(9, cams, spacing).Run(240)
			if err != nil {
				return err
			}
			train, test := trace.SplitTrain()
			start := time.Now()
			model, err := assoc.Train(train, assoc.Factories{})
			if err != nil {
				return err
			}
			b.Logf("corridor %d cameras, %g m apart: trained in %v", cams, spacing, time.Since(start).Round(time.Millisecond))
			fx.boxes = frameBoxes(&test.Frames[len(test.Frames)/2])
			for fi := 0; fi < len(test.Frames); fi += 10 {
				fx.keyBoxes = append(fx.keyBoxes, frameBoxes(&test.Frames[fi]))
			}
			fx.train, fx.model = train, model
			return nil
		}()
	}
	corridorMu.Unlock()
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	return fx
}

// BenchmarkTrainWorkers measures association-model training — the
// N*(N-1) directed-pair fan-out — across corridor widths and worker
// bounds. The trained model is bit-identical at every width (the
// determinism contract); docs/SCALING.md records the measured table.
func BenchmarkTrainWorkers(b *testing.B) {
	for _, cams := range []int{4, 8, 16, 32} {
		for _, w := range []int{1, 4, 8} {
			cams, w := cams, w
			b.Run(fmt.Sprintf("cams=%d/workers=%d", cams, w), func(b *testing.B) {
				fx := benchCorridor(b, cams, 40)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := assoc.Train(fx.train, assoc.Factories{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAssociateWorkers measures one cross-camera association round
// — the N*(N-1)/2 unordered-pair Hungarian fan-out — across corridor
// widths and worker bounds, on a mid-trace frame's boxes. The dense
// case stands the cameras 8 m apart, where every camera overlaps many
// others and a round is large enough for the fan-out to pay if it ever
// does: it associates the test half's twelve key frames in turn on one
// reused Workspace, as central.Round does (docs/SCALING.md §2).
func BenchmarkAssociateWorkers(b *testing.B) {
	for _, cams := range []int{4, 8, 16, 32} {
		for _, w := range []int{1, 4, 8} {
			cams, w := cams, w
			b.Run(fmt.Sprintf("cams=%d/workers=%d", cams, w), func(b *testing.B) {
				fx := benchCorridor(b, cams, 40)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fx.model.AssociateWorkers(fx.boxes, assoc.MinIoU, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, cams := range []int{32, 64} {
		for _, w := range []int{1, 2} {
			cams, w := cams, w
			b.Run(fmt.Sprintf("dense/cams=%d/workers=%d", cams, w), func(b *testing.B) {
				fx := benchCorridor(b, cams, 8)
				var ws assoc.Workspace
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ws.Associate(fx.model, fx.keyBoxes[i%len(fx.keyBoxes)], assoc.MinIoU, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// engineFixture caches the 16-camera corridor run shared by the
// streaming-engine benches: test trace, trained model, and profiles.
type engineFixture struct {
	test     *scene.Trace
	model    *assoc.Model
	profiles []*profile.Profile
	err      error
}

var (
	engineFixOnce sync.Once
	engineFix     engineFixture
)

func benchEngineFixture(b *testing.B) *engineFixture {
	b.Helper()
	engineFixOnce.Do(func() {
		engineFix.err = func() error {
			s, err := workload.Corridor(16, 9)
			if err != nil {
				return err
			}
			trace, err := s.World.Run(300)
			if err != nil {
				return err
			}
			train, test := trace.SplitTrain()
			model, err := assoc.Train(train, assoc.Factories{})
			if err != nil {
				return err
			}
			engineFix.test, engineFix.model, engineFix.profiles = test, model, s.Profiles()
			return nil
		}()
	})
	if engineFix.err != nil {
		b.Fatal(engineFix.err)
	}
	return &engineFix
}

// BenchmarkEngineStream prices the streaming engine against the batch
// wrapper on a 16-camera corridor — the API-redesign acceptance point:
// the per-frame cost of NewEngine+Step must stay within ~10% of
// pipeline.Run. Both sub-benches produce bit-identical modeled reports
// (TestEngineMatchesRun); only the ns/frame metric should differ, and
// barely (docs/STREAMING.md records the measured numbers).
func BenchmarkEngineStream(b *testing.B) {
	fx := benchEngineFixture(b)
	cfg := pipeline.NewConfig(pipeline.BALB, 42)
	frames := float64(len(fx.test.Frames))
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.Run(fx.test, fx.profiles, fx.model, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*frames), "ns/frame")
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := pipeline.NewEngine(pipeline.NewTraceSource(fx.test), fx.profiles, fx.model, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Report(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*frames), "ns/frame")
	})
}

// BenchmarkIngestSource prices the live-ingest admission path — Offer
// into the per-camera bounded queues, min-head assembly, Next — on
// corridor fleets of 8 and 32 cameras (docs/STREAMING.md §6). The 1x
// sub-benches offer exactly one frame per camera per Next, so nothing
// sheds and the number is the pure assembly cost; the 4x sub-benches
// offer four, overflowing the default 16-part queues so every Offer
// beyond saturation exercises the drop-oldest shed policy. Shedding
// must not make admission slower — the shed path is a queue-head drop,
// not a scan — so ns/frame should hold roughly flat across loads.
func BenchmarkIngestSource(b *testing.B) {
	for _, cams := range []int{8, 32} {
		s, err := workload.Corridor(cams, 9)
		if err != nil {
			b.Fatal(err)
		}
		trace, err := s.World.Run(240)
		if err != nil {
			b.Fatal(err)
		}
		_, test := trace.SplitTrain()
		for _, load := range []int{1, 4} {
			load := load
			b.Run(fmt.Sprintf("cams=%d/load=%dx", cams, load), func(b *testing.B) {
				steps := len(test.Frames) / load
				var shed float64
				var parts []pipeline.FramePart
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src, err := pipeline.NewIngestSource(test.Cameras, pipeline.IngestConfig{})
					if err != nil {
						b.Fatal(err)
					}
					next := 0
					for step := 0; step < steps; step++ {
						for l := 0; l < load; l++ {
							f := &test.Frames[next]
							next++
							parts = pipeline.AppendFrameParts(parts[:0], f.Index, f)
							for _, p := range parts {
								if err := src.Offer(p); err != nil {
									b.Fatal(err)
								}
							}
						}
						if _, err := src.Next(); err != nil {
							b.Fatal(err)
						}
					}
					shed = float64(src.Counters().Shed)
					src.Close()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(steps*load)), "ns/frame")
				b.ReportMetric(shed, "shed-parts")
			})
		}
	}
}

// BenchmarkCentralStageScaling measures how the central stage scales
// with object count at 8 cameras (complexity O(N log N + M N)).
func BenchmarkCentralStageScaling(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		n := n
		b.Run(fmt.Sprintf("objects-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			cams, objects := randomInstance(rng, 8, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Central(cams, objects, core.CentralOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
