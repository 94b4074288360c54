package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/cluster"
	"mvs/internal/faults"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/shard"
	"mvs/internal/workload"
)

// twoCamWorld is a road seen end to end by two facing cameras.
func twoCamWorld(seed int64) *scene.World {
	road := scene.MustPath(geom.Point{X: 5, Y: -40}, geom.Point{X: 5, Y: 40})
	camA := &scene.Camera{
		Name: "a", Pos: geom.Point{X: 0, Y: -50}, Height: 8, Yaw: math.Pi / 2,
		Pitch: 0.4, Focal: 1000, ImageW: 1280, ImageH: 704, MaxRange: 62,
	}
	camB := &scene.Camera{
		Name: "b", Pos: geom.Point{X: 0, Y: 50}, Height: 8, Yaw: -math.Pi / 2,
		Pitch: 0.4, Focal: 1000, ImageW: 1280, ImageH: 704, MaxRange: 62,
	}
	return &scene.World{
		Routes:  []scene.Route{{Path: road, Speed: 8, Arrivals: scene.Poisson{RatePerSec: 0.5}}},
		Cameras: []*scene.Camera{camA, camB},
		FPS:     10, Seed: seed,
	}
}

func twoCamProfiles() []*profile.Profile {
	return []*profile.Profile{profile.Derived(profile.JetsonXavier), profile.Derived(profile.JetsonNano)}
}

// buildWorld runs w for frames, trains the association model on the
// first half and keeps the second for evaluation; sharded partitions the
// fleet by co-observation.
func buildWorld(t testing.TB, w *scene.World, profiles []*profile.Profile, frames int, sharded bool) *world {
	t.Helper()
	full, err := w.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	train, trace := full.SplitTrain()
	model, err := assoc.Train(train, assoc.Factories{})
	if err != nil {
		t.Fatal(err)
	}
	out := &world{trace: trace, model: model, profiles: profiles}
	if sharded {
		g, err := shard.FromCoObservation(trace.CoObservation(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.smap, err = shard.Partition(g, 0); err != nil {
			t.Fatal(err)
		}
		if len(out.smap.Boundary) != 0 {
			t.Fatalf("sharded world has boundary cameras %v: objects cross shards", out.smap.Boundary)
		}
	}
	return out
}

// engineRun is the in-process engine's record of a world: per-frame
// snapshots and round decisions.
func engineRun(t testing.TB, w *world, seed int64, horizon int) ([]metrics.Snapshot, []metrics.Round) {
	t.Helper()
	frames, rounds := &frameLog{}, &roundSink{}
	cfg := pipeline.NewConfig(pipeline.BALB, seed)
	cfg.Sched.Horizon = horizon
	cfg.Sched.Workers = 1
	cfg.Sched.Shards = w.smap
	cfg.Obs.Sink = frames
	cfg.Obs.Rounds = rounds
	if _, err := pipeline.Run(w.trace, w.profiles, w.model, cfg); err != nil {
		t.Fatal(err)
	}
	return frames.snaps, rounds.rounds
}

type roundSink struct{ rounds []metrics.Round }

func (s *roundSink) RecordRound(r metrics.Round) { s.rounds = append(s.rounds, r) }

// matchEngine is the zero-fault law: the deployment made the engine's
// central decision every round, and every node priced, tracked and
// shadowed every frame as the engine's camera did, never degraded,
// reconnected or lost a frame. A node's key-frame snapshot precedes its
// assignment where the engine's follows it, so there only the sum of
// tracks and shadows compares.
func matchEngine(w *world, horizon int, snaps []metrics.Snapshot, engRounds []metrics.Round, r *run) error {
	n := len(w.trace.Cameras)
	want, got := composeRounds(engRounds, n), composeRounds(r.rounds, n)
	if len(got) != len(want) {
		return fmt.Errorf("deployment completed %d rounds, engine %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Errorf("round %d diverged:\nengine:     %+v\ndeployment: %+v", i, want[i], got[i])
		}
	}
	for cam := 0; cam < n; cam++ {
		if len(r.frames[cam]) != len(snaps) {
			return fmt.Errorf("camera %d emitted %d snapshots, engine %d", cam, len(r.frames[cam]), len(snaps))
		}
		for fi, snap := range snaps {
			ns := r.frames[cam][fi]
			if ns.DegradedFrames != 0 || ns.Reconnects != 0 || ns.OutageFrames != 0 {
				return fmt.Errorf("camera %d frame %d: degraded %d, reconnects %d, outages %d without a fault",
					cam, fi, ns.DegradedFrames, ns.Reconnects, ns.OutageFrames)
			}
			e, c := snap.Cameras[cam], ns.Cameras[0]
			if adapt.KeyFrame(fi, horizon, 1) {
				e.Tracks, c.Tracks = e.Tracks+e.Shadows, c.Tracks+c.Shadows
				e.Shadows, c.Shadows = 0, 0
			}
			if e != c {
				return fmt.Errorf("frame %d camera %d diverged:\nengine: %+v\nnode:   %+v", fi, cam, e, c)
			}
		}
	}
	return nil
}

// lawCase is one world and plan the zero-fault law runs on.
type lawCase struct {
	name string
	w    func(t testing.TB) *world
	p    plan
}

var (
	worldsMu sync.Mutex
	worlds   = map[string]*world{}
)

// cached builds a world once per test binary.
func cached(name string, build func(t testing.TB) *world) func(t testing.TB) *world {
	return func(t testing.TB) *world {
		worldsMu.Lock()
		defer worldsMu.Unlock()
		if w, ok := worlds[name]; ok {
			return w
		}
		w := build(t)
		worlds[name] = w
		return w
	}
}

var (
	twoCamera = cached("two-camera", func(t testing.TB) *world {
		return buildWorld(t, twoCamWorld(5), twoCamProfiles(), 600, false)
	})
	s4 = cached("S4", func(t testing.TB) *world {
		return buildWorld(t, workload.S4(3).World, workload.S4(3).Profiles(), 900, false)
	})
)

// lawCases are the zero-fault law's worlds: two cameras facing down one
// road, S4, S4 with staggered registration and two sharded islands, then
// twenty seeded fleets — unsharded corridors of two to eight cameras
// over varied horizons, registration staggers and trace lengths, and
// sharded island layouts. Each world is built once per test binary.
func lawCases() []lawCase {
	cases := []lawCase{
		{"two-camera", twoCamera, plan{seed: 4, horizon: 10}},
		{"S4", s4, plan{seed: 4, horizon: 10}},
		{"S4-staggered", s4, plan{seed: 4, horizon: 10, stagger: 10 * time.Millisecond}},
		{"islands-sharded", cached("islands", func(t testing.TB) *world {
			is, err := workload.Islands(2, 3, 3)
			if err != nil {
				t.Fatal(err)
			}
			return buildWorld(t, is.World, is.Profiles(), 900, true)
		}), plan{seed: 4, horizon: 10}},
	}
	rng := rand.New(rand.NewSource(31))
	horizons := []int{5, 7, 10, 12}
	staggers := []time.Duration{0, 30 * time.Millisecond, 250 * time.Millisecond, 2 * time.Second}
	for i := 0; i < 20; i++ {
		p := plan{seed: int64(i), horizon: horizons[rng.Intn(len(horizons))], stagger: staggers[rng.Intn(len(staggers))]}
		frames := 160 + 40*rng.Intn(4)
		var name string
		var build func(t testing.TB) *world
		if i%5 == 4 {
			k, per := 2+rng.Intn(2), 2+rng.Intn(2)
			name = fmt.Sprintf("islands%dx%d-%dframes-T%d-stagger%v", k, per, frames, p.horizon, p.stagger)
			build = cached(name, func(t testing.TB) *world {
				is, err := workload.Islands(k, per, int64(i))
				if err != nil {
					t.Fatal(err)
				}
				return buildWorld(t, is.World, is.Profiles(), frames, true)
			})
		} else {
			n := 2 + rng.Intn(7)
			name = fmt.Sprintf("corridor%d-%dframes-T%d-stagger%v", n, frames, p.horizon, p.stagger)
			build = cached(name, func(t testing.TB) *world {
				c, err := workload.Corridor(n, int64(i))
				if err != nil {
					t.Fatal(err)
				}
				return buildWorld(t, c.World, c.Profiles(), frames, false)
			})
		}
		cases = append(cases, lawCase{name, build, p})
	}
	return cases
}

// holdToLaw runs each case through transport and holds the run to the
// zero-fault law.
func holdToLaw(t *testing.T, cases []lawCase, transport func(*world, plan) (*run, error)) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.w(t)
			r, err := transport(w, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			snaps, rounds := engineRun(t, w, tc.p.seed, tc.p.horizon)
			if len(rounds) == 0 {
				t.Fatal("the engine scheduled no round")
			}
			if err := matchEngine(w, tc.p.horizon, snaps, rounds, r); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVirtualDeploymentMatchesEngine holds the deployment on virtual
// time to the zero-fault law on every lawCase.
func TestVirtualDeploymentMatchesEngine(t *testing.T) {
	t.Parallel()
	holdToLaw(t, lawCases(), deploy)
}

// loopbackCases are the lawCases named, in order.
func loopbackCases(t *testing.T, names ...string) []lawCase {
	all := lawCases()
	var out []lawCase
	for _, name := range names {
		i := slices.IndexFunc(all, func(tc lawCase) bool { return tc.name == name })
		if i < 0 {
			t.Fatalf("no law case %q", name)
		}
		out = append(out, all[i])
	}
	return out
}

// TestLoopbackDeploymentMatchesEngine holds the deployment over real
// sockets — Scheduler.Serve on loopback TCP, each node behind the
// ReconnectClient mvnode ships — to the zero-fault law and the shell's
// round and reply rules (loopback) on two cameras, S4 and a seeded
// corridor. Staggered registration is the virtual transport's: it plays
// staggers up to 2 s without sleeping through them.
func TestLoopbackDeploymentMatchesEngine(t *testing.T) {
	t.Parallel()
	holdToLaw(t, loopbackCases(t, "two-camera", "S4", "corridor7-240frames-T5-stagger0s"), loopback)
}

// TestShardedLoopbackDeploymentMatchesEngine is the loopback law on the
// two sharded islands: one shell over a round machine per shard, each
// shard's records and snapshots labelled and numbered on their own, its
// rows and priorities in global camera indices, and every reply scoped
// to the shard's roster.
func TestShardedLoopbackDeploymentMatchesEngine(t *testing.T) {
	t.Parallel()
	holdToLaw(t, loopbackCases(t, "islands-sharded"), loopback)
}

// TestAdaptLockstepOnVirtualTime runs the deployment under a
// scheduler-side controller whose SLO no round can meet, so the ladder
// steps and the cadence stretches mid-run: every node, following only
// the level its assignments carry, must key-frame on the same frames
// (the deployment already holds each to the adapt.KeyFrame grid of its
// last level), and every one of those rounds must complete with the
// whole roster — no node left waiting for a peer on another grid.
func TestAdaptLockstepOnVirtualTime(t *testing.T) {
	t.Parallel()
	w := s4(t)
	const horizon = 10
	r, err := deploy(w, plan{seed: 4, horizon: horizon,
		opts: []cluster.Option{cluster.WithAdapt(adapt.Policy{SLO: time.Millisecond, Cooldown: 1})}})
	if err != nil {
		t.Fatal(err)
	}
	keys := r.keyFrames[0]
	for cam := range r.keyFrames {
		if !reflect.DeepEqual(r.keyFrames[cam], keys) {
			t.Fatalf("camera %d key-framed on %v, camera 0 on %v", cam, r.keyFrames[cam], keys)
		}
		if st := r.stats[cam]; st.AdaptLevel < 1 || st.DegradedFrames != 0 {
			t.Fatalf("camera %d ended at adapt level %d with %d degraded frames", cam, st.AdaptLevel, st.DegradedFrames)
		}
	}
	if plain := (len(w.trace.Frames) + horizon - 1) / horizon; len(keys) >= plain {
		t.Fatalf("%d key frames over %d frames: the cadence never stretched", len(keys), len(w.trace.Frames))
	}
	if len(r.rounds) != len(keys) {
		t.Fatalf("scheduler completed %d rounds, nodes key-framed %d times", len(r.rounds), len(keys))
	}
	for i, rd := range r.rounds {
		if rd.Frame != keys[i] || rd.Partial {
			t.Fatalf("round %d: frame %d partial=%v, want frame %d with the full roster", i, rd.Frame, rd.Partial, keys[i])
		}
	}
}

// TestChaosDegradedRejoinEndToEnd is the chaos run of two nodes against
// a scheduler with round timeouts, whose connections die on every fifth
// write: every node must finish its trace — degraded when a round gets
// no assignment, rejoining when one does — with the fault counters in
// its snapshots, and together the nodes still see most objects.
func TestChaosDegradedRejoinEndToEnd(t *testing.T) {
	t.Parallel()
	w := twoCamera(t)
	r, err := deploy(w, plan{seed: 4, horizon: 10, attempts: 6, deadline: 2 * time.Second,
		opts:    []cluster.Option{cluster.WithRoundTimeout(250 * time.Millisecond), cluster.WithLease(5 * time.Second)},
		timeout: 250 * time.Millisecond, lease: 5 * time.Second,
		faults: faults.Config{Seed: 23, WriteCut: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if r.faults == 0 {
		t.Fatal("no faults injected")
	}
	reconnects := 0
	for cam, st := range r.stats {
		reconnects += st.Reconnects
		last := r.frames[cam][len(r.frames[cam])-1]
		if last.Reconnects != st.Reconnects || last.DegradedFrames != st.DegradedFrames {
			t.Fatalf("camera %d: last snapshot (%d reconnects, %d degraded) disagrees with stats %+v",
				cam, last.Reconnects, last.DegradedFrames, st)
		}
	}
	if reconnects == 0 {
		t.Fatal("no reconnects despite injected kills")
	}
	// Degraded mode keeps the nodes inspecting: together they still see
	// most objects.
	truth := map[int]bool{}
	for fi := range w.trace.Frames {
		for id := range w.trace.Frames[fi].VisibleObjectIDs() {
			truth[id] = true
		}
	}
	missed := 0
	for id := range truth {
		if !r.detected[0][id] && !r.detected[1][id] {
			missed++
		}
	}
	if len(truth) == 0 || float64(missed) > 0.3*float64(len(truth)) {
		t.Fatalf("missed %d/%d distinct objects under chaos", missed, len(truth))
	}
}

// chaosWorlds are the small fleets the seeded fault schedules run on.
var chaosWorlds = []func(t testing.TB) *world{
	cached("chaos-two-camera", func(t testing.TB) *world {
		return buildWorld(t, twoCamWorld(7), twoCamProfiles(), 120, false)
	}),
	cached("chaos-corridor3", func(t testing.TB) *world {
		c, err := workload.Corridor(3, 2)
		if err != nil {
			t.Fatal(err)
		}
		return buildWorld(t, c.World, c.Profiles(), 120, false)
	}),
	cached("chaos-corridor4", func(t testing.TB) *world {
		c, err := workload.Corridor(4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return buildWorld(t, c.World, c.Profiles(), 120, false)
	}),
}

// chaosPlan draws one seeded fault schedule and deployment: message
// delay and jitter, dropped writes, reset reads, every few writes cut,
// partitions, camera outages, and the scheduler's lease, round timeout
// and the nodes' heartbeat, reply budget and attempts, each on or off.
// The nodes own all they see: the laws are the protocol's, and masks cost
// most of a registration here.
func chaosPlan(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{
		seed: seed, horizon: []int{5, 10}[rng.Intn(2)],
		stagger:  time.Duration(rng.Intn(300)) * time.Millisecond,
		deadline: time.Duration(300+rng.Intn(1700)) * time.Millisecond,
		attempts: 1 + rng.Intn(4),
		maskless: true,
		faults: faults.Config{
			Seed:      seed,
			DropRate:  0.1 * rng.Float64(),
			ResetRate: 0.1 * rng.Float64(),
			Delay:     time.Duration(rng.Intn(20)) * time.Millisecond,
			Jitter:    time.Duration(rng.Intn(60)) * time.Millisecond,
		},
	}
	if rng.Intn(3) == 0 {
		p.faults.WriteCut = 3 + rng.Intn(6)
	}
	if rng.Intn(3) == 0 {
		start := time.Duration(rng.Intn(6000)) * time.Millisecond
		p.faults.Partitions = []faults.Window{{Start: start, End: start + time.Duration(200+rng.Intn(3000))*time.Millisecond}}
	}
	if rng.Intn(2) == 0 {
		p.lease = time.Duration(300+rng.Intn(1500)) * time.Millisecond
		p.opts = append(p.opts, cluster.WithLease(p.lease))
		if rng.Intn(2) == 0 {
			p.heartbeat = 2 + rng.Intn(4)
		}
	}
	if rng.Intn(2) == 0 {
		p.timeout = time.Duration(200+rng.Intn(800)) * time.Millisecond
		p.opts = append(p.opts, cluster.WithRoundTimeout(p.timeout))
	}
	if rng.Intn(3) == 0 {
		cam, from := rng.Intn(2), rng.Intn(60)
		to := from + 5 + rng.Intn(30)
		p.down = func(c, fi int) bool { return c == cam && fi >= from && fi < to }
	}
	return p
}

// TestChaosSeededDeploymentLaws runs five hundred seeded fault schedules
// through the deployment, which holds every one to the laws: no camera
// answered twice for a round, no round scheduled before its barrier or
// its timeout, every applied assignment the one for its key frame,
// degraded mode entered at a missed round and left at the first key
// frame whose assignment arrives, degraded frames and reconnects
// counted, the cadence on the grid of the last applied level, every node
// through its trace, and no round left pending.
func TestChaosSeededDeploymentLaws(t *testing.T) {
	t.Parallel()
	const schedules = 500
	var faulted, degraded, partial, reconnects int
	for seed := int64(0); seed < schedules; seed++ {
		w := chaosWorlds[seed%int64(len(chaosWorlds))](t)
		p := chaosPlan(seed)
		r, err := deploy(w, p)
		if err != nil {
			t.Fatalf("schedule %d (%+v): %v", seed, p.faults, err)
		}
		if r.faults > 0 {
			faulted++
		}
		for _, st := range r.stats {
			degraded += st.DegradedFrames
			reconnects += st.Reconnects
		}
		for _, rd := range r.rounds {
			if rd.Partial {
				partial++
			}
		}
	}
	t.Logf("%d/%d schedules faulted: %d degraded frames, %d reconnects, %d partial rounds",
		faulted, schedules, degraded, reconnects, partial)
	if faulted < schedules/2 || degraded == 0 || reconnects == 0 || partial == 0 {
		t.Fatal("the schedules never exercised faults, degraded mode, reconnects and partial rounds together")
	}
}
