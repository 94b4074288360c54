package node

import (
	"math"
	"runtime"
	"testing"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/cluster"
	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/scene"
)

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

// fakeScheduler stands in for the scheduler where a test feeds a
// Runtime by hand: every key frame is answered with a keep-everything
// assignment at its level, except the frames down names, which get no
// answer (the miss).
type fakeScheduler struct {
	down       func(fi int) bool
	level      int
	reconnects int
	keyFrames  []int
}

// step runs frame fi on rt and settles its key frame.
func (f *fakeScheduler) step(rt *Runtime, fi int, obs []scene.Observation) error {
	_, settle, err := rt.Step(fi, obs, f.reconnects)
	if err != nil || settle == nil {
		return err
	}
	f.keyFrames = append(f.keyFrames, fi)
	if f.down != nil && f.down(fi) {
		return settle(nil)
	}
	return settle(&cluster.Assignment{Frame: fi, Priority: []int{0, 1}, AdaptLevel: f.level})
}

func baseConfig(cam int) Config {
	return Config{
		Camera:     cam,
		Frame:      geom.Rect{MaxX: 1280, MaxY: 704},
		Profile:    profile.Derived(profile.JetsonXavier),
		GridCols:   assoc.GridCols,
		GridRows:   assoc.GridRows,
		NumCameras: 2,
		Seed:       9,
		Horizon:    10,
	}
}

func TestNewValidation(t *testing.T) {
	cfg := baseConfig(0)
	cfg.Frame = geom.Rect{}
	if _, err := New(cfg); err == nil {
		t.Fatal("empty frame accepted")
	}
	cfg = baseConfig(0)
	cfg.NumCameras = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero cameras accepted")
	}
	cfg = baseConfig(0)
	cfg.Profile = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("nil profile accepted")
	}
	cfg = baseConfig(0)
	cfg.Horizon = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero horizon accepted")
	}
	cfg = baseConfig(0)
	cfg.Coverage = [][]int{{0}} // wrong cell count
	if _, err := New(cfg); err == nil {
		t.Fatal("coverage/grid mismatch accepted")
	}
}

func TestStandaloneLoopWithoutMasks(t *testing.T) {
	// Without coverage, the node behaves like BALB-Ind: it owns
	// everything it sees.
	world := twoCamWorld(3)
	trace, err := world.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(baseConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	// Standalone: the fake scheduler answers with an identity assignment.
	sched := &fakeScheduler{}
	for fi := range trace.Frames {
		if err := sched.step(rt, fi, trace.Frames[fi].PerCamera[0]); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Frames != 200 {
		t.Fatalf("frames = %d", st.Frames)
	}
	if st.MeanLatency <= 0 {
		t.Fatalf("mean latency = %v", st.MeanLatency)
	}
	if st.DetectedObjects == 0 {
		t.Fatal("nothing detected")
	}
}

func TestApplyAssignmentDemotesShadows(t *testing.T) {
	rt, err := New(baseConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	obs := []scene.Observation{
		{ObjectID: 1, Box: geom.Rect{MinX: 100, MinY: 100, MaxX: 160, MaxY: 150}},
	}
	reports, err := rt.keyFrame(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %v", reports)
	}
	err = rt.applyAssignment(&cluster.Assignment{
		Frame:    0,
		Shadows:  []cluster.ShadowOrder{{TrackID: reports[0].TrackID, AssignedCamera: 1}},
		Priority: []int{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.ActiveTracks != 0 || st.Shadows != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestApplyAssignmentErrors(t *testing.T) {
	rt, err := New(baseConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.applyAssignment(nil); err == nil {
		t.Fatal("nil assignment accepted")
	}
	if err := rt.applyAssignment(&cluster.Assignment{Priority: []int{0, 0}}); err == nil {
		t.Fatal("bad priority accepted")
	}
	// Shadow for an unknown track is ignored, not an error.
	if err := rt.applyAssignment(&cluster.Assignment{
		Priority: []int{0, 1},
		Shadows:  []cluster.ShadowOrder{{TrackID: 999, AssignedCamera: 1}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyAssignmentRejectsForeignCameras feeds a 2-camera node
// assignments naming a camera outside the fleet — camera 2, one past
// it, in each list an assignment carries and as a shadow's owner, and
// camera -1 — and each is refused before anything is built: the policy
// and the adapt level in force stay.
func TestApplyAssignmentRejectsForeignCameras(t *testing.T) {
	rt, err := New(baseConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	policy := rt.policy
	for name, a := range map[string]*cluster.Assignment{
		"dead":            {Priority: []int{0, 1}, Dead: []int{2}},
		"negative dead":   {Priority: []int{0, 1}, Dead: []int{-1}},
		"scoped priority": {Priority: []int{2}, Roster: []int{0}},
		"roster":          {Priority: []int{0}, Roster: []int{0, 2}},
		"priority":        {Priority: []int{0, 1, 2}},
		"shadow owner": {Priority: []int{0, 1}, AdaptLevel: 1,
			Shadows: []cluster.ShadowOrder{{TrackID: 1, AssignedCamera: 2}}},
		"negative shadow owner": {Priority: []int{0, 1}, AdaptLevel: 1,
			Shadows: []cluster.ShadowOrder{{TrackID: 1, AssignedCamera: 0}, {TrackID: 2, AssignedCamera: -1}}},
	} {
		if err := rt.applyAssignment(a); err == nil {
			t.Errorf("%s: assignment %+v accepted on a 2-camera node", name, a)
		}
		if rt.policy != policy || rt.adaptLevel != 0 {
			t.Fatalf("%s: a refused assignment replaced the policy or the adapt level", name)
		}
	}
}

// TestNewRegionsFollowTheSizeCap pins that a degraded node prices what it
// newly sees at the capped size too: at ladder level 2 (cap 128) one
// unexplained 300-px box costs one 128-px inspection, not a 512-px one.
func TestNewRegionsFollowTheSizeCap(t *testing.T) {
	cfg := baseConfig(0)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.keyFrame(nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.applyAssignment(&cluster.Assignment{Priority: []int{0, 1}, AdaptLevel: 2}); err != nil {
		t.Fatal(err)
	}
	if got := adapt.SizeCapFor(rt.adaptLevel); got != 128 {
		t.Fatalf("level 2 caps sizes at %d, test assumes 128", got)
	}
	err = rt.regularFrame([]scene.Observation{
		{ObjectID: 1, Box: geom.Rect{MinX: 400, MinY: 200, MaxX: 700, MaxY: 500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lat, want := rt.out.Latency, profile.TrueBatchLatency(cfg.Profile.Class, 128, 1)
	if lat != want {
		t.Fatalf("regular frame cost %v, want one 128-px task = %v (one 512-px task = %v)",
			lat, want, profile.TrueBatchLatency(cfg.Profile.Class, 512, 1))
	}
}

// regularFrameAllocCeiling bounds the mean allocations of one
// Runtime.regularFrame on the two-camera trace below: 1.5x the 0.10
// measured when the node became a host of the camera kernel (its own
// copy of the frame loop allocated 4.3). What is left is what outlives
// a frame: new tracks, grown scratch, newly detected IDs.
const regularFrameAllocCeiling = 0.15

// TestRegularFrameAllocationBudget guards the node against growing a
// per-frame make() of its own again: the scratch-ownership rule
// (docs/CONCURRENCY.md §6) holds in the kernel, so a node's regular
// frame over an unchanging scene allocates nothing at all.
func TestRegularFrameAllocationBudget(t *testing.T) {
	cfg := baseConfig(0)
	cfg.Detector.MissBase = 1e-12 // no misses: no track is dropped and respawned
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := []scene.Observation{
		{ObjectID: 1, Box: geom.Rect{MinX: 100, MinY: 100, MaxX: 160, MaxY: 150}},
		{ObjectID: 2, Box: geom.Rect{MinX: 600, MinY: 300, MaxX: 720, MaxY: 420}},
		{ObjectID: 3, Box: geom.Rect{MinX: 900, MinY: 500, MaxX: 960, MaxY: 550}},
	}
	if _, err := rt.keyFrame(obs); err != nil {
		t.Fatal(err)
	}
	frame := func() {
		if err := rt.regularFrame(obs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		frame()
	}
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Fatalf("%v allocations per regular frame with no arrivals or departures, want 0", n)
	}
	if st := rt.Stats(); st.ActiveTracks != len(obs) {
		t.Fatalf("scene was not steady: %+v", st)
	}

	// With arrivals and departures: the sparse two-camera world.
	trace, err := twoCamWorld(3).Run(600)
	if err != nil {
		t.Fatal(err)
	}
	if rt, err = New(baseConfig(0)); err != nil {
		t.Fatal(err)
	}
	var mallocs uint64
	regular := 0
	for fi := range trace.Frames {
		obs := trace.Frames[fi].PerCamera[0]
		if adapt.KeyFrame(fi, 10, 1) {
			if _, err := rt.keyFrame(obs); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := rt.regularFrame(obs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if fi >= 300 { // warm: scratch has grown to the scene's size
			mallocs += after.Mallocs - before.Mallocs
			regular++
		}
	}
	perFrame := float64(mallocs) / float64(regular)
	t.Logf("%.2f allocations per regular frame", perFrame)
	if perFrame > regularFrameAllocCeiling {
		t.Fatalf("%.2f allocations per regular frame, ceiling %v", perFrame, regularFrameAllocCeiling)
	}
}
