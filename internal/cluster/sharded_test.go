package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/shard"
	"mvs/internal/workload"
)

// shardedEnv is a trained corridor world split into overlap-group
// shards, with the trace kept around so tests can report ground-truth
// boxes.
type shardedEnv struct {
	model    *assoc.Model
	profiles []*profile.Profile
	test     *scene.Trace
	m        *shard.Map
}

var (
	shardedEnvsMu sync.Mutex
	shardedEnvs   = map[[3]int64]*shardedEnv{}
)

// buildShardedEnv trains a corridor of n cameras and partitions it by
// the model's coverage overlap with the given max shard size. Each
// environment is built once per package run; tests only read it.
func buildShardedEnv(t *testing.T, n int, seed int64, maxShard int) *shardedEnv {
	t.Helper()
	key := [3]int64{int64(n), seed, int64(maxShard)}
	shardedEnvsMu.Lock()
	defer shardedEnvsMu.Unlock()
	if e := shardedEnvs[key]; e != nil {
		return e
	}
	s, err := workload.Corridor(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := s.World.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	train, test := trace.SplitTrain()
	model, err := assoc.Train(train, assoc.Factories{})
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]geom.Rect, len(s.World.Cameras))
	for i, c := range s.World.Cameras {
		frames[i] = c.Frame()
	}
	adj, err := model.OverlapAdjacency(frames)
	if err != nil {
		t.Fatal(err)
	}
	g, err := shard.FromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Partition(g, maxShard)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() < 2 {
		t.Fatalf("corridor of %d with max shard %d did not split: %v", n, maxShard, m.String())
	}
	e := &shardedEnv{model: model, profiles: s.Profiles(), test: test, m: m}
	shardedEnvs[key] = e
	return e
}

// startSharded serves a sharded scheduler on a loopback port.
func startSharded(t *testing.T, e *shardedEnv, opts ...Option) (*Scheduler, string) {
	t.Helper()
	ss, err := NewShardedScheduler(e.model, e.profiles, 0, e.m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ss.Serve(ln) }()
	t.Cleanup(func() {
		ss.Close()
		ln.Close()
	})
	return ss, ln.Addr().String()
}

// boundaryPair picks a boundary edge (a in the lower-ID shard, b in the
// higher) plus a trace frame and object visible from both — a hand-off
// fixture whose mapped IoU clears the scheduler's matching threshold,
// so the claim is guaranteed to be consultable.
func boundaryPair(t *testing.T, e *shardedEnv) (a, b, frame, object int) {
	t.Helper()
	for _, edge := range e.m.Boundary {
		a, b := edge.A, edge.B
		if e.m.ShardOf[a] > e.m.ShardOf[b] {
			a, b = b, a
		}
		for fi := range e.test.Frames {
			ft := &e.test.Frames[fi]
			for _, oa := range ft.PerCamera[a] {
				for _, ob := range ft.PerCamera[b] {
					if oa.ObjectID != ob.ObjectID {
						continue
					}
					mapped, visible, err := e.model.MapBox(a, b, oa.Box)
					if err != nil || !visible || mapped.IoU(ob.Box) < 0.2 {
						continue
					}
					return a, b, fi, oa.ObjectID
				}
			}
		}
	}
	t.Fatal("no boundary-visible object found in trace")
	return 0, 0, 0, 0
}

// reportFor converts a camera's ground-truth observations at a trace
// frame into track reports (track ID = ground-truth object ID, which is
// camera-local enough for these tests).
func reportFor(e *shardedEnv, frame, cam int) []TrackReport {
	var out []TrackReport
	for _, o := range e.test.Frames[frame].PerCamera[cam] {
		out = append(out, TrackReport{
			TrackID: o.ObjectID,
			Box:     [4]float64{o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY},
			Size:    64,
		})
	}
	return out
}

// keyFrameAll drives one key-frame round for the given cameras
// concurrently and returns their assignments.
func keyFrameAll(t *testing.T, clients map[int]*Client, cams []int, wire int, reports map[int][]TrackReport) map[int]*Assignment {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	got := make(map[int]*Assignment)
	for _, cam := range cams {
		wg.Add(1)
		go func(cam int) {
			defer wg.Done()
			a, err := clients[cam].KeyFrame(wire, reports[cam], 10*time.Second)
			if err != nil {
				t.Errorf("camera %d key frame %d: %v", cam, wire, err)
				return
			}
			mu.Lock()
			got[cam] = a
			mu.Unlock()
		}(cam)
	}
	wg.Wait()
	return got
}

func hasKeep(a *Assignment, id int) bool {
	for _, k := range a.Keep {
		if k == id {
			return true
		}
	}
	return false
}

func shadowOf(a *Assignment, id int) (int, bool) {
	for _, sh := range a.Shadows {
		if sh.TrackID == id {
			return sh.AssignedCamera, true
		}
	}
	return 0, false
}

func TestNewShardedSchedulerValidation(t *testing.T) {
	e := buildShardedEnv(t, 4, 23, 2)
	if _, err := NewShardedScheduler(nil, e.profiles, 0, e.m); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewShardedScheduler(e.model, e.profiles, 0, nil); err == nil {
		t.Fatal("nil shard map accepted")
	}
	wrong, err := shard.Single(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedScheduler(e.model, e.profiles, 0, wrong); err == nil {
		t.Fatal("fleet-size mismatch accepted")
	}
	if _, err := NewShardedScheduler(e.model, e.profiles[:2], 0, e.m); err == nil {
		t.Fatal("profile count mismatch accepted")
	}
}

// TestShardedRoundIndependence is the no-fleet-spanning-barrier check:
// a connected-but-silent camera in one shard (which would stall a
// global scheduler's barrier, see TestKeyFrameTimeout) must not delay
// the other shard's rounds at all.
func TestShardedRoundIndependence(t *testing.T) {
	e := buildShardedEnv(t, 4, 23, 2)
	_, addr := startSharded(t, e)

	shard0 := e.m.Shards[0]
	clients := make(map[int]*Client)
	for _, cam := range shard0 {
		c, err := Dial(addr, cam, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[cam] = c
	}
	// A camera from the other shard connects and stays silent for the
	// whole test.
	other := e.m.Shards[1][0]
	silent, err := Dial(addr, other, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	reports := map[int][]TrackReport{}
	for _, cam := range shard0 {
		reports[cam] = reportFor(e, 50, cam)
	}
	got := keyFrameAll(t, clients, shard0, 0, reports)
	for _, cam := range shard0 {
		a := got[cam]
		if a == nil {
			t.Fatalf("camera %d got no assignment", cam)
		}
		// Shard-scoped replies carry the shard roster, and the priority
		// orders exactly those (global) cameras.
		if len(a.Roster) != len(shard0) {
			t.Fatalf("camera %d roster = %v, want %v", cam, a.Roster, shard0)
		}
		for i, c := range a.Roster {
			if c != shard0[i] {
				t.Fatalf("camera %d roster = %v, want %v", cam, a.Roster, shard0)
			}
		}
		if len(a.Priority) != len(shard0) {
			t.Fatalf("camera %d priority = %v", cam, a.Priority)
		}
		inRoster := func(c int) bool {
			for _, r := range shard0 {
				if r == c {
					return true
				}
			}
			return false
		}
		for _, c := range a.Priority {
			if !inRoster(c) {
				t.Fatalf("camera %d priority %v leaves the shard roster %v", cam, a.Priority, shard0)
			}
		}
	}
}

// TestShardedBoundaryHandoff drives an object visible across a shard
// cut through both shards' rounds: the lower-ID shard claims it, and
// the higher shard — scheduling strictly after the claim is published —
// demotes its local track to a shadow of the foreign owner instead of
// double-tracking it.
func TestShardedBoundaryHandoff(t *testing.T) {
	e := buildShardedEnv(t, 4, 23, 2)
	_, addr := startSharded(t, e)
	a, b, frame, object := boundaryPair(t, e)
	lower, higher := e.m.ShardOf[a], e.m.ShardOf[b]

	clients := make(map[int]*Client)
	for cam := 0; cam < e.m.NumCameras(); cam++ {
		c, err := Dial(addr, cam, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[cam] = c
	}
	reports := map[int][]TrackReport{}
	for cam := range clients {
		reports[cam] = reportFor(e, frame, cam)
	}

	// The lower shard's round completes (and publishes its claims)
	// before the higher shard schedules the same wire frame.
	lowGot := keyFrameAll(t, clients, e.m.Shards[lower], 0, reports)
	highGot := keyFrameAll(t, clients, e.m.Shards[higher], 0, reports)

	// The lower shard owns the object: camera a keeps it, or shadows it
	// to another camera of its own shard.
	la := lowGot[a]
	owner := a
	if !hasKeep(la, object) {
		sh, ok := shadowOf(la, object)
		if !ok {
			t.Fatalf("lower shard reply for camera %d does not account for object %d: %+v", a, object, la)
		}
		if e.m.ShardOf[sh] != lower {
			t.Fatalf("lower shard assigned object %d outside its shard (camera %d)", object, sh)
		}
		owner = sh
	}

	// The higher shard hands it off: camera b shadows the object to the
	// lower shard's owner and does not keep it.
	hb := highGot[b]
	if hasKeep(hb, object) {
		t.Fatalf("higher shard kept boundary object %d, want hand-off: %+v", object, hb)
	}
	sh, ok := shadowOf(hb, object)
	if !ok {
		t.Fatalf("higher shard reply for camera %d does not account for object %d: %+v", b, object, hb)
	}
	if sh != owner {
		t.Fatalf("higher shard shadows object %d to camera %d, want lower-shard owner %d", object, sh, owner)
	}
}

// TestChaosShardBoundaryDeath kills the owning boundary camera mid-
// hand-off: the lower shard's next round (its barrier shrunk by the
// disconnect, the camera declared dead by its lease) publishes claims
// without the object, and the higher shard re-keeps it in the same wire
// frame — the object is orphaned for zero rounds. Run under -race by
// CI's chaos smoke step.
func TestChaosShardBoundaryDeath(t *testing.T) {
	e := buildShardedEnv(t, 4, 23, 2)
	_, addr := startSharded(t, e,
		WithRoundTimeout(500*time.Millisecond),
		WithLease(50*time.Millisecond))
	a, b, frame, object := boundaryPair(t, e)
	lower, higher := e.m.ShardOf[a], e.m.ShardOf[b]

	clients := make(map[int]*Client)
	for cam := 0; cam < e.m.NumCameras(); cam++ {
		c, err := Dial(addr, cam, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[cam] = c
	}
	reports := map[int][]TrackReport{}
	for cam := range clients {
		reports[cam] = reportFor(e, frame, cam)
	}

	// Round 0 establishes the hand-off: lower shard owns, higher shadows.
	keyFrameAll(t, clients, e.m.Shards[lower], 0, reports)
	highGot := keyFrameAll(t, clients, e.m.Shards[higher], 0, reports)
	if hasKeep(highGot[b], object) {
		t.Fatalf("hand-off not established: higher shard kept object %d", object)
	}

	// The owning boundary camera dies.
	clients[a].Close()

	// Round 10: the lower shard's survivors report nothing — its round
	// completes without camera a (disconnected peers do not block the
	// barrier) and publishes an empty claim set, releasing the object.
	empty := map[int][]TrackReport{}
	var survivors []int
	for _, cam := range e.m.Shards[lower] {
		if cam != a {
			survivors = append(survivors, cam)
			empty[cam] = []TrackReport{{TrackID: 1000 + cam, Box: [4]float64{10, 10, 40, 40}, Size: 64}}
		}
	}
	lowGot := keyFrameAll(t, clients, survivors, 10, empty)
	for _, cam := range survivors {
		reply := lowGot[cam]
		if reply == nil {
			t.Fatalf("lower-shard survivor %d got no assignment after boundary death", cam)
		}
		deadListed := false
		for _, d := range reply.Dead {
			if d == a {
				deadListed = true
			}
		}
		if !deadListed {
			t.Fatalf("survivor %d reply does not declare camera %d dead: %+v", cam, a, reply)
		}
	}

	// The higher shard schedules the same wire frame after the release:
	// no foreign claim matches, so camera b keeps the object again.
	highGot = keyFrameAll(t, clients, e.m.Shards[higher], 10, reports)
	hb := highGot[b]
	if hb == nil {
		t.Fatal("higher shard round did not complete after boundary death")
	}
	if !hasKeep(hb, object) {
		if sh, ok := shadowOf(hb, object); ok && e.m.ShardOf[sh] != higher {
			t.Fatalf("object %d still shadowed to dead shard's camera %d", object, sh)
		}
	}
}

// TestSharded64CameraCorridor is the scale acceptance check: a
// 64-camera corridor fleet runs scheduling rounds under the sharded
// scheduler, every shard's barrier spans at most -shard-max cameras,
// and every camera gets a shard-scoped assignment.
func TestSharded64CameraCorridor(t *testing.T) {
	if testing.Short() {
		t.Skip("64-camera fleet in -short mode")
	}
	e := buildShardedEnv(t, 64, 17, 8)
	for _, cams := range e.m.Shards {
		if len(cams) > 8 {
			t.Fatalf("shard %v spans more than 8 cameras", cams)
		}
	}
	_, addr := startSharded(t, e)

	clients := make(map[int]*Client)
	all := make([]int, e.m.NumCameras())
	for cam := range all {
		all[cam] = cam
		c, err := Dial(addr, cam, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[cam] = c
	}
	for round := 0; round < 3; round++ {
		wire := round * 10
		reports := map[int][]TrackReport{}
		for cam := range clients {
			reports[cam] = reportFor(e, 50+wire, cam)
		}
		got := keyFrameAll(t, clients, all, wire, reports)
		if len(got) != len(all) {
			t.Fatalf("round %d: %d/%d cameras got assignments", round, len(got), len(all))
		}
		for cam, a := range got {
			if len(a.Roster) == 0 || len(a.Roster) > 8 {
				t.Fatalf("round %d camera %d: roster %v", round, cam, a.Roster)
			}
			if e.m.ShardOf[a.Roster[0]] != e.m.ShardOf[cam] {
				t.Fatalf("round %d camera %d: foreign roster %v", round, cam, a.Roster)
			}
		}
	}
}
