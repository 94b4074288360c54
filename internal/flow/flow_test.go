package flow

import (
	"math/rand"
	"slices"
	"testing"

	"mvs/internal/geom"
	"mvs/internal/vision"
)

var frame = geom.Rect{MinX: 0, MinY: 0, MaxX: 1280, MaxY: 704}

func det(id int, x, y, w, h float64) vision.Detection {
	return vision.Detection{
		Box:     geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
		Score:   0.9,
		TruthID: id,
	}
}

func newTracker(t *testing.T) *Tracker {
	t.Helper()
	tr, err := NewTracker(frame, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTrackerRejectsEmptyFrame(t *testing.T) {
	if _, err := NewTracker(geom.Rect{}, Config{}); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestUpdateCreatesTracks(t *testing.T) {
	tr := newTracker(t)
	created, err := tr.Update([]vision.Detection{det(1, 100, 100, 50, 40), det(2, 500, 300, 60, 45)})
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 || tr.Len() != 2 {
		t.Fatalf("created %v, len %d", created, tr.Len())
	}
	tracks := tr.Tracks()
	if tracks[0].TruthID != 1 || tracks[1].TruthID != 2 {
		t.Fatalf("truth ids = %d, %d", tracks[0].TruthID, tracks[1].TruthID)
	}
	if tracks[0].QuantSize != 64 {
		t.Fatalf("quant size = %d", tracks[0].QuantSize)
	}
}

func TestUpdateAssociatesMovedDetection(t *testing.T) {
	tr := newTracker(t)
	if _, err := tr.Update([]vision.Detection{det(7, 100, 100, 50, 40)}); err != nil {
		t.Fatal(err)
	}
	id := tr.Tracks()[0].ID
	// Object moved 10px right: should match the existing track, not
	// spawn a new one.
	created, err := tr.Update([]vision.Detection{det(7, 110, 100, 50, 40)})
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 0 || tr.Len() != 1 {
		t.Fatalf("created %v, len %d", created, tr.Len())
	}
	track := tr.Get(id)
	if track == nil {
		t.Fatal("track vanished")
	}
	if track.Velocity.X <= 0 {
		t.Fatalf("velocity = %v", track.Velocity)
	}
	if track.Age != 1 || track.Missed != 0 {
		t.Fatalf("age=%d missed=%d", track.Age, track.Missed)
	}
}

func TestVelocityPredictionConverges(t *testing.T) {
	tr := newTracker(t)
	// Constant motion of 8 px/frame.
	for i := 0; i < 10; i++ {
		x := 100 + float64(i)*8
		if _, err := tr.Update([]vision.Detection{det(1, x, 100, 50, 40)}); err != nil {
			t.Fatal(err)
		}
	}
	track := tr.Tracks()[0]
	if track.Velocity.X < 7 || track.Velocity.X > 9 {
		t.Fatalf("velocity = %v, want ~8", track.Velocity)
	}
	// Prediction should land close to the next true position.
	pred := track.Predicted()
	wantX := 100 + 10.0*8
	if pred.MinX < wantX-3 || pred.MinX > wantX+3 {
		t.Fatalf("pred.MinX = %v, want ~%v", pred.MinX, wantX)
	}
}

func TestMissedTracksAreDropped(t *testing.T) {
	tr, err := NewTracker(frame, Config{MaxMissed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update([]vision.Detection{det(1, 100, 100, 50, 40)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.Update(nil); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 1 {
			t.Fatalf("track dropped too early at miss %d", i+1)
		}
	}
	if _, err := tr.Update(nil); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatal("track not dropped after MaxMissed")
	}
}

func TestCoastingTrackFollowsVelocity(t *testing.T) {
	tr := newTracker(t)
	for i := 0; i < 5; i++ {
		x := 100 + float64(i)*10
		if _, err := tr.Update([]vision.Detection{det(1, x, 100, 50, 40)}); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Tracks()[0].Box
	if _, err := tr.Update(nil); err != nil {
		t.Fatal(err)
	}
	after := tr.Tracks()[0].Box
	if after.MinX <= before.MinX {
		t.Fatalf("coasting box did not advance: %v -> %v", before, after)
	}
	if tr.Tracks()[0].Missed != 1 {
		t.Fatalf("missed = %d", tr.Tracks()[0].Missed)
	}
}

func TestTwoObjectsCrossWithoutSwapConfusion(t *testing.T) {
	tr := newTracker(t)
	// Two objects far apart moving toward each other; with per-frame
	// updates the Hungarian match must keep them separate (no track
	// explosion).
	for i := 0; i < 20; i++ {
		a := det(1, 100+float64(i)*10, 100, 40, 40)
		b := det(2, 500-float64(i)*10, 100, 40, 40)
		if _, err := tr.Update([]vision.Detection{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 2 {
		t.Fatalf("tracks = %d, want 2", tr.Len())
	}
}

func TestSpawnAndRemove(t *testing.T) {
	tr := newTracker(t)
	id := tr.Spawn(det(9, 200, 200, 120, 90))
	if tr.Len() != 1 {
		t.Fatal("spawn failed")
	}
	track := tr.Get(id)
	if track.QuantSize != 128 { // long side 120 -> 128
		t.Fatalf("quant size = %d", track.QuantSize)
	}
	tr.Remove(id)
	if tr.Len() != 0 || tr.Get(id) != nil {
		t.Fatal("remove failed")
	}
}

func TestRefreshSizes(t *testing.T) {
	tr := newTracker(t)
	id := tr.Spawn(det(1, 100, 100, 50, 40)) // 64
	track := tr.Get(id)
	// Object grows well past 64 within the horizon; size must stay fixed
	// until refresh.
	track.Box = geom.Rect{MinX: 100, MinY: 100, MaxX: 300, MaxY: 250}
	if track.QuantSize != 64 {
		t.Fatalf("size changed mid-horizon: %d", track.QuantSize)
	}
	tr.RefreshSizes()
	if track.QuantSize != 256 {
		t.Fatalf("size after refresh = %d", track.QuantSize)
	}
}

func TestRegionGeometry(t *testing.T) {
	tr := newTracker(t)
	id := tr.Spawn(det(1, 100, 100, 50, 40))
	track := tr.Get(id)
	region := tr.Region(track)
	if region.W() != 64 || region.H() != 64 {
		t.Fatalf("region = %v", region)
	}
	if !frame.ContainsRect(region) {
		t.Fatalf("region %v escapes frame", region)
	}
	// Region centres on the *predicted* location.
	track.Velocity = geom.Point{X: 20, Y: 0}
	moved := tr.Region(track)
	if moved.Center().X <= region.Center().X {
		t.Fatalf("region ignored velocity: %v vs %v", moved.Center(), region.Center())
	}
}

func TestRegionClampedAtBorder(t *testing.T) {
	tr := newTracker(t)
	id := tr.Spawn(det(1, 0, 0, 30, 30))
	region := tr.Region(tr.Get(id))
	if !frame.ContainsRect(region) || region.W() != 64 || region.H() != 64 {
		t.Fatalf("border region = %v", region)
	}
}

func TestNewRegionsProposesUnexplainedMotion(t *testing.T) {
	moving := []geom.Rect{
		{MinX: 100, MinY: 100, MaxX: 150, MaxY: 140}, // tracked
		{MinX: 600, MinY: 300, MaxX: 660, MaxY: 350}, // new object
	}
	predicted := []geom.Rect{{MinX: 95, MinY: 98, MaxX: 148, MaxY: 139}}
	regions := NewRegions(nil, moving, predicted, 0)
	if len(regions) != 1 {
		t.Fatalf("regions = %v", regions)
	}
	// Proposal covers and inflates the unexplained cluster.
	if !regions[0].ContainsRect(moving[1]) {
		t.Fatalf("region %v does not cover cluster %v", regions[0], moving[1])
	}
}

func TestNewRegionsAllExplained(t *testing.T) {
	moving := []geom.Rect{{MinX: 100, MinY: 100, MaxX: 150, MaxY: 140}}
	predicted := []geom.Rect{{MinX: 100, MinY: 100, MaxX: 150, MaxY: 140}}
	if regions := NewRegions(nil, moving, predicted, 0); len(regions) != 0 {
		t.Fatalf("regions = %v", regions)
	}
}

func TestNewRegionsNoPredictions(t *testing.T) {
	moving := []geom.Rect{{MinX: 1, MinY: 1, MaxX: 10, MaxY: 10}}
	if regions := NewRegions(nil, moving, nil, 0); len(regions) != 1 {
		t.Fatalf("regions = %v", regions)
	}
	if regions := NewRegions(nil, nil, nil, 0); len(regions) != 0 {
		t.Fatalf("regions from no motion = %v", regions)
	}
}

// TestNewRegionsExplainedByOverlap pins the second half of the
// explanation rule: a prediction that misses the cluster's centre still
// explains it when their IoU reaches minCover.
func TestNewRegionsExplainedByOverlap(t *testing.T) {
	moving := []geom.Rect{{MinX: 100, MinY: 100, MaxX: 200, MaxY: 140}}
	predicted := []geom.Rect{{MinX: 40, MinY: 100, MaxX: 140, MaxY: 140}} // IoU 0.25, centre outside
	if predicted[0].Contains(moving[0].Center()) {
		t.Fatal("layout: the prediction covers the centre")
	}
	if regions := NewRegions(nil, moving, predicted, 0.2); len(regions) != 0 {
		t.Fatalf("IoU 0.25 >= 0.2 should explain the cluster: %v", regions)
	}
	if regions := NewRegions(nil, moving, predicted, 0.3); len(regions) != 1 {
		t.Fatalf("IoU 0.25 < 0.3 should leave the cluster unexplained: %v", regions)
	}
}

// TestNewRegionsAppendsToDst pins the scratch contract: proposals are
// appended after what dst holds, into its backing array when it has room.
func TestNewRegionsAppendsToDst(t *testing.T) {
	kept := geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}
	dst := append(make([]geom.Rect, 0, 4), kept)
	moving := []geom.Rect{{MinX: 600, MinY: 300, MaxX: 660, MaxY: 350}}
	out := NewRegions(dst, moving, nil, 0)
	if len(out) != 2 || out[0] != kept || &out[0] != &dst[0] {
		t.Fatalf("out = %v, want the kept rect then one proposal in dst's array", out)
	}
	if n := testing.AllocsPerRun(100, func() { out = NewRegions(out[:0], moving, nil, 0) }); n != 0 {
		t.Fatalf("NewRegions into grown scratch: %v allocs, want 0", n)
	}
}

func TestTrackIDsMonotonic(t *testing.T) {
	tr := newTracker(t)
	a := tr.Spawn(det(1, 10, 10, 20, 20))
	tr.Remove(a)
	b := tr.Spawn(det(2, 10, 10, 20, 20))
	if b <= a {
		t.Fatalf("IDs not monotonic: %d then %d", a, b)
	}
}

// TestTracksIsASnapshotInTrackerStorage pins the contract the callers
// of Tracks rely on: ordered by ID, safe to Remove and Spawn while
// ranging over it, and backed by the tracker — the next call overwrites
// it.
func TestTracksIsASnapshotInTrackerStorage(t *testing.T) {
	tr := newTracker(t)
	for i := 0; i < 6; i++ {
		tr.Spawn(det(i+1, float64(40+i*150), 100, 50, 40))
	}
	view := tr.Tracks()
	var seen []int
	for _, track := range view {
		seen = append(seen, track.ID)
		if track.ID%2 == 0 {
			tr.Remove(track.ID) // the static-partition prune does exactly this
		}
		if track.ID == 3 {
			tr.Spawn(det(99, 900, 500, 50, 40))
		}
	}
	if want := []int{1, 2, 3, 4, 5, 6}; !slices.Equal(seen, want) {
		t.Fatalf("ranged over %v, want %v", seen, want)
	}
	var after []int
	for _, track := range tr.Tracks() {
		after = append(after, track.ID)
	}
	if want := []int{1, 3, 5, 7}; !slices.Equal(after, want) {
		t.Fatalf("after prune: %v, want %v", after, want)
	}
	if &view[0] != &tr.Tracks()[0] {
		t.Fatal("Tracks allocated a new snapshot; the doc says it reuses the tracker's")
	}
	for _, id := range []int{1, 3, 5, 7} {
		if got := tr.Get(id); got == nil || got.ID != id {
			t.Fatalf("Get(%d) = %v", id, got)
		}
	}
	for _, id := range []int{0, 2, 4, 6, 8} {
		if tr.Get(id) != nil {
			t.Fatalf("Get(%d) found a removed or unknown track", id)
		}
	}
	tr.Remove(42) // unknown: no-op
	if tr.Len() != 4 {
		t.Fatalf("len = %d", tr.Len())
	}
}

// TestRecycledTracksKeepSnapshots is the property behind the tracker's
// recycled tracks, over a seeded random mix of Update, Spawn, Remove and
// Tracks: (1) while Spawn and Remove run during the ranging over a
// Tracks snapshot, every track of the snapshot keeps its values, and
// (2) a track removed or dropped is handed out again by Spawn or
// Update's arrivals only after the next Tracks or Update call.
func TestRecycledTracksKeepSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := newTracker(t)
	randomDet := func() vision.Detection {
		return det(rng.Intn(1000), rng.Float64()*1200, rng.Float64()*640, 30+rng.Float64()*40, 30+rng.Float64()*40)
	}
	// retired holds the tracks removed or dropped since the last Tracks
	// or Update call; seen every Track value ever handed out.
	retired := map[*Track]bool{}
	seen := map[*Track]bool{}
	handed, reused := 0, 0
	handedOut := func(id int, during string) {
		p := tr.Get(id)
		if retired[p] {
			t.Fatalf("%s: track %d reuses a Track retired since the last Tracks or Update", during, id)
		}
		handed++
		if seen[p] {
			reused++
		}
		seen[p] = true
	}
	spawn := func(during string) { handedOut(tr.Spawn(randomDet()), during) }
	remove := func(id int) {
		if p := tr.Get(id); p != nil {
			retired[p] = true
		}
		tr.Remove(id)
	}
	randomID := func() int { return 1 + rng.Intn(tr.nextID) }

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(4); {
		case op == 0: // an Update: most tracks re-detected, some arrivals
			before := slices.Clone(tr.tracks)
			var dets []vision.Detection
			for _, p := range before {
				if rng.Intn(4) > 0 {
					d := randomDet()
					d.Box = p.Predicted().Translate(geom.Point{X: rng.Float64()*4 - 2, Y: rng.Float64()*4 - 2})
					dets = append(dets, d)
				}
			}
			for n := rng.Intn(3); n > 0; n-- {
				dets = append(dets, randomDet())
			}
			clear(retired)
			created, err := tr.Update(dets)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range before {
				if tr.Get(p.ID) != p {
					retired[p] = true // dropped by this Update
				}
			}
			for _, id := range created {
				handedOut(id, "Update")
			}
		case op == 1:
			spawn("Spawn")
		case op == 2:
			remove(randomID())
		default: // range over a snapshot, spawning and removing meanwhile
			snap := tr.Tracks()
			clear(retired)
			vals := make([]Track, len(snap))
			for i, p := range snap {
				vals[i] = *p
			}
			for i, p := range snap {
				switch rng.Intn(3) {
				case 0:
					remove(p.ID)
				case 1:
					remove(randomID())
				}
				spawn("Spawn while ranging")
				if *p != vals[i] {
					t.Fatalf("step %d: snapshot track %d changed while ranging: %+v, was %+v", step, i, *p, vals[i])
				}
			}
			for i, p := range snap {
				if *p != vals[i] {
					t.Fatalf("step %d: snapshot track %d changed while ranging: %+v, was %+v", step, i, *p, vals[i])
				}
			}
		}
		if tr.Len() > 40 { // keep the population bounded
			snap := tr.Tracks()
			clear(retired)
			for _, p := range snap[:20] {
				remove(p.ID)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no Track was ever recycled: the property is vacuous")
	}
	t.Logf("%d tracks handed out, %d of them in recycled Track values", handed, reused)
}

// TestUpdateDropsAndSpawnsKeepOrder drives expiry in the middle of the
// list together with a spawn at the end — the in-place compaction must
// keep the ID order Get bisects on.
func TestUpdateDropsAndSpawnsKeepOrder(t *testing.T) {
	tr, err := NewTracker(frame, Config{MaxMissed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := []vision.Detection{det(1, 50, 100, 50, 40), det(2, 300, 100, 50, 40), det(3, 600, 100, 50, 40)}
	if _, err := tr.Update(all); err != nil {
		t.Fatal(err)
	}
	// Object 2 disappears; after two silent frames its track is dropped.
	// A fourth object appears meanwhile.
	some := []vision.Detection{all[0], all[2], det(4, 900, 400, 50, 40)}
	var created []int
	for i := 0; i < 2; i++ {
		if created, err = tr.Update(some); err != nil {
			t.Fatal(err)
		}
	}
	if len(created) != 0 {
		t.Fatalf("second pass created %v", created)
	}
	var ids, truth []int
	for _, track := range tr.Tracks() {
		ids = append(ids, track.ID)
		truth = append(truth, track.TruthID)
	}
	if !slices.Equal(ids, []int{1, 3, 4}) || !slices.Equal(truth, []int{1, 3, 4}) {
		t.Fatalf("tracks %v (truth %v), want IDs 1 3 4", ids, truth)
	}
	if tr.Get(2) != nil || tr.Get(4) == nil {
		t.Fatal("Get disagrees with the track list")
	}
}

// TestUpdateSteadyStateAllocatesNothing is the budget: with no arrival
// and no departure a tracker update — prediction, the Hungarian match,
// the bookkeeping — runs entirely in the tracker's own buffers. It runs
// on boxes spaced apart, where every track/detection pair is alone, and
// on overlapping pairs and triples, where the match solves components of
// several tracks and detections.
func TestUpdateSteadyStateAllocatesNothing(t *testing.T) {
	spaced := make([]vision.Detection, 12)
	for i := range spaced {
		spaced[i] = det(i+1, float64(50+i*90), 100, 50, 40)
	}
	var clustered []vision.Detection
	for g, size := range []int{2, 3, 2, 3} {
		for k := 0; k < size; k++ {
			clustered = append(clustered, det(len(clustered)+1, float64(50+g*250+k*10), 100+float64(k*5), 50, 40))
		}
	}
	for name, dets := range map[string][]vision.Detection{"spaced": spaced, "clustered": clustered} {
		tr := newTracker(t)
		for i := 0; i < 3; i++ {
			if _, err := tr.Update(dets); err != nil {
				t.Fatal(err)
			}
		}
		contested := 0
		for _, track := range tr.Tracks() {
			over := 0
			for _, d := range dets {
				if track.Predicted().IoU(d.Box) > tr.cfg.MatchIoU {
					over++
				}
			}
			if over > 1 {
				contested++
			}
		}
		if (name == "clustered") != (contested > 0) {
			t.Fatalf("%s: %d tracks with several feasible detections", name, contested)
		}
		if n := testing.AllocsPerRun(100, func() {
			created, err := tr.Update(dets)
			if err != nil || len(created) != 0 {
				panic("steady state disturbed")
			}
			for _, track := range tr.Tracks() {
				_ = tr.Region(track)
			}
		}); n != 0 {
			t.Fatalf("%s: Update + Tracks + Region: %v allocs per frame, want 0", name, n)
		}
		if tr.Len() != len(dets) {
			t.Fatalf("%s: len = %d", name, tr.Len())
		}
	}
}
