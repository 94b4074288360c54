package node

import (
	"reflect"
	"testing"

	"mvs/internal/cluster"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/scene"
)

func TestDegradedModeCountsAndClears(t *testing.T) {
	// Degraded mode is scheduler-autonomous operation: the node keeps
	// inspecting all its own tracks under the last-known policy. Frames
	// in that mode are counted; the next applied assignment clears it.
	world := twoCamWorld(3)
	trace, err := world.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	sink := metrics.NewChannelSink(1, len(trace.Frames)+1)
	// Scheduler unreachable for the first two horizons.
	sched := &fakeScheduler{down: func(fi int) bool { return fi < 20 }}
	cfg := baseConfig(0)
	cfg.Sink = sink
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Degraded() {
		t.Fatal("fresh runtime already degraded")
	}

	for fi := range trace.Frames {
		switch fi {
		case 20:
			sched.reconnects = 2
		case 30:
			sched.reconnects = 1 // monotone: lower value ignored
		}
		if err := sched.step(rt, fi, trace.Frames[fi].PerCamera[0]); err != nil {
			t.Fatal(err)
		}
		if want := fi < 20; rt.Degraded() != want {
			t.Fatalf("after frame %d: degraded = %v, want %v", fi, rt.Degraded(), want)
		}
	}

	st := rt.Stats()
	if st.Frames != 40 {
		t.Fatalf("frames = %d", st.Frames)
	}
	// Frames 1..20 ran degraded: key frame 0 finished before its round
	// failed, and frame 20's key frame still ran degraded before its
	// assignment cleared the mode.
	if st.DegradedFrames != 20 {
		t.Fatalf("degraded frames = %d, want 20", st.DegradedFrames)
	}
	if st.Reconnects != 2 {
		t.Fatalf("reconnects = %d, want 2", st.Reconnects)
	}

	sink.Close()
	var last metrics.Snapshot
	for snap := range sink.Snapshots() {
		last = snap
	}
	if last.DegradedFrames != 20 {
		t.Fatalf("final snapshot degraded_frames = %d, want 20", last.DegradedFrames)
	}
}

// TestMissedAssignmentRejoinsKeyFrameGrid pins what the cadence rule is
// for: the scheduler steps the ladder at frame 20 and one node never
// hears of it (that round's assignment is lost), so the two run on
// different stretches — and still key-frame together at frame 40,
// because the grids nest. Counting the interval from the last key frame
// instead (next = fi + horizon*stretch) would send them to 60 and 40 and
// they would never share a round again.
func TestMissedAssignmentRejoinsKeyFrameGrid(t *testing.T) {
	trace, err := twoCamWorld(3).Run(200)
	if err != nil {
		t.Fatal(err)
	}
	heard := &fakeScheduler{}
	missed := &fakeScheduler{down: func(fi int) bool { return fi == 20 }}
	var nodes [2]*Runtime
	for i := range nodes {
		if nodes[i], err = New(baseConfig(0)); err != nil {
			t.Fatal(err)
		}
	}
	for fi := range trace.Frames {
		level := 1
		if fi >= 20 {
			level = 2
		}
		heard.level, missed.level = level, level
		for i, sched := range []*fakeScheduler{heard, missed} {
			if err := sched.step(nodes[i], fi, trace.Frames[fi].PerCamera[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := []int{0, 20, 40, 80, 120, 160}
	if !reflect.DeepEqual(heard.keyFrames, want) || !reflect.DeepEqual(missed.keyFrames, want) {
		t.Fatalf("key frames %v and %v, want both %v", heard.keyFrames, missed.keyFrames, want)
	}
	// Degraded from the lost round to the next key frame, and not beyond.
	if got := nodes[1].Stats().DegradedFrames; got != 20 {
		t.Fatalf("the node that missed round 20 ran %d frames degraded, want 20", got)
	}
}

// TestChaosDeadOwnerFailover exercises the data-plane failover rule on
// a node: the scheduler declares the owning camera dead, so the
// highest-priority live camera promotes its shadow back to an active
// track and counts the reassignment — and a shadow in a cell no live
// camera covers is dropped and counted as orphaned.
func TestChaosDeadOwnerFailover(t *testing.T) {
	cfg := baseConfig(0)
	cfg.Coverage = make([][]int, 16*9)
	for i := range cfg.Coverage {
		cfg.Coverage[i] = []int{0, 1} // every cell seen by both cameras
	}
	// ... except the one the second object sits in, which the masks give
	// to camera 1 alone.
	lost := geom.Rect{MinX: 900, MinY: 500, MaxX: 960, MaxY: 550}
	cell, _ := geom.NewGrid(cfg.Frame, cfg.GridCols, cfg.GridRows).CellIndex(lost.Center())
	cfg.Coverage[cell] = []int{1}
	sink := metrics.NewChannelSink(1, 16)
	cfg.Sink = sink
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := []scene.Observation{
		{ObjectID: 1, Box: geom.Rect{MinX: 100, MinY: 100, MaxX: 160, MaxY: 150}},
		{ObjectID: 2, Box: lost},
	}
	reports, err := rt.keyFrame(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %v", reports)
	}
	// The scheduler assigned both objects to camera 1 — and in the same
	// reply declares camera 1 dead (its lease expired mid-round).
	err = rt.applyAssignment(&cluster.Assignment{
		Frame: 0,
		Shadows: []cluster.ShadowOrder{
			{TrackID: reports[0].TrackID, AssignedCamera: 1},
			{TrackID: reports[1].TrackID, AssignedCamera: 1},
		},
		Priority: []int{1, 0},
		Dead:     []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.ActiveTracks != 0 || st.Shadows != 2 {
		t.Fatalf("after demotion: %+v", st)
	}
	if err := rt.regularFrame(obs); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.ActiveTracks != 1 || st.Shadows != 0 {
		t.Fatalf("shadow not promoted from dead owner: %+v", st)
	}
	if st.Reassignments != 1 {
		t.Fatalf("Reassignments = %d, want 1", st.Reassignments)
	}
	if st.Orphaned != 1 {
		t.Fatalf("Orphaned = %d, want 1 (dead owner, no live camera covers the cell)", st.Orphaned)
	}
	// Outage accounting and snapshot plumbing.
	rt.OutageFrame()
	if got := rt.Stats().OutageFrames; got != 1 {
		t.Fatalf("OutageFrames = %d, want 1", got)
	}
	if err := rt.regularFrame(obs); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	var last metrics.Snapshot
	for snap := range sink.Snapshots() {
		last = snap
	}
	if last.OutageFrames != 1 || last.Reassignments != 1 || last.OrphanedObjects != 1 {
		t.Fatalf("snapshot counters = (%d,%d,%d), want (1,1,1)",
			last.OutageFrames, last.Reassignments, last.OrphanedObjects)
	}
}

// TestChaosDeadSetIgnoredWhenAlive pins that an assignment without a
// Dead list clears any previous dead marks (a recovered camera regains
// ownership) and that out-of-range entries mark nothing: the assignment
// naming them is refused whole.
func TestChaosDeadSetIgnoredWhenAlive(t *testing.T) {
	cfg := baseConfig(0)
	cfg.Coverage = make([][]int, 16*9)
	for i := range cfg.Coverage {
		cfg.Coverage[i] = []int{0, 1}
	}
	rt, err := New(cfg)
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
	// Out-of-range dead entries must not panic or mark anything.
	a := &cluster.Assignment{
		Frame:    0,
		Shadows:  []cluster.ShadowOrder{{TrackID: reports[0].TrackID, AssignedCamera: 1}},
		Priority: []int{1, 0},
		Dead:     []int{-3, 99},
	}
	if err := rt.applyAssignment(a); err == nil {
		t.Fatal("assignment with out-of-range dead entries accepted")
	}
	a.Dead = nil
	if err := rt.applyAssignment(a); err != nil {
		t.Fatal(err)
	}
	if err := rt.regularFrame(obs); err != nil {
		t.Fatal(err)
	}
	// Owner 1 is alive (garbage dead entries ignored): the shadow stays
	// a shadow and nothing is reassigned.
	st := rt.Stats()
	if st.Shadows != 1 || st.Reassignments != 0 {
		t.Fatalf("garbage dead entries changed behaviour: %+v", st)
	}
}
