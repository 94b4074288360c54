package central

import (
	"reflect"
	"testing"

	"mvs/internal/assoc"
	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/workload"
)

// TestViewsSurviveAnUndersizedArena pins the one non-obvious property of
// Views.Add: the per-camera lists are cut from shared arrays, and a
// track count announced too low (a host's estimate, not a contract) may
// reallocate those arrays mid-camera without corrupting any list.
func TestViewsSurviveAnUndersizedArena(t *testing.T) {
	box := func(i int) geom.Rect { return geom.Rect{MinX: float64(i), MaxX: float64(i) + 1, MaxY: 1} }
	var v Views
	v.Reset(4, 1)
	want := map[int][]int{0: {10, 11, 12}, 2: {20}, 3: {30, 31}}
	for _, cam := range []int{0, 2, 3} {
		for _, id := range want[cam] {
			v.Add(cam, box(id), Track{ID: id, Size: 64})
		}
	}
	for cam := range v.Boxes {
		var ids []int
		for i, tr := range v.Tracks[cam] {
			ids = append(ids, tr.ID)
			if v.Boxes[cam][i] != box(tr.ID) {
				t.Fatalf("camera %d entry %d: box %v does not belong to track %d", cam, i, v.Boxes[cam][i], tr.ID)
			}
		}
		if !reflect.DeepEqual(ids, want[cam]) {
			t.Fatalf("camera %d lists tracks %v, want %v", cam, ids, want[cam])
		}
	}
	if v.Boxes[1] != nil || v.Tracks[1] != nil {
		t.Fatal("a camera without a view must keep nil lists")
	}
}

// TestBuildObjectsFromGroups pins how an associated group becomes an MVS
// object: ID gi+1; coverage in the order cameras first appear among the
// members (a batch-join tie in core.Solver.Central goes to the earlier
// camera); and, for a camera with several members, the largest member
// size, wherever in the member list it sits.
func TestBuildObjectsFromGroups(t *testing.T) {
	tracks := [][]Track{
		{{ID: 1, Size: 128}, {ID: 2, Size: 64}},
		{{ID: 3, Size: 256}, {ID: 4, Size: 512}, {ID: 5, Size: 64}},
		{{ID: 6, Size: 64}},
	}
	groups := []assoc.Group{
		// Camera 2 first, then camera 1 twice (the larger member last),
		// then camera 0.
		{Members: []assoc.Ref{{Cam: 2, Index: 0}, {Cam: 1, Index: 0}, {Cam: 0, Index: 1}, {Cam: 1, Index: 1}}},
		// Camera 0 twice with the larger member first.
		{Members: []assoc.Ref{{Cam: 0, Index: 0}, {Cam: 0, Index: 1}}},
		{Members: []assoc.Ref{{Cam: 1, Index: 2}}},
	}
	want := []struct {
		cams, sizes []int32
	}{
		{[]int32{2, 1, 0}, []int32{64, 512, 64}},
		{[]int32{0}, []int32{128}},
		{[]int32{1}, []int32{64}},
	}
	var in core.Instance
	in.Add(99) // a previous round's leftovers must not survive
	in.Cover(5, 7)
	build(&in, groups, tracks)
	if in.Len() != len(want) {
		t.Fatalf("%d objects from %d groups", in.Len(), len(groups))
	}
	for j, w := range want {
		if !reflect.DeepEqual(in.Cameras(j), w.cams) || !reflect.DeepEqual(in.Sizes(j), w.sizes) {
			t.Errorf("object %d: cameras %v sizes %v, want %v %v", j, in.Cameras(j), in.Sizes(j), w.cams, w.sizes)
		}
	}

	// IDs are gi+1, and a solved round's members carry them.
	var r Round
	r.Groups = groups
	build(&r.Objects, groups, tracks)
	var cams []core.CameraSpec
	for i := range tracks {
		cams = append(cams, core.CameraSpec{Index: i, Profile: profile.Derived(profile.JetsonXavier)})
	}
	var err error
	if r.Solution, err = r.solver.Central(cams, &r.Objects, core.CentralOptions{}); err != nil {
		t.Fatal(err)
	}
	var ids []int
	r.Walk(func(m Member) {
		if len(ids) == 0 || ids[len(ids)-1] != m.Object {
			ids = append(ids, m.Object)
		}
	})
	if !reflect.DeepEqual(ids, []int{1, 2, 3}) {
		t.Fatalf("walked object IDs %v, want [1 2 3]", ids)
	}
}

// TestRefillAllocatesNothing is the budget of a host that keeps one
// Round: once its views and instance have held a corridor-sized round
// (16 cameras, ~100 objects), refilling them for another allocates
// nothing; and once it has solved every key frame of a 16-camera
// corridor run, solving them all again — association on the Round's
// workspace, the instance, BALB — allocates nothing either.
func TestRefillAllocatesNothing(t *testing.T) {
	const cams, objects = 16, 100
	tracks := make([][]Track, cams)
	var groups []assoc.Group
	for j := 0; j < objects; j++ {
		var g assoc.Group
		for c := j % cams; c < min(j%cams+1+j%3, cams); c++ {
			g.Members = append(g.Members, assoc.Ref{Cam: c, Index: len(tracks[c])})
			tracks[c] = append(tracks[c], Track{ID: j, Size: 64 << (j % 3)})
		}
		groups = append(groups, g)
	}
	var r Round
	refill := func() {
		r.Views.Reset(cams, objects*2)
		for c := range tracks {
			for _, tr := range tracks[c] {
				r.Views.Add(c, geom.Rect{MaxX: 1, MaxY: 1}, tr)
			}
		}
		build(&r.Objects, groups, r.Views.Tracks)
	}
	refill()
	if n := testing.AllocsPerRun(100, refill); n != 0 {
		t.Errorf("refilling a warm Round's views and instance: %v allocs/run, want 0", n)
	}

	scn, err := workload.Corridor(cams, 1)
	if err != nil {
		t.Fatal(err)
	}
	const train, test = 150, 200
	trace, err := scn.World.Run(train + test)
	if err != nil {
		t.Fatal(err)
	}
	model, err := assoc.Train(&scene.Trace{FPS: trace.FPS, Cameras: trace.Cameras, Frames: trace.Frames[:train]},
		assoc.Factories{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Model: model, MinIoU: 0.1, Workers: 1}
	for i, prof := range scn.Profiles() {
		p.Cameras = append(p.Cameras, core.CameraSpec{Index: i, Profile: prof})
	}
	grouped := 0
	solveAll := func() {
		for fi := train; fi < train+test; fi += 10 {
			r.Views.Reset(cams, 0)
			for c, obs := range trace.Frames[fi].PerCamera {
				for k, o := range obs {
					r.Views.Add(c, o.Box, Track{ID: k + 1, Size: geom.QuantizeSize(o.Box.LongSide(), geom.StandardSizes)})
				}
			}
			if err := Solve(p, &r); err != nil {
				panic(err)
			}
			for _, g := range r.Groups {
				if len(g.Members) > 1 {
					grouped++
				}
			}
		}
	}
	solveAll()
	if grouped == 0 {
		t.Fatal("no object associated across two views: fixture degenerate")
	}
	if n := testing.AllocsPerRun(3, solveAll); n != 0 {
		t.Errorf("solving warm key frames again: %v allocs per pass of %d key frames, want 0", n, test/10)
	}
}
