package camera

import (
	"slices"
	"testing"

	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/vision"
)

// The fixture is camera 1 of a three-camera fleet, its 1200x400 frame cut
// into three cells with these coverage sets:
//
//	cell 0 (left)   {0, 1}   camera 0 outranks us
//	cell 1 (middle) {1, 2}   we outrank camera 2
//	cell 2 (right)  {0, 2}   the masks say we do not cover it at all
//
// under the priority order 0 > 1 > 2. One stationary object sits in each
// cell.
const me = 1

var (
	testFrame = geom.Rect{MaxX: 1200, MaxY: 400}
	coverage  = [][]int{{0, 1}, {1, 2}, {0, 2}}
	// cellOwner is the SP partition the priority order implies.
	cellOwner = []int{0, 1, 0}

	objLeft   = scene.Observation{ObjectID: 10, Box: geom.Rect{MinX: 150, MinY: 150, MaxX: 250, MaxY: 250}}
	objMiddle = scene.Observation{ObjectID: 11, Box: geom.Rect{MinX: 550, MinY: 150, MaxX: 650, MaxY: 250}}
	objRight  = scene.Observation{ObjectID: 12, Box: geom.Rect{MinX: 950, MinY: 150, MaxX: 1050, MaxY: 250}}
)

func newKernel(t *testing.T, own Ownership) *Kernel {
	t.Helper()
	k, err := New(Config{
		Index:   me,
		Grid:    geom.NewGrid(testFrame, 3, 1),
		Profile: profile.Derived(profile.JetsonXavier),
		Seed:    1,
		// A detector that neither misses nor mislocates, so every count
		// below is the ownership rule's doing.
		Detector:  vision.Config{MissBase: 1e-12, NoiseFrac: 1e-9},
		Own:       own,
		Coverage:  coverage,
		CellOwner: cellOwner,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func newPolicy(t *testing.T, dead ...int) *core.DistributedPolicy {
	t.Helper()
	p, err := core.NewDistributedPolicy([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) > 0 {
		mask := make([]bool, 3)
		for _, c := range dead {
			mask[c] = true
		}
		p.SetDead(mask)
	}
	return p
}

// trackedTruths returns the ground-truth ids of the live tracks, in
// tracker order.
func trackedTruths(k *Kernel) []int {
	var ids []int
	for _, tr := range k.Tracks() {
		ids = append(ids, tr.TruthID)
	}
	return ids
}

// trackOf returns the id of the track following a ground-truth object.
func trackOf(t *testing.T, k *Kernel, truthID int) int {
	t.Helper()
	for _, tr := range k.Tracks() {
		if tr.TruthID == truthID {
			return tr.ID
		}
	}
	t.Fatalf("no track for object %d (tracks %v)", truthID, trackedTruths(k))
	return 0
}

// TestRegularFrameKeepsNewByOwnership: three objects appear between key
// frames; which of them the camera inspects and keeps is the ownership
// rule's decision, taken before any GPU time is spent on the others.
func TestRegularFrameKeepsNewByOwnership(t *testing.T) {
	obs := []scene.Observation{objLeft, objMiddle, objRight}
	cases := []struct {
		name string
		own  Ownership
		dead []int
		keep []int
	}{
		{"OwnNone proposes nothing", OwnNone, nil, nil},
		{"OwnAll keeps what it sees", OwnAll, nil, []int{10, 11, 12}},
		{"OwnCells keeps its partition", OwnCells, nil, []int{11}},
		{"OwnMasks keeps what it outranks", OwnMasks, nil, []int{11}},
		{"OwnMasks inherits a dead camera's cell", OwnMasks, []int{0}, []int{10, 11}},
		{"OwnCells ignores the dead mask", OwnCells, []int{0}, []int{11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newKernel(t, tc.own)
			var out Frame
			if err := k.RegularFrame(obs, newPolicy(t, tc.dead...), &out); err != nil {
				t.Fatal(err)
			}
			if got := trackedTruths(k); !slices.Equal(got, tc.keep) {
				t.Errorf("tracks follow objects %v, want %v", got, tc.keep)
			}
			// The masks filter before inspection: one task and one
			// detection per kept object, none for the rest.
			if len(out.Tasks) != len(tc.keep) || !slices.Equal(out.TruthIDs, tc.keep) {
				t.Errorf("inspected %d regions and detected %v, want %v", len(out.Tasks), out.TruthIDs, tc.keep)
			}
			if out.Full || k.Shadows() != 0 || out.Reassigned != 0 || out.Orphaned != 0 {
				t.Errorf("full=%v shadows=%d reassigned=%d orphaned=%d on a frame with no shadows",
					out.Full, k.Shadows(), out.Reassigned, out.Orphaned)
			}
		})
	}
}

// TestRegularFrameAllocatesNothingWhenWarm is the kernel's per-frame
// budget: once its scratch has grown, a regular frame — slicing, the
// new-region proposals, detection, the tracking match, the ownership
// decisions — allocates nothing. The camera tracks the middle object and
// every frame proposes regions for the other two, which the masks give to
// other cameras.
func TestRegularFrameAllocatesNothingWhenWarm(t *testing.T) {
	k := newKernel(t, OwnMasks)
	var out Frame
	if err := k.KeyFrame([]scene.Observation{objMiddle}, &out); err != nil {
		t.Fatal(err)
	}
	obs := []scene.Observation{objLeft, objMiddle, objRight}
	policy := newPolicy(t)
	frame := func() {
		out.Reset()
		if err := k.RegularFrame(obs, policy, &out); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 3; i++ {
		frame()
	}
	if len(k.proposals) != 2 || k.Len() != 1 || !slices.Equal(out.TruthIDs, []int{11}) {
		t.Fatalf("fixture: %d proposals, %d tracks, detected %v", len(k.proposals), k.Len(), out.TruthIDs)
	}
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Fatalf("RegularFrame: %v allocs per frame, want 0", n)
	}
}

// TestKeyFrameAllocatesNothingWhenWarm is the key frame's budget beside
// the regular frame's: the full-frame detections land in kernel scratch,
// and a track the central round demoted, detected again at the next key
// frame, is spawned into a recycled Track. Every cycle is a key frame
// over all three objects and the demotion of the middle one, the fate
// of most key-frame arrivals on a fleet whose views overlap.
func TestKeyFrameAllocatesNothingWhenWarm(t *testing.T) {
	k := newKernel(t, OwnMasks)
	obs := []scene.Observation{objLeft, objMiddle, objRight}
	var out Frame
	cycle := func() {
		out.Reset()
		if err := k.KeyFrame(obs, &out); err != nil {
			panic(err)
		}
		for _, tr := range k.Tracks() {
			if tr.TruthID == objMiddle.ObjectID {
				k.Demote(tr.ID, 2)
			}
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if !slices.Equal(out.TruthIDs, []int{10, 11, 12}) || !slices.Equal(trackedTruths(k), []int{10, 12}) || k.Shadows() != 1 {
		t.Fatalf("fixture: detected %v, tracks %v, %d shadows", out.TruthIDs, trackedTruths(k), k.Shadows())
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("KeyFrame + Demote: %v allocs per key frame, want 0", n)
	}
}

// TestKeyFrameAndDemote: a key frame tracks everything in view (SP prunes
// to its partition at once, having no central round to do it), and Demote
// turns a track into a shadow of the camera the round assigned.
func TestKeyFrameAndDemote(t *testing.T) {
	obs := []scene.Observation{objLeft, objMiddle, objRight}
	for _, tc := range []struct {
		own  Ownership
		keep []int
	}{
		{OwnNone, []int{10, 11, 12}},
		{OwnAll, []int{10, 11, 12}},
		{OwnCells, []int{11}},
		{OwnMasks, []int{10, 11, 12}},
	} {
		k := newKernel(t, tc.own)
		var out Frame
		if err := k.KeyFrame(obs, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Full || !slices.Equal(out.TruthIDs, []int{10, 11, 12}) {
			t.Errorf("own %d: key frame full=%v detected %v", tc.own, out.Full, out.TruthIDs)
		}
		if got := trackedTruths(k); !slices.Equal(got, tc.keep) {
			t.Errorf("own %d: key frame tracks %v, want %v", tc.own, got, tc.keep)
		}

		id := trackOf(t, k, 11)
		k.Demote(id, 2)
		if k.Len() != len(tc.keep)-1 || k.Shadows() != 1 {
			t.Errorf("own %d: after Demote %d tracks and %d shadows, want %d and 1",
				tc.own, k.Len(), k.Shadows(), len(tc.keep)-1)
		}
		k.Demote(id, 2) // the track is gone: nothing to demote
		if k.Shadows() != 1 {
			t.Errorf("own %d: demoting a dropped track added a shadow", tc.own)
		}
		// The next key frame starts from a clean slate of shadows.
		out.Reset()
		if err := k.KeyFrame(obs, &out); err != nil {
			t.Fatal(err)
		}
		if k.Shadows() != 0 {
			t.Errorf("own %d: %d shadows survived a key frame", tc.own, k.Shadows())
		}
	}
}

// shadowed returns a kernel that tracked one object at a key frame and
// was then told the object belongs to another camera.
func shadowed(t *testing.T, own Ownership, obj scene.Observation, assigned int) *Kernel {
	t.Helper()
	k := newKernel(t, own)
	var out Frame
	if err := k.KeyFrame([]scene.Observation{obj}, &out); err != nil {
		t.Fatal(err)
	}
	k.Demote(trackOf(t, k, obj.ObjectID), assigned)
	if k.Len() != 0 || k.Shadows() != 1 {
		t.Fatalf("fixture: %d tracks, %d shadows", k.Len(), k.Shadows())
	}
	return k
}

// TestTakeover walks the distributed stage's second rule: a shadow stays a
// shadow while its owner lives and covers it, is promoted exactly when the
// liveness mask removes the owner and this camera is next in line, follows
// the owner to a third camera when that one is, and is counted orphaned —
// once — when nobody live covers it.
func TestTakeover(t *testing.T) {
	type step struct {
		dead                                  []int
		tracks, shadows, reassigned, orphaned int
	}
	cases := []struct {
		name     string
		own      Ownership
		obj      scene.Observation
		assigned int
		steps    []step
	}{
		{"owner alive then dead: promoted on the frame it dies", OwnMasks, objLeft, 0, []step{
			{nil, 0, 1, 0, 0},
			{nil, 0, 1, 0, 0},
			{[]int{0}, 1, 0, 1, 0},
			{[]int{0}, 1, 0, 0, 0},
		}},
		{"owner does not cover the cell: taken over, not a reassignment", OwnMasks, objMiddle, 0, []step{
			{nil, 1, 0, 0, 0},
		}},
		{"owner dead and we are next in line: promoted", OwnMasks, objMiddle, 2, []step{
			{nil, 0, 1, 0, 0},
			{[]int{2}, 1, 0, 1, 0},
		}},
		{"owner dead, the next live coverer is another camera: keep shadowing", OwnMasks, objRight, 0, []step{
			{[]int{0}, 0, 1, 0, 0},
			// The shadow now follows camera 2; when that dies too nobody is left.
			{[]int{0, 2}, 0, 0, 0, 1},
			{[]int{0, 2}, 0, 0, 0, 0},
		}},
		{"no live coverer: orphaned once", OwnMasks, objLeft, 0, []step{
			{[]int{0, 1}, 0, 0, 0, 1},
			{[]int{0, 1}, 0, 0, 0, 0},
		}},
		{"OwnAll runs no takeover", OwnAll, objLeft, 0, []step{
			{[]int{0}, 0, 1, 0, 0},
		}},
		{"OwnCells runs no takeover", OwnCells, objMiddle, 2, []step{
			{[]int{2}, 0, 1, 0, 0},
		}},
		{"OwnNone runs no takeover", OwnNone, objLeft, 0, []step{
			{[]int{0}, 0, 1, 0, 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := shadowed(t, tc.own, tc.obj, tc.assigned)
			var out Frame
			for i, st := range tc.steps {
				out.Reset()
				if err := k.RegularFrame([]scene.Observation{tc.obj}, newPolicy(t, st.dead...), &out); err != nil {
					t.Fatal(err)
				}
				if k.Len() != st.tracks || k.Shadows() != st.shadows ||
					out.Reassigned != st.reassigned || out.Orphaned != st.orphaned {
					t.Fatalf("frame %d (dead %v): tracks=%d shadows=%d reassigned=%d orphaned=%d, want %d %d %d %d",
						i, st.dead, k.Len(), k.Shadows(), out.Reassigned, out.Orphaned,
						st.tracks, st.shadows, st.reassigned, st.orphaned)
				}
			}
			if k.Len() == 1 && k.Tracks()[0].TruthID != tc.obj.ObjectID {
				t.Errorf("promoted track follows object %d, want %d", k.Tracks()[0].TruthID, tc.obj.ObjectID)
			}
		})
	}
}

// TestPriceFillsCost: a regular frame's tasks price into batches on the
// camera's own GPU model; a key frame prices as one full inspection.
func TestPriceFillsCost(t *testing.T) {
	k := newKernel(t, OwnAll)
	var out Frame
	if err := k.KeyFrame([]scene.Observation{objLeft, objMiddle}, &out); err != nil {
		t.Fatal(err)
	}
	if err := k.Price(&out); err != nil {
		t.Fatal(err)
	}
	full := out.Latency
	if full <= 0 || out.Batches != 0 || out.Images != 0 {
		t.Fatalf("key frame priced latency=%v batches=%d images=%d", full, out.Batches, out.Images)
	}
	out.Reset()
	if err := k.RegularFrame([]scene.Observation{objLeft, objMiddle}, newPolicy(t), &out); err != nil {
		t.Fatal(err)
	}
	if err := k.Price(&out); err != nil {
		t.Fatal(err)
	}
	if out.Images != 2 || out.Batches < 1 || out.Latency <= 0 || out.Latency >= full {
		t.Fatalf("regular frame priced latency=%v (full %v) batches=%d images=%d",
			out.Latency, full, out.Batches, out.Images)
	}
}
