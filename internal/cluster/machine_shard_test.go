package cluster

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"mvs/internal/central"
	"mvs/internal/scene"
	"mvs/internal/shard"
)

// handoffRef is the exploration's own account of the hand-off between
// the shards of a sharded scheduler, shared by their referees: the claim
// lists each shard published, from which a higher shard's demotions
// follow.
type handoffRef struct {
	e *shardedEnv
	// published[s] lists shard s's completed rounds, ascending by frame,
	// pruned past handoffTTL.
	published [][]publication
	// seen counts, across the whole walk, the rounds whose replies carried
	// a hand-off and the empty claim lists published.
	seen *handoffSeen
}

type publication struct {
	frame  int
	claims []handoffClaim
}

type handoffSeen struct{ demoted, empty int }

func (h *handoffRef) clone() *handoffRef {
	c := *h
	c.published = slices.Clone(h.published)
	for s := range c.published {
		// complete appends to a clipped list, so never into a shared array.
		c.published[s] = slices.Clip(h.published[s])
	}
	return &c
}

// lookup is what shard s has said about frame: its round-frame claims if
// that round completed, otherwise its latest claims within handoffTTL.
func (h *handoffRef) lookup(s, frame int) []handoffClaim {
	var claims []handoffClaim
	for _, p := range h.published[s] {
		if p.frame <= frame && p.frame >= frame-handoffTTL {
			claims = p.claims
		}
	}
	return claims
}

// crosses reports whether global cameras a and b overlap across a shard
// boundary.
func (h *handoffRef) crosses(a, b int) bool {
	return slices.Contains(h.e.m.Boundary, shard.Edge{A: min(a, b), B: max(a, b)})
}

// complete is referee r's shard completing round p: an object of the
// round is handed off exactly when one of its members' boxes matches,
// at MinIoU, a lower shard's claim from a camera it overlaps across the
// boundary (the first such claim names the owner); the round then
// publishes one claim per boundary member of every object it keeps, an
// empty list included.
func (h *handoffRef) complete(r *referee, p refRound) ([]*Assignment, error) {
	round, err := r.f.solve(p.k, p.reported)
	if err != nil {
		return nil, err
	}
	frame := 10 * p.k
	var lower []handoffClaim
	for s := 0; s < r.shard; s++ {
		lower = append(lower, h.lookup(s, frame)...)
	}
	demoted := map[int]int{}
	round.Walk(func(mb central.Member) {
		if _, done := demoted[mb.Object]; done {
			return
		}
		gc, box := r.f.glob(mb.Cam), round.Views.Boxes[mb.Cam][mb.Index]
		for _, c := range lower {
			if !h.crosses(c.FromCam, gc) {
				continue
			}
			if mapped, visible, err := h.e.model.MapBox(c.FromCam, gc, c.Box); err == nil && visible && mapped.IoU(box) >= 0.1 {
				demoted[mb.Object] = c.Owner
				return
			}
		}
	})
	var claims []handoffClaim
	round.Walk(func(mb central.Member) {
		gc := r.f.glob(mb.Cam)
		onBoundary := slices.ContainsFunc(h.e.m.Boundary, func(e shard.Edge) bool { return e.A == gc || e.B == gc })
		if _, ok := demoted[mb.Object]; ok || !onBoundary {
			return
		}
		claims = append(claims, handoffClaim{FromCam: gc, Box: round.Views.Boxes[mb.Cam][mb.Index], Owner: r.f.glob(mb.Owner)})
	})
	pubs := append(h.published[r.shard], publication{frame: frame, claims: claims})
	h.published[r.shard] = slices.DeleteFunc(pubs, func(p publication) bool { return p.frame < frame-handoffTTL })
	if len(demoted) > 0 {
		h.seen.demoted++
	}
	if len(claims) == 0 {
		h.seen.empty++
	}
	return r.f.replies(frame, round, demoted), nil
}

// check fails unless the machines' claim table holds exactly what every
// completed round published: each round once, empty lists included.
func (h *handoffRef) check(table claimTable) error {
	for s, pubs := range h.published {
		if len(table[s]) != len(pubs) {
			return fmt.Errorf("shard %d published %v, want %v", s, table[s], pubs)
		}
		for _, p := range pubs {
			got, ok := table[s][p.frame]
			if !ok || !slices.Equal(got, p.claims) {
				return fmt.Errorf("shard %d round %d claims %v (published %v), want %v", s, p.frame, got, ok, p.claims)
			}
		}
	}
	return nil
}

// key adds the published claims to a state's key. A shard's views hold
// at most one track a camera, so a claim is its camera, frame and owner.
func (h *handoffRef) key(num func(int64)) {
	for _, pubs := range h.published {
		num(int64(len(pubs)))
		for _, p := range pubs {
			num(int64(p.frame))
			num(int64(len(p.claims)))
			for _, c := range p.claims {
				num(int64(c.FromCam<<8 | c.Owner))
			}
		}
	}
}

// shardFleets narrows e to one fleet per shard. At key frame k every
// camera reports one track from trace frame 10k: the object a boundary
// pair of cameras both see with a mapped IoU of at least 0.2 where it
// sees that object, else its first.
func shardFleets(t *testing.T, e *shardedEnv, rounds int) []*fleet {
	t.Helper()
	views := make([][][]TrackReport, rounds)
	for k := range views {
		ft := &e.test.Frames[10*k]
		object := -1
		for _, edge := range e.m.Boundary {
			for _, oa := range ft.PerCamera[edge.A] {
				for _, ob := range ft.PerCamera[edge.B] {
					mapped, visible, err := e.model.MapBox(edge.A, edge.B, oa.Box)
					if object < 0 && oa.ObjectID == ob.ObjectID && err == nil && visible && mapped.IoU(ob.Box) >= 0.2 {
						object = oa.ObjectID
					}
				}
			}
		}
		if object < 0 {
			t.Fatalf("no boundary object at trace frame %d", 10*k)
		}
		views[k] = make([][]TrackReport, e.m.NumCameras())
		for cam, obs := range ft.PerCamera {
			if len(obs) == 0 {
				continue
			}
			o := obs[0]
			if i := slices.IndexFunc(obs, func(o scene.Observation) bool { return o.ObjectID == object }); i >= 0 {
				o = obs[i]
			}
			views[k][cam] = []TrackReport{{TrackID: o.ObjectID, Size: 64,
				Box: [4]float64{o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY}}}
		}
	}
	var fleets []*fleet
	for _, roster := range e.m.Shards {
		model, err := e.model.Subset(roster)
		if err != nil {
			t.Fatal(err)
		}
		f := &fleet{model: model, roster: roster, rounds: map[[2]int]*central.Round{}}
		for _, c := range roster {
			f.profiles = append(f.profiles, e.profiles[c])
		}
		for _, byCam := range views {
			var local [][]TrackReport
			for _, c := range roster {
				local = append(local, byCam[c])
			}
			f.views = append(f.views, local)
		}
		fleets = append(fleets, f)
	}
	return fleets
}

// TestExploreShardedRoundMachines walks every interleaving of register,
// report and leave of a two-shard scheduler's four cameras, split
// {0,1}|{2,3}, over two key frames whose views hand a boundary object
// off, with and without a lease; a tick runs every machine at the
// earliest wake-up of any, as the shell's timer does. Each machine is
// held to the one-shard exploration's invariants, every reply to
// central.Solve with the hand-off the referee's own claim account
// implies (so the lower shard never demotes, and the higher one shadows
// to a foreign owner exactly when a claim matches), and the claim table
// to one publication per completed round, empty lists included. The
// six-camera exploration corridor cannot serve here: its model never
// maps a box across cameras 1 and 2.
func TestExploreShardedRoundMachines(t *testing.T) {
	gc := debug.SetGCPercent(800) // as in TestExploreRoundMachine
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	e := buildShardedEnv(t, 4, 23, 2)
	if got := e.m.String(); got != "0,1|2,3" {
		t.Fatalf("corridor partitioned as %s, want 0,1|2,3", got)
	}
	for _, lease := range []time.Duration{0, 100 * time.Millisecond} {
		sc := scope{cams: 4, rounds: 2, regs: 1, lease: lease}
		t.Run(fmt.Sprintf("lease%v", lease), func(t *testing.T) {
			t.Parallel()
			s, err := NewShardedScheduler(e.model, e.profiles, 0, e.m, scopeOptions(sc)...)
			if err != nil {
				t.Fatal(err)
			}
			seen := &handoffSeen{}
			root := &state{
				hand:   &handoffRef{e: e, published: make([][]publication, len(s.machines)), seen: seen},
				claims: s.machines[0].shard.claims,
				wakes:  make([]time.Time, len(s.machines)),
				now:    epoch,
			}
			for sid, f := range shardFleets(t, e, sc.rounds) {
				m := s.machines[sid]
				m.start(epoch)
				ref := newReferee(f, sc.lease, sc.timeout)
				ref.shard, ref.hand = sid, root.hand
				root.ms, root.refs = append(root.ms, m), append(root.refs, ref)
			}
			t.Logf("%+v: %d states, %d rounds handed an object off, %d empty claim lists", sc, walk(t, root, sc), seen.demoted, seen.empty)
			if seen.demoted == 0 || seen.empty == 0 {
				t.Fatal("the walk never handed an object off or never published an empty claim list")
			}
		})
	}
}

// shardedMachines builds the round machines of a sharded scheduler over
// e, each started at epoch with its whole roster registered.
func shardedMachines(t *testing.T, e *shardedEnv) []*machine {
	t.Helper()
	s, err := NewShardedScheduler(e.model, e.profiles, 0, e.m, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.machines {
		m.start(epoch)
		for cam := range m.cams {
			quiet(t, "a registration", m.register(cam, epoch))
		}
	}
	return s.machines
}

// shardRound has every camera of m's roster report its view of the
// global views at frame, and returns the replies the last report
// completes, by global camera.
func shardRound(t *testing.T, m *machine, frame int, views [][]TrackReport) map[int]*Assignment {
	t.Helper()
	var acts actions
	for cam, global := range m.shard.roster {
		acts = m.report(report(cam, frame, views[global]...), epoch)
	}
	got := map[int]*Assignment{}
	for cam, a := range replies(t, acts) {
		got[m.glob(cam)] = a
	}
	if len(got) != len(m.cams) {
		t.Fatalf("%s round %d answered %d of %d cameras", m.shard.label, frame, len(got), len(m.cams))
	}
	return got
}

// TestMachineHandoffRules holds the hand-off rules to explicit frames on
// the two machines of the {0,1}|{2,3} corridor, every camera reporting
// its view of one trace frame in which boundary camera a (lower shard)
// and b (higher) both see an object.
func TestMachineHandoffRules(t *testing.T) {
	e := buildShardedEnv(t, 4, 23, 2)
	a, b, frame, object := boundaryPair(t, e)
	lower, higher := e.m.ShardOf[a], e.m.ShardOf[b]
	views, nothing := make([][]TrackReport, e.m.NumCameras()), make([][]TrackReport, e.m.NumCameras())
	for cam := range views {
		views[cam] = reportFor(e, frame, cam)
	}
	// owner is the camera the lower shard's replies give the object to.
	owner := func(low map[int]*Assignment) int {
		if hasKeep(low[a], object) {
			return a
		}
		sh, ok := shadowOf(low[a], object)
		if !ok || e.m.ShardOf[sh] != lower {
			t.Fatalf("lower shard reply %+v does not keep object %d in its shard", low[a], object)
		}
		return sh
	}
	// handedOff reports the foreign owner the higher shard's replies
	// shadow the object to, failing the test unless every camera of the
	// shard that sees the object names that same one.
	handedOff := func(high map[int]*Assignment) (int, bool) {
		foreign, kept := -1, false
		for _, cam := range e.m.Shards[higher] {
			if hasKeep(high[cam], object) {
				kept = true
			} else if sh, ok := shadowOf(high[cam], object); ok && e.m.ShardOf[sh] != higher {
				if foreign >= 0 && sh != foreign {
					t.Fatalf("higher shard shadows object %d to both %d and %d", object, foreign, sh)
				}
				foreign = sh
			}
		}
		if kept && foreign >= 0 {
			t.Fatalf("higher shard both keeps object %d and hands it to camera %d: %+v", object, foreign, high)
		}
		return foreign, foreign >= 0
	}

	t.Run("claim lives handoffTTL frames", func(t *testing.T) {
		ms := shardedMachines(t, e)
		want := owner(shardRound(t, ms[lower], 0, views))
		for _, f := range []int{10, handoffTTL} {
			if got, ok := handedOff(shardRound(t, ms[higher], f, views)); !ok || got != want {
				t.Fatalf("round %d: handed off %v to camera %d, want the frame-0 claim's owner %d", f, ok, got, want)
			}
		}
		if got, ok := handedOff(shardRound(t, ms[higher], handoffTTL+1, views)); ok {
			t.Fatalf("round %d handed object %d to camera %d on a claim published at frame 0", handoffTTL+1, object, got)
		}
	})
	t.Run("empty claim list releases", func(t *testing.T) {
		ms := shardedMachines(t, e)
		want := owner(shardRound(t, ms[lower], 0, views))
		if got, ok := handedOff(shardRound(t, ms[higher], 0, views)); !ok || got != want {
			t.Fatalf("round 0: handed off %v to camera %d, want %d", ok, got, want)
		}
		shardRound(t, ms[lower], 10, nothing)
		if claims, ok := ms[lower].shard.claims[lower][10]; !ok || len(claims) != 0 {
			t.Fatalf("lower shard's round 10 published %v (present %v), want an empty list", claims, ok)
		}
		if got, ok := handedOff(shardRound(t, ms[higher], 10, views)); ok {
			t.Fatalf("round 10 still handed object %d to camera %d after the lower shard released it", object, got)
		}
	})
	t.Run("lower shard never demotes", func(t *testing.T) {
		ms := shardedMachines(t, e)
		if got, ok := handedOff(shardRound(t, ms[higher], 0, views)); ok {
			t.Fatalf("higher shard handed object %d to camera %d with no claim published", object, got)
		}
		if len(ms[higher].shard.claims[higher][0]) == 0 {
			t.Fatal("higher shard claimed nothing for its boundary object")
		}
		for cam, reply := range shardRound(t, ms[lower], 0, views) {
			for _, sh := range reply.Shadows {
				if e.m.ShardOf[sh.AssignedCamera] != lower {
					t.Fatalf("lower shard camera %d shadows track %d to foreign camera %d", cam, sh.TrackID, sh.AssignedCamera)
				}
			}
		}
	})
}
