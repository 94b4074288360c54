package cluster

import (
	"encoding/binary"
	"fmt"
	"maps"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/central"
	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/workload"
)

// fleet is a trained corridor whose cameras upload ground-truth boxes:
// views[k][cam] is camera cam's report for key frame 10k.
type fleet struct {
	model    *assoc.Model
	profiles []*profile.Profile
	views    [][][]TrackReport
	// roster names each camera's global index when the fleet is one shard
	// of a sharded scheduler's (nil: the identity).
	roster []int

	// rounds caches what central.Solve makes of a key frame's views,
	// keyed by key frame and the mask of cameras that reported.
	rounds map[[2]int]*central.Round
}

const fleetCams, fleetKeyFrames = 6, 8

var (
	corridorOnce sync.Once
	corridor     *fleet
	corridorErr  error
)

// corridorFleet trains one six-camera corridor for the explorations and
// narrows it to its first n cameras. Each camera reports at most one
// track a key frame, so a round solves in microseconds.
func corridorFleet(t *testing.T, n int) *fleet {
	t.Helper()
	corridorOnce.Do(func() {
		s, err := workload.Corridor(fleetCams, 5)
		if err != nil {
			corridorErr = err
			return
		}
		trace, err := s.World.Run(20 * fleetKeyFrames)
		if err != nil {
			corridorErr = err
			return
		}
		train, test := trace.SplitTrain()
		model, err := assoc.Train(train, assoc.Factories{})
		if err != nil {
			corridorErr = err
			return
		}
		corridor = &fleet{model: model, profiles: s.Profiles()}
		for k := 0; k < fleetKeyFrames; k++ {
			views := make([][]TrackReport, fleetCams)
			for cam, obs := range test.Frames[10*k].PerCamera {
				for _, o := range obs[:min(len(obs), 1)] {
					views[cam] = append(views[cam], TrackReport{
						TrackID: o.ObjectID, Size: 64,
						Box: [4]float64{o.Box.MinX, o.Box.MinY, o.Box.MaxX, o.Box.MaxY},
					})
				}
			}
			corridor.views = append(corridor.views, views)
		}
	})
	if corridorErr != nil {
		t.Fatal(corridorErr)
	}
	roster := make([]int, n)
	for i := range roster {
		roster[i] = i
	}
	model, err := corridor.model.Subset(roster)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{model: model, profiles: corridor.profiles[:n], rounds: map[[2]int]*central.Round{}}
	for _, views := range corridor.views {
		f.views = append(f.views, views[:n])
	}
	return f
}

// solve returns central.Solve's round over key frame k's views, given
// the mask of cameras whose views it holds.
func (f *fleet) solve(k int, reported uint8) (*central.Round, error) {
	if r, ok := f.rounds[[2]int{k, int(reported)}]; ok {
		return r, nil
	}
	n := len(f.profiles)
	cams := make([]core.CameraSpec, n)
	for i, p := range f.profiles {
		cams[i] = core.CameraSpec{Index: i, Profile: p}
	}
	r := new(central.Round)
	r.Views.Reset(n, n)
	for cam := 0; cam < n; cam++ {
		if reported&(1<<cam) == 0 {
			continue
		}
		for _, tr := range f.views[k][cam] {
			r.Views.Add(cam, geom.Rect{MinX: tr.Box[0], MinY: tr.Box[1], MaxX: tr.Box[2], MaxY: tr.Box[3]},
				central.Track{ID: tr.TrackID, Size: tr.Size})
		}
	}
	if err := central.Solve(central.Params{Model: f.model, Cameras: cams, MinIoU: 0.1, Workers: 1}, r); err != nil {
		return nil, err
	}
	f.rounds[[2]int{k, int(reported)}] = r
	return r, nil
}

// want returns the Assignment central.Solve makes for every camera of
// key frame k's round, given the mask of cameras whose views it holds.
func (f *fleet) want(k int, reported uint8) ([]*Assignment, error) {
	r, err := f.solve(k, reported)
	if err != nil {
		return nil, err
	}
	return f.replies(10*k, r, nil), nil
}

// replies turns a solved round into every camera's Assignment, in
// global camera indices; demoted maps each object handed off to a lower
// shard to its foreign owner.
func (f *fleet) replies(frame int, r *central.Round, demoted map[int]int) []*Assignment {
	prio := make([]int, len(r.Solution.Priority))
	for i, c := range r.Solution.Priority {
		prio[i] = f.glob(c)
	}
	w := make([]*Assignment, len(f.profiles))
	for cam := range w {
		w[cam] = &Assignment{Frame: frame, Priority: prio}
	}
	r.Walk(func(mb central.Member) {
		id := r.Views.Tracks[mb.Cam][mb.Index].ID
		if owner, ok := demoted[mb.Object]; ok {
			w[mb.Cam].Shadows = append(w[mb.Cam].Shadows, ShadowOrder{TrackID: id, AssignedCamera: owner})
		} else if mb.Kept {
			w[mb.Cam].Keep = append(w[mb.Cam].Keep, id)
		} else {
			w[mb.Cam].Shadows = append(w[mb.Cam].Shadows, ShadowOrder{TrackID: id, AssignedCamera: f.glob(mb.Owner)})
		}
	})
	return w
}

// glob is camera cam's global index.
func (f *fleet) glob(cam int) int {
	if f.roster == nil {
		return cam
	}
	return f.roster[cam]
}

// referee is the tests' own reading of the barrier rules, written apart
// from the machine's so that each checks the other. It mirrors the
// roster and the pending rounds from the events alone.
type referee struct {
	f              *fleet
	lease, timeout time.Duration
	// shard is the machine's shard and hand the hand-off account its
	// neighbours' referees share, for a sharded scheduler's machine (nil
	// hand: unsharded).
	shard int
	hand  *handoffRef
	// joined, connected and lastSeen per camera, as the events say.
	joined, connected []bool
	lastSeen          []time.Time
	// pending rounds ascending by key frame; lastDone is the highest
	// frame answered, seq the number of rounds answered.
	pending       []refRound
	lastDone, seq int
}

type refRound struct {
	k        int
	reported uint8
	first    time.Time
}

func newReferee(f *fleet, lease, timeout time.Duration) *referee {
	n := len(f.profiles)
	r := &referee{f: f, lease: lease, timeout: timeout, lastDone: -1,
		joined: make([]bool, n), connected: make([]bool, n), lastSeen: make([]time.Time, n)}
	for cam := range r.lastSeen {
		r.lastSeen[cam] = epoch
	}
	return r
}

func (r *referee) clone() *referee {
	c := *r
	c.joined, c.connected = slices.Clone(r.joined), slices.Clone(r.connected)
	c.lastSeen, c.pending = slices.Clone(r.lastSeen), slices.Clone(r.pending)
	return &c
}

// silent reports whether camera cam's lease has run out at t.
func (r *referee) silent(cam int, t time.Time) bool {
	return r.lease > 0 && !t.Before(r.lastSeen[cam].Add(r.lease))
}

// released reports whether round p no longer waits for camera cam at t:
// it reported, it registered and left, or its lease ran out.
func (r *referee) released(p refRound, cam int, t time.Time) bool {
	return p.reported&(1<<cam) != 0 || r.joined[cam] && !r.connected[cam] || r.silent(cam, t)
}

// due reports whether round p must be answered at t.
func (r *referee) due(p refRound, t time.Time) bool {
	if r.timeout > 0 && !t.Before(p.first.Add(r.timeout)) {
		return true
	}
	for cam := range r.joined {
		if !r.released(p, cam, t) {
			return false
		}
	}
	return true
}

// wake is the earliest time after t at which a pending round becomes due
// with no event arriving (zero: never).
func (r *referee) wake(t time.Time) time.Time {
	var w time.Time
	earlier := func(at time.Time) {
		if at.After(t) && (w.IsZero() || at.Before(w)) {
			w = at
		}
	}
	for _, p := range r.pending {
		if r.timeout > 0 {
			earlier(p.first.Add(r.timeout))
		}
		for cam := range r.joined {
			if r.lease > 0 && !r.released(p, cam, t) {
				earlier(r.lastSeen[cam].Add(r.lease))
			}
		}
	}
	return w
}

// dead is the Dead list round p's replies carry at t.
func (r *referee) dead(p refRound, t time.Time) []int {
	if r.lease == 0 {
		return nil
	}
	var dead []int
	for cam := range r.joined {
		if p.reported&(1<<cam) == 0 && (!r.connected[cam] || r.silent(cam, t)) {
			dead = append(dead, r.f.glob(cam))
		}
	}
	return dead
}

// answer is what completing round p replies to every camera: central.Solve's
// decision over the round's views and, for a shard, the hand-off.
func (r *referee) answer(p refRound) ([]*Assignment, error) {
	if r.hand != nil {
		return r.hand.complete(r, p)
	}
	return r.f.want(p.k, p.reported)
}

// An event is one input to the machine, or the clock moving on with
// none.
type event struct {
	kind   byte // 'r'egister, 'p' report key frame k, 'h'eartbeat, 'l'eave, 't'ick, 'w'ait
	cam, k int
	at     time.Time
}

// since prints t as an offset from epoch ("never" for the zero time).
func since(t time.Time) string {
	if t.IsZero() {
		return "never"
	}
	return t.Sub(epoch).String()
}

func (e event) String() string {
	at := since(e.at)
	switch e.kind {
	case 't', 'w':
		return fmt.Sprintf("%c@%v", e.kind, at)
	case 'p':
		return fmt.Sprintf("report(%d,f%d)@%v", e.cam, 10*e.k, at)
	}
	return fmt.Sprintf("%c(%d)@%v", e.kind, e.cam, at)
}

// step feeds ev to m at t, mirrors it, and checks the machine's answer
// against the invariants:
//   - a late report is answered stale in the same step;
//   - a round is answered only while pending (so exactly once), in frame
//     order, and only once every camera reported or was released, or
//     its round timeout ran out;
//   - it is answered to exactly the connected cameras, each reply equal
//     to central.Solve on the round's views (with a shard's hand-off),
//     with the Dead list the liveness rule gives at t;
//   - no round is still pending that is due at t, and the machine's
//     wake-up is the earliest time one becomes due.
func (r *referee) step(m *machine, ev event, t time.Time) (wakeAt time.Time, err error) {
	var acts actions
	stale := false
	switch ev.kind {
	case 'r':
		acts = m.register(ev.cam, t)
		r.joined[ev.cam], r.connected[ev.cam], r.lastSeen[ev.cam] = true, true, t
	case 'h':
		acts = m.touch(ev.cam, t)
		r.lastSeen[ev.cam] = t
	case 'l':
		acts = m.leave(ev.cam, t)
		r.connected[ev.cam] = false
	case 't':
		acts = m.tick(t)
	case 'p':
		acts = m.report(&Detections{Camera: ev.cam, Frame: 10 * ev.k, Tracks: r.f.views[ev.k][ev.cam]}, t)
		r.lastSeen[ev.cam] = t
		if stale = 10*ev.k <= r.lastDone; !stale {
			i, found := slices.BinarySearchFunc(r.pending, ev.k, func(p refRound, k int) int { return p.k - k })
			if !found {
				r.pending = slices.Insert(r.pending, i, refRound{k: ev.k, first: t})
			}
			r.pending[i].reported |= 1 << ev.cam
		}
	}
	sends := acts.sends
	if stale {
		if len(sends) == 0 || sends[0].cam != ev.cam || !strings.HasPrefix(sends[0].err, staleRound) {
			return wakeAt, fmt.Errorf("late report not answered stale in the same step: %+v", sends)
		}
		sends = sends[1:]
	}
	for _, e := range acts.emits {
		i := slices.IndexFunc(r.pending, func(p refRound) bool { return 10*p.k == e.snap.Frame })
		if i < 0 {
			return wakeAt, fmt.Errorf("round %d answered while not pending (pending %v)", e.snap.Frame, r.pending)
		}
		p := r.pending[i]
		if !r.due(p, t) {
			return wakeAt, fmt.Errorf("round %d answered before its barrier (reports %b)", e.snap.Frame, p.reported)
		}
		want, err := r.answer(p)
		if err != nil {
			return wakeAt, err
		}
		dead := r.dead(p, t)
		for cam, connected := range r.connected {
			if !connected {
				continue
			}
			if len(sends) == 0 || sends[0].cam != cam || sends[0].assignment == nil {
				return wakeAt, fmt.Errorf("round %d: connected camera %d not answered (sends %+v)", e.snap.Frame, cam, sends)
			}
			a, w := sends[0].assignment, want[cam]
			sends = sends[1:]
			if a.Frame != w.Frame || !slices.Equal(a.Keep, w.Keep) || !slices.Equal(a.Shadows, w.Shadows) ||
				!slices.Equal(a.Priority, w.Priority) || !slices.Equal(a.Dead, dead) {
				return wakeAt, fmt.Errorf("round %d camera %d: reply %+v, want %+v with Dead %v", e.snap.Frame, cam, a, w, dead)
			}
		}
		full := uint8(1)<<len(r.joined) - 1
		if e.snap.Seq != r.seq || e.round.Seq != r.seq || e.snap.Partial != (p.reported != full) {
			return wakeAt, fmt.Errorf("round %d: seq %d/%d partial %v, want seq %d partial %v",
				e.snap.Frame, e.snap.Seq, e.round.Seq, e.snap.Partial, r.seq, p.reported != full)
		}
		r.seq++
		r.lastDone = e.snap.Frame
		r.pending = r.pending[i+1:] // and every earlier round, superseded
	}
	if len(sends) > 0 {
		return wakeAt, fmt.Errorf("unexpected sends %+v", sends)
	}
	if err := r.settled(t); err != nil {
		return wakeAt, err
	}
	if w := r.wake(t); !w.Equal(acts.wakeAt) {
		return wakeAt, fmt.Errorf("wake at %v, want %v", since(acts.wakeAt), since(w))
	}
	return acts.wakeAt, nil
}

// settled fails if a pending round is due at t.
func (r *referee) settled(t time.Time) error {
	for _, p := range r.pending {
		if r.due(p, t) {
			return fmt.Errorf("round %d still pending at %v, though due", 10*p.k, since(t))
		}
	}
	return nil
}

// clone deep-copies the machine's state for the exploration; the
// settings and the scratch workspace are shared.
func (m *machine) clone() *machine {
	if m.adaptCtrl != nil {
		panic("clone: adapt controller state is not copied")
	}
	c := *m
	c.joined, c.connected = slices.Clone(m.joined), slices.Clone(m.connected)
	c.lastSeen, c.lastAssigned = slices.Clone(m.lastSeen), slices.Clone(m.lastAssigned)
	c.rounds = make([]*round, len(m.rounds))
	for i, r := range m.rounds {
		rc := *r
		rc.reports = slices.Clone(r.reports)
		c.rounds[i] = &rc
	}
	return &c
}

// scope bounds one exhaustive exploration: the cameras and key frames,
// and per camera how often it may register and ping, plus how many
// times the clock may move on by itself (wait) between events.
type scope struct {
	cams, rounds, regs, pings, waits int
	lease, timeout                   time.Duration
}

// state is one node of the exploration: a scheduler's machines, one per
// shard, each with its referee, at one time. A state shares a machine
// and its referee with the state it was cloned from until an event
// changes them (own).
type state struct {
	ms    []*machine
	refs  []*referee
	wakes []time.Time
	// hand is the referees' shared hand-off account, and claims the
	// machines' claim table (both nil unsharded).
	hand   *handoffRef
	claims claimTable
	now    time.Time
	// next is each camera's next key frame; regs and pings count its
	// registrations and heartbeats so far; waits counts clock moves.
	// Cameras are numbered globally, shard after shard.
	next, regs, pings [4]int
	waits             int
}

// wake is the earliest wake-up of any machine: the shell's one timer.
func (s *state) wake() time.Time {
	var w time.Time
	for _, at := range s.wakes {
		if !at.IsZero() && (w.IsZero() || at.Before(w)) {
			w = at
		}
	}
	return w
}

func (s *state) clone() *state {
	c := *s
	c.ms, c.refs, c.wakes = slices.Clone(s.ms), slices.Clone(s.refs), slices.Clone(s.wakes)
	if s.hand != nil {
		c.hand = s.hand.clone()
		c.claims = make(claimTable, len(s.claims))
		for i, byFrame := range s.claims {
			c.claims[i] = maps.Clone(byFrame)
		}
	}
	return &c
}

// own gives s its own copy of shard sid's machine and referee, pointed
// at the state's claim table and hand-off account, before an event
// changes them.
func (s *state) own(sid int) {
	s.ms[sid], s.refs[sid] = s.ms[sid].clone(), s.refs[sid].clone()
	s.refs[sid].hand = s.hand
	if ctx := s.ms[sid].shard; ctx != nil {
		scoped := *ctx
		scoped.claims = s.claims
		s.ms[sid].shard = &scoped
	}
}

// key identifies a state up to what decides its future and the checks
// on it. The machine is translation-invariant in time, so times enter
// relative to now: a camera's silence (capped at the lease, past which
// it no longer matters; left out for a camera that registered and left,
// which no round waits for and every dead list names whatever its
// silence, and whose next registration restarts it) and a pending
// round's time left. The counters that only number or fill in records
// (seq, the fault counters) are left out.
func (s *state) key() string {
	b := make([]byte, 0, 128)
	num := func(v int64) { b = binary.AppendVarint(b, v) }
	num(int64(s.waits))
	cam := 0
	for _, ref := range s.refs {
		for local := range ref.joined {
			conn := 0
			if ref.connected[local] {
				conn = 1
			}
			num(int64(s.next[cam]<<8 | s.regs[cam]<<4 | s.pings[cam]<<1 | conn))
			if ref.lease > 0 && (ref.connected[local] || !ref.joined[local]) {
				num(int64(min(s.now.Sub(ref.lastSeen[local]), ref.lease)))
			}
			cam++
		}
	}
	for _, ref := range s.refs {
		for _, p := range ref.pending {
			num(int64(p.k<<8 | int(p.reported)))
			if ref.timeout > 0 {
				num(int64(p.first.Add(ref.timeout).Sub(s.now)))
			}
		}
		num(int64(ref.lastDone))
	}
	if s.hand != nil {
		s.hand.key(num)
	}
	return string(b)
}

// step delivers ev, naming a global camera, to the machine it concerns
// (a tick to every machine, as the shell's timer does) and checks the
// answers and, when sharded, the published claims.
func (s *state) step(ev event) error {
	for sid := range s.refs {
		local := ev
		if ev.kind != 't' {
			if local.cam -= sid * len(s.refs[0].joined); local.cam < 0 || local.cam >= len(s.refs[sid].joined) {
				continue
			}
		}
		s.own(sid)
		var err error
		if s.wakes[sid], err = s.refs[sid].step(s.ms[sid], local, s.now); err != nil {
			return err
		}
	}
	if s.hand != nil {
		return s.hand.check(s.claims)
	}
	return nil
}

// explore walks every interleaving the scope allows for one unsharded
// machine over f, depth first (see walk).
func explore(t *testing.T, f *fleet, sc scope) int {
	t.Helper()
	root := &state{
		ms:    []*machine{newTestMachine(t, f.model, f.profiles, scopeOptions(sc)...)},
		refs:  []*referee{newReferee(f, sc.lease, sc.timeout)},
		wakes: make([]time.Time, 1),
		now:   epoch,
	}
	return walk(t, root, sc)
}

// scopeOptions are the Options a scope's machines run under.
func scopeOptions(sc scope) []Option {
	opts := []Option{WithWorkers(1)}
	if sc.lease > 0 {
		opts = append(opts, WithLease(sc.lease))
	}
	if sc.timeout > 0 {
		opts = append(opts, WithRoundTimeout(sc.timeout))
	}
	return opts
}

// walk walks every interleaving the scope allows from root, depth
// first, merging states that agree on key, and fails at the first event
// whose answer breaks an invariant. Every shard has the same number of
// cameras. It returns the number of states visited.
func walk(t *testing.T, root *state, sc scope) int {
	t.Helper()
	perShard := len(root.refs[0].joined)
	wait := min(sc.lease, sc.timeout) / 2
	seen := map[string]bool{}
	var path []event
	var visit func(s *state)
	visit = func(s *state) {
		k := s.key()
		if seen[k] {
			return
		}
		seen[k] = true
		wake := s.wake()
		var evs []event
		for cam := 0; cam < sc.cams; cam++ {
			connected := s.refs[cam/perShard].connected[cam%perShard]
			if !connected && s.regs[cam] < sc.regs {
				evs = append(evs, event{kind: 'r', cam: cam})
			}
			// A camera may report any key frame after its last one: it
			// gives the ones between up (its client deadline passed, or the
			// report was lost).
			for k := s.next[cam]; connected && k < sc.rounds; k++ {
				evs = append(evs, event{kind: 'p', cam: cam, k: k})
			}
			if connected && s.pings[cam] < sc.pings {
				evs = append(evs, event{kind: 'h', cam: cam})
			}
			if connected {
				evs = append(evs, event{kind: 'l', cam: cam})
			}
		}
		if !wake.IsZero() {
			evs = append(evs, event{kind: 't'})
		}
		if s.waits < sc.waits && (wake.IsZero() || s.now.Add(wait).Before(wake)) {
			evs = append(evs, event{kind: 'w'})
		}
		for _, ev := range evs {
			c := s.clone()
			var err error
			switch ev.kind {
			case 'w':
				c.waits++
				c.now = c.now.Add(wait)
				for _, ref := range c.refs {
					if err == nil {
						err = ref.settled(c.now)
					}
				}
			case 't':
				c.now = wake
			case 'r':
				c.regs[ev.cam]++
			case 'h':
				c.pings[ev.cam]++
			case 'p':
				c.next[ev.cam] = ev.k + 1
			}
			if ev.at = c.now; ev.kind != 'w' {
				err = c.step(ev)
			}
			path = append(path, ev)
			if err != nil {
				t.Fatalf("%+v: after %v: %v", sc, path, err)
			}
			visit(c)
			path = path[:len(path)-1]
		}
	}
	visit(root)
	return len(seen)
}

// TestExploreRoundMachine enumerates every interleaving of register,
// report, heartbeat, leave, lease expiry and round timeout for up to
// three cameras and three key frames, under each combination of lease
// and round timeout, and holds every step to the referee's invariants.
// The scopes trade alphabet for size: one camera reconnects, pings and
// lets the clock run over three key frames; two cameras do the same over
// two; three cameras register once and report over three.
func TestExploreRoundMachine(t *testing.T) {
	// Every transition clones a state, and little of it stays live: a
	// lazier collector cuts the exploration's time by a third.
	gc := debug.SetGCPercent(800)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	const lease, timeout = 100 * time.Millisecond, 150 * time.Millisecond
	for _, sc := range []scope{
		{cams: 1, rounds: 3, regs: 2, pings: 1, waits: 3},
		{cams: 2, rounds: 2, regs: 2, pings: 1, waits: 1},
		{cams: 3, rounds: 3, regs: 1, pings: 0, waits: 0},
	} {
		for _, lt := range [][2]time.Duration{{0, 0}, {lease, 0}, {0, timeout}, {lease, timeout}} {
			sc := sc
			sc.lease, sc.timeout = lt[0], lt[1]
			if sc.lease == 0 {
				sc.pings = 0 // a ping changes nothing without a lease
				if sc.timeout == 0 {
					sc.waits = 0 // nor does time
				}
			}
			name := fmt.Sprintf("%dcams_%drounds_lease%v_timeout%v", sc.cams, sc.rounds, sc.lease, sc.timeout)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				t.Logf("%+v: %d states", sc, explore(t, corridorFleet(t, sc.cams), sc))
			})
		}
	}
}
