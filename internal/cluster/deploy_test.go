package cluster_test

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/cluster"
	"mvs/internal/faults"
	"mvs/internal/metrics"
	"mvs/internal/node"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/shard"
)

// This file is the deployment over two transports. deploy runs it on
// virtual time: N node.Runtimes, each under its node machine, against
// one scheduler's round machines, connected by an in-process transport
// that delivers every message, dial and hang-up as an event on one
// virtual clock. Its faults are the faults.Config vocabulary — delay
// and jitter per message (FIFO per connection and direction), a write
// dropped (DropRate, or every WriteCut-th write of a connection) or a
// read reset (ResetRate) killing the connection, and partitions in
// which every read, write and dial fails — drawn from one seeded PRNG,
// so a run replays exactly. The transport plays both shells:
// cmd/mvnode's frame loop and ReconnectClient's I/O on the node side,
// the Scheduler's connection handling on the other. It checks the
// deployment's laws as it goes. loopback runs a zero-fault plan over
// real sockets, through the shells themselves. deployment_laws_test.go
// runs both.

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// world is one deployment's input: the evaluation trace, the model
// trained on the trace's first half, the cameras' profiles, and the
// shard map of a sharded scheduler (nil: one global round).
type world struct {
	trace    *scene.Trace
	model    *assoc.Model
	profiles []*profile.Profile
	smap     *shard.Map
}

// plan is how a deployment runs.
type plan struct {
	// seed drives the nodes' detector noise.
	seed    int64
	horizon int
	// opts configure the scheduler; lease and timeout repeat its
	// WithLease and WithRoundTimeout for the barrier law.
	opts           []cluster.Option
	lease, timeout time.Duration
	// stagger delays camera cam's first dial by (cam%3)·stagger.
	stagger time.Duration
	// period is a node's frame time; deadline a key frame's reply
	// budget; heartbeat pings every N-th frame that is not a key frame
	// (0: never); attempts bounds the connection attempts per operation.
	period, deadline time.Duration
	heartbeat        int
	attempts         int
	// faults is the seeded fault schedule (the zero value: none), down
	// the camera outages (nil: none).
	faults faults.Config
	down   func(cam, fi int) bool
	// maskless nodes ask for no masks and own all they see.
	maskless bool
}

// run is what a deployment leaves behind: the scheduler's round
// records, the faults injected, and per camera the node's snapshots,
// final counters, the objects it detected and the frames it key-framed
// on.
type run struct {
	rounds    []metrics.Round
	frames    [][]metrics.Snapshot
	stats     []node.Stats
	detected  []map[int]bool
	keyFrames [][]int
	faults    int
}

// Operations a node can have in flight.
const (
	opNone = iota
	opConnect
	opKeyFrame
	opPing
)

// conn is one connection of the transport; toSched and toNode are the
// arrival times of the last message each way, which later ones never
// overtake.
type conn struct {
	id, cam         int
	writes          int
	toSched, toNode time.Time
}

// simNode is one camera node: its runtime and machine, the shell state
// mvnode and ReconnectClient keep, and what the laws expect of it.
type simNode struct {
	cam  int
	m    *cluster.NodeMachine
	rt   *node.Runtime
	sink *frameLog
	// live is the registered connection, dialing the one being dialed;
	// ack is the last registration reply.
	live, dialing *conn
	ack           *cluster.HelloAck
	// inbox holds messages read from live while nothing awaited them;
	// awaiting is set while the machine awaits a reply.
	inbox    []*cluster.Envelope
	awaiting bool
	wakeGen  int
	// fi is the next frame; op the operation in flight; settle and key
	// the key frame awaiting its outcome.
	fi     int
	op     int
	settle func(*cluster.Assignment) error
	key    int
	done   bool
	// What the laws expect: degraded mode, the adapt level of the last
	// applied assignment, the frames stepped while degraded.
	degraded       bool
	level          int
	degradedFrames int
	keyFrames      []int
	dials          int
}

// deployment is one run in progress.
type deployment struct {
	w     *world
	p     plan
	rng   *rand.Rand
	sched *cluster.VirtualScheduler
	nodes []*simNode
	conns map[int]*conn
	queue events
	now   time.Time
	seq   int
	// schedGen invalidates superseded scheduler wake-ups.
	schedGen int
	rounds   []metrics.Round
	faults   int
	// The scheduler side as the barrier law sees it: which cameras ever
	// registered, when each was last heard from, which cameras reported
	// to each pending round of each shard ({shard, frame}; shard 0 when
	// unsharded) and when its first report came, and each shard's highest
	// round scheduled.
	joined      []bool
	lastSeen    []time.Time
	reporters   map[[2]int]map[int]bool
	firstReport map[[2]int]time.Time
	lastDone    []int
	answered    map[[2]int]bool
	// reported[cam, frame] is the last report the scheduler took from
	// camera cam for the round at frame.
	reported map[[2]int][]cluster.TrackReport
	// err is the first law broken.
	err error
}

// event is one thing that happens at a virtual time; seq orders the
// simultaneous ones by scheduling order.
type event struct {
	at  time.Time
	seq int
	fn  func()
}

type events []event

func (q events) Len() int { return len(q) }
func (q events) Less(i, j int) bool {
	if c := q[i].at.Compare(q[j].at); c != 0 {
		return c < 0
	}
	return q[i].seq < q[j].seq
}
func (q events) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *events) Push(x any)   { *q = append(*q, x.(event)) }
func (q *events) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// frameLog keeps the snapshots of a node, or of the scheduler.
type frameLog struct{ snaps []metrics.Snapshot }

func (l *frameLog) RecordFrame(s metrics.Snapshot) { l.snaps = append(l.snaps, s) }
func (l *frameLog) Flush() error                   { return nil }

// deploy runs the trace through the deployment the plan describes and
// returns what it left behind, or the first law it broke.
func deploy(w *world, p plan) (*run, error) {
	if p.period <= 0 {
		p.period = 100 * time.Millisecond
	}
	if p.deadline <= 0 {
		p.deadline = 20 * time.Second
	}
	n := len(w.trace.Cameras)
	d := &deployment{
		w: w, p: p, rng: rand.New(rand.NewSource(p.faults.Seed)),
		conns:  map[int]*conn{},
		joined: make([]bool, n), lastSeen: make([]time.Time, n),
		reporters: map[[2]int]map[int]bool{}, firstReport: map[[2]int]time.Time{},
		lastDone: make([]int, len(w.shards())), answered: map[[2]int]bool{}, reported: map[[2]int][]cluster.TrackReport{},
		now: epoch,
	}
	for cam := range d.lastSeen {
		d.lastSeen[cam] = epoch
	}
	for sid := range d.lastDone {
		d.lastDone[sid] = -1
	}
	s, err := newScheduler(w, append([]cluster.Option{cluster.WithRounds(d)}, p.opts...))
	if err != nil {
		return nil, err
	}
	d.sched = cluster.Virtualize(s, epoch)
	for cam := 0; cam < n; cam++ {
		nd := &simNode{cam: cam, m: cluster.NewNodeMachine(cam, p.seed+int64(cam), p.attempts), sink: &frameLog{}}
		d.nodes = append(d.nodes, nd)
		d.at(epoch.Add(time.Duration(cam%3)*p.stagger), func() {
			nd.op = opConnect
			d.carry(nd, nd.m.Connect(d.now))
		})
	}
	for d.queue.Len() > 0 && d.err == nil {
		e := heap.Pop(&d.queue).(event)
		d.now = e.at
		e.fn()
	}
	if d.err != nil {
		return nil, d.err
	}
	out := &run{rounds: d.rounds, faults: d.faults}
	for _, nd := range d.nodes {
		if !nd.done || nd.rt == nil {
			return nil, fmt.Errorf("camera %d stopped at frame %d", nd.cam, nd.fi)
		}
		if err := nd.check(); err != nil {
			return nil, err
		}
		out.frames = append(out.frames, nd.sink.snaps)
		out.stats = append(out.stats, nd.rt.Stats())
		out.detected = append(out.detected, nd.rt.DetectedIDs())
		out.keyFrames = append(out.keyFrames, nd.keyFrames)
	}
	if k := d.sched.Pending(); k > 0 {
		return nil, fmt.Errorf("%d rounds still pending after every camera left", k)
	}
	return out, nil
}

// newScheduler builds the world's scheduler, sharded when it has a shard
// map, on one worker.
func newScheduler(w *world, opts []cluster.Option) (*cluster.Scheduler, error) {
	opts = append([]cluster.Option{cluster.WithWorkers(1)}, opts...)
	if w.smap != nil {
		return cluster.NewShardedScheduler(w.model, w.profiles, 0, w.smap, opts...)
	}
	return cluster.NewScheduler(w.model, w.profiles, 0, opts...)
}

// check holds a finished node to its counters: every frame stepped or
// lost to an outage, degraded frames counted as the outcomes made them,
// and every connection after the first counted a reconnect.
func (nd *simNode) check() error {
	st := nd.rt.Stats()
	if st.Frames+st.OutageFrames != nd.fi {
		return fmt.Errorf("camera %d: %d frames stepped and %d lost of %d", nd.cam, st.Frames, st.OutageFrames, nd.fi)
	}
	if st.DegradedFrames != nd.degradedFrames {
		return fmt.Errorf("camera %d: %d degraded frames counted, %d stepped after a missed round", nd.cam, st.DegradedFrames, nd.degradedFrames)
	}
	if want := max(nd.dials-1, 0); nd.m.Reconnects() != want {
		return fmt.Errorf("camera %d: %d reconnects counted over %d connections", nd.cam, nd.m.Reconnects(), nd.dials)
	}
	return nil
}

func (d *deployment) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("at %v: %s", d.now.Sub(epoch), fmt.Sprintf(format, args...))
	}
}

// at schedules fn at t.
func (d *deployment) at(t time.Time, fn func()) {
	heap.Push(&d.queue, event{at: t, seq: d.seq, fn: fn})
	d.seq++
}

// partitioned reports whether t falls in a partition window.
func (d *deployment) partitioned(t time.Time) bool {
	for _, w := range d.p.faults.Partitions {
		if since := t.Sub(epoch); since >= w.Start && since < w.End {
			return true
		}
	}
	return false
}

// arrival is when a message sent now over c arrives, never before the
// last one sent the same way.
func (d *deployment) arrival(last *time.Time) time.Time {
	at := d.now.Add(d.p.faults.Delay)
	if d.p.faults.Jitter > 0 {
		at = at.Add(time.Duration(d.rng.Int63n(int64(d.p.faults.Jitter))))
	}
	if at.Before(*last) {
		at = *last
	}
	*last = at
	return at
}

var errInjected = errors.New("injected fault")

// carry is the node shell: it carries out one set of the machine's
// actions.
func (d *deployment) carry(nd *simNode, a cluster.NodeActions) {
	if a.Drop && nd.live != nil {
		d.hangUp(nd)
	}
	nd.awaiting = a.Await
	switch {
	case a.Done:
		d.outcome(nd, a)
	case a.Dial:
		d.wake(nd, time.Time{})
		d.dial(nd)
	case a.Send != nil:
		if !d.write(nd, a.Send) {
			d.carry(nd, nd.m.Lost(errInjected, d.now))
			return
		}
		d.wake(nd, a.WakeAt)
	default:
		d.wake(nd, a.WakeAt)
	}
}

// wake arms the node's one timer at t, superseding the previous one, and
// lets the node read what is already waiting for it.
func (d *deployment) wake(nd *simNode, t time.Time) {
	nd.wakeGen++
	gen := nd.wakeGen
	if !t.IsZero() {
		d.at(t, func() {
			if nd.wakeGen == gen {
				d.carry(nd, nd.m.Tick(d.now))
			}
		})
	}
	if nd.awaiting && len(nd.inbox) > 0 {
		d.at(d.now, func() { d.read(nd) })
	}
}

// read hands the oldest waiting message to the machine, unless the read
// is reset.
func (d *deployment) read(nd *simNode) {
	if !nd.awaiting || len(nd.inbox) == 0 {
		return
	}
	env := nd.inbox[0]
	nd.inbox = nd.inbox[1:]
	if d.rng.Float64() < d.p.faults.ResetRate {
		d.faults++
		d.carry(nd, nd.m.Lost(errInjected, d.now))
		return
	}
	d.carry(nd, nd.m.Reply(env, d.now))
}

// dial opens a connection and sends the hello; the scheduler's reply
// settles the dial. A dial in a partition fails at once.
func (d *deployment) dial(nd *simNode) {
	if d.partitioned(d.now) {
		d.at(d.now, func() { d.carry(nd, nd.m.Dialed(errInjected, d.now)) })
		return
	}
	c := &conn{id: len(d.conns) + 1, cam: nd.cam}
	d.conns[c.id] = c
	nd.dialing = c
	// mvnode builds its runtime from the first registration's masks and
	// ignores those of later ones, so only the first hello asks for them:
	// computing masks is most of a reconnect's cost here.
	hello := &cluster.Hello{Camera: nd.cam}
	if nd.rt == nil && !d.p.maskless {
		sc := d.w.trace.Cameras[nd.cam]
		hello.FrameW, hello.FrameH = sc.ImageW, sc.ImageH
	}
	d.at(d.arrival(&c.toSched), func() {
		d.joined[nd.cam], d.lastSeen[nd.cam] = true, d.now
		ack, msgs := d.sched.Hello(c.id, hello, d.now)
		d.route(msgs)
		d.toNode(c, ack)
		d.rearm()
	})
	// The handshake is bounded, as NewClientConn bounds it: an ack lost
	// to a partition fails the dial, and the connection is closed.
	d.at(d.now.Add(handshakeTimeout), func() {
		if nd.dialing == c {
			nd.dialing, nd.live = nil, c
			d.hangUp(nd)
			d.carry(nd, nd.m.Dialed(errInjected, d.now))
		}
	})
}

// handshakeTimeout bounds a dial's handshake.
const handshakeTimeout = 2 * time.Second

// write sends env over the node's live connection; false is a write
// that failed, killing the connection.
func (d *deployment) write(nd *simNode, env *cluster.Envelope) bool {
	c := nd.live
	c.writes++
	f := d.p.faults
	if d.partitioned(d.now) || d.rng.Float64() < f.DropRate || (f.WriteCut > 0 && c.writes%f.WriteCut == 0) {
		d.faults++
		return false
	}
	d.at(d.arrival(&c.toSched), func() { d.receive(c, env) })
	return true
}

// receive is the scheduler shell reading one message from c.
func (d *deployment) receive(c *conn, env *cluster.Envelope) {
	if d.sched.Conn(c.cam) == c.id {
		d.lastSeen[c.cam] = d.now
		if det := env.Detections; det != nil {
			d.reported[[2]int{c.cam, det.Frame}] = det.Tracks
			sid := 0
			if d.w.smap != nil {
				sid = d.w.smap.ShardOf[c.cam]
			}
			if round := [2]int{sid, det.Frame}; det.Frame > d.lastDone[sid] {
				if d.reporters[round] == nil {
					d.reporters[round] = map[int]bool{}
					d.firstReport[round] = d.now
				}
				d.reporters[round][c.cam] = true
			}
		}
	}
	reply, msgs := d.sched.Receive(c.cam, c.id, env, d.now)
	d.route(msgs)
	if reply != nil {
		d.toNode(c, reply)
	}
	d.rearm()
}

// hangUp closes the node's live connection; the scheduler notices once
// everything sent before has arrived.
func (d *deployment) hangUp(nd *simNode) {
	c := nd.live
	nd.live, nd.inbox = nil, nil
	d.at(d.arrival(&c.toSched), func() {
		d.route(d.sched.Close(c.cam, c.id, d.now))
		d.rearm()
	})
}

// rearm keeps one scheduler tick armed at the machines' wake-up.
func (d *deployment) rearm() {
	d.schedGen++
	gen := d.schedGen
	if t := d.sched.WakeAt(); !t.IsZero() {
		d.at(t, func() {
			if d.schedGen == gen {
				d.route(d.sched.Tick(d.now))
				d.rearm()
			}
		})
	}
}

// route sends the scheduler's messages, holding every assignment to the
// one-answer law and to the accounting of the report it answers (none,
// when the round was scheduled without the camera's view).
func (d *deployment) route(msgs []cluster.Message) {
	for _, msg := range msgs {
		if a := msg.Env.Assignment; a != nil {
			k := [2]int{msg.Camera, a.Frame}
			if d.answered[k] {
				d.fail("camera %d answered twice for round %d", msg.Camera, a.Frame)
			}
			d.answered[k] = true
			if err := accounts(msg.Camera, len(d.nodes), d.reported[k], a); err != nil {
				d.fail("%v", err)
			}
		}
		d.toNode(d.conns[msg.Conn], msg.Env)
	}
}

// toNode sends env from the scheduler over c: lost in a partition, else
// read by the node if c is still its connection.
func (d *deployment) toNode(c *conn, env *cluster.Envelope) {
	if d.partitioned(d.now) {
		return
	}
	nd := d.nodes[c.cam]
	d.at(d.arrival(&c.toNode), func() {
		switch {
		case nd.dialing == c:
			nd.dialing = nil
			if env.Type != cluster.TypeHello {
				d.carry(nd, nd.m.Dialed(fmt.Errorf("registration rejected: %s", env.Error), d.now))
				return
			}
			nd.live, nd.ack = c, env.Ack
			nd.dials++
			d.carry(nd, nd.m.Dialed(nil, d.now))
		case nd.live == c:
			nd.inbox = append(nd.inbox, env)
			if nd.awaiting {
				d.read(nd)
			}
		}
	})
}

// outcome takes a settled operation, as mvnode's loop does.
func (d *deployment) outcome(nd *simNode, a cluster.NodeActions) {
	op := nd.op
	nd.op = opNone
	switch op {
	case opConnect:
		if err := d.start(nd, a.Err == nil); err != nil {
			d.fail("camera %d: %v", nd.cam, err)
			return
		}
	case opKeyFrame:
		asg := a.Assignment
		if a.Err != nil {
			asg = nil
		}
		if asg != nil && asg.Frame != nd.key {
			d.fail("camera %d applied round %d's assignment at key frame %d", nd.cam, asg.Frame, nd.key)
			return
		}
		if err := nd.settle(asg); err != nil {
			d.fail("camera %d: %v", nd.cam, err)
			return
		}
		nd.settle = nil
		nd.degraded = asg == nil
		if asg != nil {
			nd.level = asg.AdaptLevel
		}
		if nd.rt.Degraded() != nd.degraded {
			d.fail("camera %d: degraded %v after key frame %d, want %v", nd.cam, nd.rt.Degraded(), nd.key, nd.degraded)
			return
		}
	}
	d.at(d.now.Add(d.p.period), func() { d.frame(nd) })
}

// start builds the node's runtime once its first connect settled — with
// the registration's masks, or maskless when the scheduler was
// unreachable, as mvnode does.
func (d *deployment) start(nd *simNode, registered bool) error {
	var ack *cluster.HelloAck
	if registered {
		ack = nd.ack
	}
	var err error
	nd.rt, err = node.New(nodeConfig(d.w, d.p, nd.cam, nd.sink, ack))
	return err
}

// nodeConfig is camera cam's runtime configuration, with the masks of
// its registration reply (nil: maskless).
func nodeConfig(w *world, p plan, cam int, sink metrics.Sink, ack *cluster.HelloAck) node.Config {
	cfg := node.Config{
		Camera: cam, Frame: w.trace.Cameras[cam].Frame(), Profile: w.profiles[cam],
		NumCameras: len(w.trace.Cameras), Seed: p.seed, Sink: sink, Horizon: p.horizon,
	}
	if ack != nil {
		cfg.GridCols, cfg.GridRows, cfg.Coverage = ack.GridCols, ack.GridRows, ack.Coverage
	}
	return cfg
}

// frame is mvnode's frame loop body: the next frame, lost to an outage
// or stepped, and the exchange it asks for. Stepping holds the runtime
// to the cadence of the level it was last given.
func (d *deployment) frame(nd *simNode) {
	if nd.fi == len(d.w.trace.Frames) {
		nd.done = true
		if nd.live != nil {
			d.hangUp(nd)
		}
		return
	}
	fi := nd.fi
	nd.fi++
	next := func() { d.at(d.now.Add(d.p.period), func() { d.frame(nd) }) }
	if d.p.down != nil && d.p.down(nd.cam, fi) {
		nd.rt.OutageFrame()
		next()
		return
	}
	if nd.degraded {
		nd.degradedFrames++
	}
	reports, settle, err := nd.rt.Step(fi, d.w.trace.Frames[fi].PerCamera[nd.cam], nd.m.Reconnects())
	if err != nil {
		d.fail("camera %d frame %d: %v", nd.cam, fi, err)
		return
	}
	if key := adapt.KeyFrame(fi, d.p.horizon, adapt.StretchFor(nd.level)); key != (settle != nil) {
		d.fail("camera %d: frame %d key=%v at adapt level %d", nd.cam, fi, settle != nil, nd.level)
		return
	}
	switch {
	case settle != nil:
		nd.keyFrames = append(nd.keyFrames, fi)
		nd.op, nd.settle, nd.key = opKeyFrame, settle, fi
		d.carry(nd, nd.m.KeyFrame(fi, reports, d.p.deadline, d.now))
	case d.p.heartbeat > 0 && fi%d.p.heartbeat == 0:
		nd.op = opPing
		d.carry(nd, nd.m.Ping(0, d.now))
	default:
		next()
	}
}

// RecordRound is the scheduler's round sink: it holds every partial
// round to its barrier, each shard's round to its own cameras — each
// camera it lacks had left, or run out of lease, or the round had timed
// out.
func (d *deployment) RecordRound(r metrics.Round) {
	d.rounds = append(d.rounds, r)
	sid := 0
	if d.w.smap != nil {
		if _, err := fmt.Sscanf(r.Label, "shard%d", &sid); err != nil || sid < 0 || sid >= len(d.lastDone) {
			d.fail("round %d labelled %q, which names no shard", r.Frame, r.Label)
			return
		}
	}
	cams := d.w.shards()[sid]
	round := [2]int{sid, r.Frame}
	reps := d.reporters[round]
	if r.Partial != (len(reps) < len(cams)) {
		d.fail("%q round %d partial=%v with %d/%d reports", r.Label, r.Frame, r.Partial, len(reps), len(cams))
	}
	timedOut := d.p.timeout > 0 && !d.now.Before(d.firstReport[round].Add(d.p.timeout))
	for _, cam := range cams {
		left := d.joined[cam] && d.sched.Conn(cam) == 0
		expired := d.p.lease > 0 && d.now.Sub(d.lastSeen[cam]) >= d.p.lease
		if !reps[cam] && !left && !expired && !timedOut {
			d.fail("%q round %d scheduled before its barrier: camera %d is live and has not reported", r.Label, r.Frame, cam)
		}
	}
	d.lastDone[sid] = max(d.lastDone[sid], r.Frame)
}

// shards lists each shard's cameras; an unsharded world is one shard of
// the whole fleet.
func (w *world) shards() [][]int {
	if w.smap != nil {
		return w.smap.Shards
	}
	all := make([]int, len(w.trace.Cameras))
	for cam := range all {
		all[cam] = cam
	}
	return [][]int{all}
}

// roundDecision is the part of a metrics.Round the engine and the
// deployment fill the same way.
type roundDecision struct {
	Frame, Objects     int
	Priority, Assigned []int
}

// composeRounds folds the records of one key frame into one decision, in
// label order: a sharded scheduler emits one record per shard where the
// engine emits one for the fleet.
func composeRounds(rounds []metrics.Round, numCams int) []roundDecision {
	rounds = append([]metrics.Round(nil), rounds...)
	sort.SliceStable(rounds, func(i, j int) bool {
		if rounds[i].Frame != rounds[j].Frame {
			return rounds[i].Frame < rounds[j].Frame
		}
		return rounds[i].Label < rounds[j].Label
	})
	var out []roundDecision
	for _, r := range rounds {
		if len(out) == 0 || out[len(out)-1].Frame != r.Frame {
			out = append(out, roundDecision{Frame: r.Frame, Assigned: make([]int, numCams)})
		}
		dec := &out[len(out)-1]
		dec.Objects += r.Objects
		dec.Priority = append(dec.Priority, r.Priority...)
		for cam, n := range r.Assigned {
			dec.Assigned[cam] += n
		}
	}
	return out
}

// accounts holds camera cam's assignment to the report it answers: every
// reported track is kept or shadowed exactly once, nothing else is
// listed, and every shadow names another camera of the n-camera fleet.
func accounts(cam, n int, reports []cluster.TrackReport, a *cluster.Assignment) error {
	open := make(map[int]bool, len(reports))
	for _, tr := range reports {
		open[tr.TrackID] = true
	}
	listed := slices.Clone(a.Keep)
	for _, sh := range a.Shadows {
		if c := sh.AssignedCamera; c == cam || c < 0 || c >= n {
			return fmt.Errorf("camera %d round %d: track %d shadowed to camera %d", cam, a.Frame, sh.TrackID, c)
		}
		listed = append(listed, sh.TrackID)
	}
	for _, id := range listed {
		if !open[id] {
			return fmt.Errorf("camera %d round %d: track %d listed but not reported, or listed twice", cam, a.Frame, id)
		}
		delete(open, id)
	}
	if len(open) > 0 {
		return fmt.Errorf("camera %d round %d: %d reported tracks neither kept nor shadowed", cam, a.Frame, len(open))
	}
	return nil
}

// loopback runs a zero-fault plan over real sockets: the world's
// scheduler served on 127.0.0.1, and per camera a node.Runtime stepped by
// Step behind a ReconnectClient, as cmd/mvnode runs it. Every camera
// dials at once (the plan's stagger is not played) and must be answered
// at every key frame. It returns what deploy returns, once every
// assignment has passed accounts and every round the shell law.
func loopback(w *world, p plan) (*run, error) {
	if p.deadline <= 0 {
		p.deadline = 20 * time.Second
	}
	n := len(w.trace.Cameras)
	rounds, snaps := &roundSink{}, &frameLog{}
	s, err := newScheduler(w, append([]cluster.Option{cluster.WithRounds(rounds), cluster.WithSink(snaps)}, p.opts...))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	r := &run{
		frames: make([][]metrics.Snapshot, n), stats: make([]node.Stats, n),
		detected: make([]map[int]bool, n), keyFrames: make([][]int, n),
	}
	sent := make([][]*cluster.Assignment, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for cam := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[cam] = loopbackNode(w, p, cam, ln.Addr().String(), r, &sent[cam])
		}()
	}
	wg.Wait()
	s.Close()
	if err := errors.Join(append(errs, <-served)...); err != nil {
		return nil, err
	}
	r.rounds = rounds.rounds
	return r, shellLaw(w, r, snaps.snaps, sent)
}

// loopbackNode is cmd/mvnode's loop for camera cam over the trace: it
// registers, builds its runtime from the registration's masks, steps
// every frame and exchanges every key frame's reports for the round's
// assignment, which must account for them. It leaves its snapshots,
// counters, detections and key frames in r, and its assignments in sent.
func loopbackNode(w *world, p plan, cam int, addr string, r *run, sent *[]*cluster.Assignment) error {
	sc := w.trace.Cameras[cam]
	client := cluster.NewReconnectClient(cluster.ReconnectConfig{
		Addr: addr, Camera: cam, FrameW: sc.ImageW, FrameH: sc.ImageH,
		Backoff: cluster.Backoff{Seed: p.seed + int64(cam)},
	})
	defer client.Close()
	if err := client.Connect(); err != nil {
		return err
	}
	sink := &frameLog{}
	rt, err := node.New(nodeConfig(w, p, cam, sink, client.Ack()))
	if err != nil {
		return err
	}
	for fi := range w.trace.Frames {
		reports, settle, err := rt.Step(fi, w.trace.Frames[fi].PerCamera[cam], client.Reconnects())
		if err != nil {
			return err
		}
		if settle == nil {
			continue
		}
		a, err := client.KeyFrame(fi, reports, p.deadline)
		if err != nil {
			return fmt.Errorf("camera %d key frame %d: %w", cam, fi, err)
		}
		if err := accounts(cam, len(w.trace.Cameras), reports, a); err != nil {
			return err
		}
		r.keyFrames[cam] = append(r.keyFrames[cam], fi)
		*sent = append(*sent, a)
		if err := settle(a); err != nil {
			return err
		}
	}
	r.frames[cam], r.stats[cam], r.detected[cam] = sink.snaps, rt.Stats(), rt.DetectedIDs()
	return nil
}

// shellLaw holds a loopback run to what the Scheduler shell promises of
// every round, per label (one per shard; "" unsharded): its round
// records and snapshots are the scheduler's, numbered 0, 1, 2, … and
// stamped with the label's key frames and a measured latency; a
// snapshot's rows are the label's roster in camera order, and its
// assignments, like the record's, sum to its objects; the record's
// priority orders exactly the roster, and is what every roster camera
// was sent with the roster's scope.
func shellLaw(w *world, r *run, snaps []metrics.Snapshot, sent [][]*cluster.Assignment) error {
	rosters := map[string][]int{}
	for sid, roster := range w.shards() {
		label := ""
		if w.smap != nil {
			label = fmt.Sprintf("shard%d", sid)
		}
		rosters[label] = roster
	}
	if len(snaps) != len(r.rounds) {
		return fmt.Errorf("%d snapshots for %d round records", len(snaps), len(r.rounds))
	}
	done := map[string]int{}
	for i, rd := range r.rounds {
		snap, roster := snaps[i], rosters[rd.Label]
		if roster == nil || snap.Label != rd.Label {
			return fmt.Errorf("round record %d labelled %q, its snapshot %q", i, rd.Label, snap.Label)
		}
		k := done[rd.Label]
		done[rd.Label]++
		var rows []int
		objects := 0
		for _, cs := range snap.Cameras {
			rows = append(rows, cs.Camera)
			objects += cs.Assignments
		}
		assigned := 0
		for _, c := range rd.Assigned {
			assigned += c
		}
		var scope []int
		if w.smap != nil {
			scope = roster
		}
		order := slices.Clone(rd.Priority)
		slices.Sort(order)
		keys := r.keyFrames[roster[0]]
		switch {
		case rd.Source != metrics.SourceScheduler || snap.Source != metrics.SourceScheduler:
			return fmt.Errorf("%q round %d: sources %q and %q", rd.Label, k, rd.Source, snap.Source)
		case rd.Seq != k || snap.Seq != k:
			return fmt.Errorf("%q round %d numbered %d, its snapshot %d", rd.Label, k, rd.Seq, snap.Seq)
		case k >= len(keys) || rd.Frame != keys[k] || snap.Frame != keys[k]:
			return fmt.Errorf("%q round %d at frame %d, its snapshot at %d; key frames %v", rd.Label, k, rd.Frame, snap.Frame, keys)
		case rd.RoundLatency <= 0 || snap.RoundLatency <= 0:
			return fmt.Errorf("%q round %d: round latency %v, snapshot's %v", rd.Label, k, rd.RoundLatency, snap.RoundLatency)
		case !slices.Equal(rows, roster):
			return fmt.Errorf("%q round %d: snapshot rows for cameras %v, roster %v", rd.Label, k, rows, roster)
		case objects != snap.Objects || assigned != rd.Objects || rd.Objects != snap.Objects:
			return fmt.Errorf("%q round %d: %d and %d assigned for %d and %d objects", rd.Label, k, objects, assigned, snap.Objects, rd.Objects)
		case !slices.Equal(order, roster):
			return fmt.Errorf("%q round %d: priority %v does not order roster %v", rd.Label, k, rd.Priority, roster)
		}
		for _, cam := range roster {
			if k >= len(sent[cam]) {
				return fmt.Errorf("%q round %d: camera %d was sent %d assignments", rd.Label, k, cam, len(sent[cam]))
			}
			if a := sent[cam][k]; a.Frame != rd.Frame || !slices.Equal(a.Priority, rd.Priority) || !slices.Equal(a.Roster, scope) {
				return fmt.Errorf("%q round %d sent camera %d frame %d, priority %v, roster %v; recorded frame %d, priority %v",
					rd.Label, k, cam, a.Frame, a.Priority, a.Roster, rd.Frame, rd.Priority)
			}
		}
	}
	for label, roster := range rosters {
		if done[label] != len(r.keyFrames[roster[0]]) {
			return fmt.Errorf("%q completed %d rounds over %d key frames", label, done[label], len(r.keyFrames[roster[0]]))
		}
	}
	return nil
}
