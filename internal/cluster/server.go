package cluster

import (
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
	"sync"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/central"
	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/profile"
)

// maskGridCols and maskGridRows shape every camera's cell grid for the
// distributed-stage masks.
const (
	maskGridCols = 16
	maskGridRows = 9
)

// Scheduler is the central scheduler service: it accepts one connection
// per camera, barriers each key-frame round until every camera of the
// configured roster has uploaded its detections, then runs association +
// central BALB and replies to all cameras. The barrier is the roster, not
// the connections open at the moment: a camera that has not registered
// yet holds a round exactly as a connected one that has not reported, so
// the order in which cameras dial in never decides who is scheduled with
// whom; only a camera that registered and then left stops counting. A
// report for a frame at or before the last completed round is answered
// with a "stale round" error at once.
//
// Resilience (all opt-in, see docs/FAULTS.md): WithRoundTimeout bounds
// how long a round may wait for stragglers before being scheduled with
// the reports received so far; WithLease stops silent cameras — dead but
// still connected, or never heard from since the scheduler was built —
// from blocking the barrier, with heartbeat pings refreshing the lease
// between key frames; a camera reconnecting while its old connection
// lingers takes the registration over.
type Scheduler struct {
	model        *assoc.Model
	cams         []core.CameraSpec
	minIoU       float64
	workers      int
	logger       *log.Logger
	sink         metrics.Sink
	roundSink    metrics.RoundSink
	roundTimeout time.Duration
	lease        time.Duration
	// adaptPol arms the per-scheduler degradation controller
	// (WithAdapt); adaptCtrl is built at construction when enabled and
	// driven under mu (rounds may complete concurrently).
	// lastAdaptDrift remembers the cumulative reassignment count at the
	// previous round so each adapt sample carries the per-round delta.
	adaptPol       adapt.Policy
	adaptCtrl      *adapt.Controller
	lastAdaptDrift int
	shutdown       chan struct{}

	closeOnce sync.Once
	handlers  sync.WaitGroup
	// timers tracks in-flight round-timeout completions. Additions
	// happen under mu while !closed, so Close's Wait cannot race a
	// late Add.
	timers sync.WaitGroup

	// shard scopes this scheduler to one shard of a ShardedScheduler:
	// all internal state (cams, conns, rounds, reports) is indexed by
	// *local* roster position, and the wire boundary translates to and
	// from global camera indices. nil for a standalone global
	// scheduler, whose local and global indices coincide.
	shard *shardCtx

	mu     sync.Mutex
	ln     net.Listener
	conns  map[int]*schedConn
	rounds map[int]*round
	// Barrier membership (guarded by mu): joined[cam] is set once camera
	// cam has registered, born is when the scheduler was built — the
	// lease clock of a camera that never has — and lastDone is the highest
	// frame whose round has been taken for scheduling (-1 before the
	// first), at or below which a report is stale.
	joined   []bool
	born     time.Time
	lastDone int
	seq      int
	// roundSeq numbers the decision records of this emitter (guarded by
	// mu, like seq; a shard-scoped scheduler counts its own stream).
	roundSeq int
	closed   bool
	// Data-plane fault accounting, only active with WithLease (guarded
	// by mu): lastAssigned holds each camera's assignment count from
	// the previous round, so a camera declared dead can be charged for
	// the objects it orphaned; outageRounds and reassignments are the
	// cumulative Snapshot counters.
	lastAssigned  []int
	outageRounds  int
	reassignments int
}

type schedConn struct {
	camera int
	conn   net.Conn
	wmu    sync.Mutex
	// lastSeen is the arrival time of the camera's latest message
	// (hello, detections, or ping), guarded by the scheduler's mu; the
	// liveness lease compares against it.
	lastSeen time.Time
}

func (sc *schedConn) send(env *Envelope) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return WriteMessage(sc.conn, env)
}

type round struct {
	reports map[int]*Detections
	// timer fires the round timeout (nil when WithRoundTimeout is off);
	// leaseTimer re-evaluates the barrier when the earliest camera still
	// blocking it runs out of lease (nil when WithLease is off). Both are
	// stopped whenever the round is removed for completion or GC.
	timer, leaseTimer *time.Timer
}

func (r *round) stopTimer() {
	if r.timer != nil {
		r.timer.Stop()
	}
	if r.leaseTimer != nil {
		r.leaseTimer.Stop()
	}
}

// Option configures a Scheduler at construction. Observability hooks
// are injected here, not mutated after: the scheduler starts serving
// concurrently the moment Serve is called, so post-construction setters
// would race with running handlers.
type Option func(*Scheduler)

// WithLogger installs a logger for connection and scheduling events
// (nil keeps the silent default).
func WithLogger(l *log.Logger) Option {
	return func(s *Scheduler) {
		if l != nil {
			s.logger = l
		}
	}
}

// WithSink attaches a metrics sink: one Snapshot per completed
// scheduling round (SourceScheduler), carrying the measured round
// latency, the scheduled per-camera latencies and batch occupancy, and
// per-camera assignment counts. nil keeps the NopSink default. No
// snapshot is emitted after Close returns.
func WithSink(sink metrics.Sink) Option {
	return func(s *Scheduler) {
		if sink != nil {
			s.sink = sink
		}
	}
}

// WithRounds attaches a round-decision sink: one metrics.Round per
// completed scheduling round, carrying the decision a Snapshot only
// summarizes — the priority order and per-camera assignment counts —
// so a run store (internal/store) can persist the schedule for audit
// and replay. Under a ShardedScheduler the option applies per shard:
// each shard's round loop emits its own gap-free stream, labelled
// "shard<N>". The sink must tolerate concurrent RecordRound calls.
// nil disables (the default). No round is emitted after Close returns.
func WithRounds(rs metrics.RoundSink) Option {
	return func(s *Scheduler) {
		if rs != nil {
			s.roundSink = rs
		}
	}
}

// WithRoundTimeout bounds a scheduling round's barrier: a round that is
// still incomplete d after its first report is scheduled with the
// reports received so far (marked Partial in its snapshot), so one
// stalled or partitioned camera cannot stall every other camera forever.
// It also enables stale-round GC: completing round F drops pending
// rounds for earlier frames, whose reporters have long timed out and
// moved on. Zero or negative disables (the default): rounds wait
// indefinitely, the pre-fault-tolerance behaviour.
func WithRoundTimeout(d time.Duration) Option {
	return func(s *Scheduler) {
		if d > 0 {
			s.roundTimeout = d
		}
	}
}

// WithWorkers bounds the goroutines the scheduler uses for a round's
// per-pair association fan-out and for the handshake's per-cell
// coverage computation (assoc.AssociateWorkers /
// assoc.CellCoverageWorkers): 1 forces the sequential reference path,
// 0 or unset selects GOMAXPROCS. Assignments are bit-identical at
// every value — the knob trades goroutines for round latency only
// (docs/SCALING.md prices the central stage per fleet size).
func WithWorkers(n int) Option {
	return func(s *Scheduler) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithAdapt arms the graceful-degradation control loop
// (docs/FAULTS.md §10): an adapt.Controller observes every completed
// round — the solution's scheduled system latency, the round's
// dead-camera count, and its reassignment drift — and ticks once per
// round (rounds are the cluster's horizon boundaries). The rung in
// force rides every Assignment (AdaptLevel): nodes cap their inspection
// sizes and stretch their key-frame cadence accordingly, and the
// round's snapshot carries the level, transition count, and SLO
// violations. Under a ShardedScheduler the option applies per shard:
// each shard runs its own controller over its own rounds, so one
// overloaded shard degrades without dragging its neighbours down. A
// disabled policy (SLO == 0) is a no-op.
func WithAdapt(pol adapt.Policy) Option {
	return func(s *Scheduler) {
		if pol.Enabled() {
			s.adaptPol = pol
		}
	}
}

// WithLease sets the camera liveness lease: a connected camera whose
// last message (report or heartbeat ping) is older than d no longer
// blocks round barriers — its TCP connection may be half-dead without
// the OS noticing. Heartbeats between key frames keep a healthy
// camera's lease fresh. Zero or negative disables (the default): every
// connected camera blocks the barrier.
func WithLease(d time.Duration) Option {
	return func(s *Scheduler) {
		if d > 0 {
			s.lease = d
		}
	}
}

// NewScheduler builds the service for a fixed camera roster.
func NewScheduler(model *assoc.Model, profiles []*profile.Profile, minIoU float64, opts ...Option) (*Scheduler, error) {
	if model == nil {
		return nil, errors.New("cluster: nil association model")
	}
	if len(profiles) != model.NumCameras() {
		return nil, fmt.Errorf("cluster: %d profiles for model with %d cameras",
			len(profiles), model.NumCameras())
	}
	cams := make([]core.CameraSpec, len(profiles))
	for i, p := range profiles {
		if p == nil {
			return nil, fmt.Errorf("cluster: nil profile for camera %d", i)
		}
		cams[i] = core.CameraSpec{Index: i, Profile: p}
	}
	if minIoU <= 0 {
		minIoU = 0.1
	}
	s := &Scheduler{
		model:        model,
		cams:         cams,
		minIoU:       minIoU,
		logger:       log.New(logDiscard{}, "", 0),
		sink:         metrics.NopSink{},
		shutdown:     make(chan struct{}),
		conns:        make(map[int]*schedConn),
		rounds:       make(map[int]*round),
		joined:       make([]bool, len(cams)),
		born:         time.Now(),
		lastDone:     -1,
		lastAssigned: make([]int, len(cams)),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.adaptPol.Enabled() {
		s.adaptCtrl = adapt.NewController(s.adaptPol)
	}
	return s, nil
}

type logDiscard struct{}

func (logDiscard) Write(p []byte) (int, error) { return len(p), nil }

// glob translates a local camera index to its global roster index (the
// identity for a standalone scheduler).
func (s *Scheduler) glob(local int) int {
	if s.shard == nil {
		return local
	}
	return s.shard.roster[local]
}

// local translates a global camera index to this scheduler's local
// index, or (-1, false) when the camera is not in the roster.
func (s *Scheduler) local(global int) (int, bool) {
	if s.shard == nil {
		if global < 0 || global >= len(s.cams) {
			return -1, false
		}
		return global, true
	}
	for li, g := range s.shard.roster {
		if g == global {
			return li, true
		}
	}
	return -1, false
}

// Serve accepts camera connections until the listener is closed or
// Close is called. It blocks, and returns only after every connection
// handler it spawned has exited — so when Serve returns, no goroutine
// of this scheduler is still touching the sink or the logger.
func (s *Scheduler) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()

	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			select {
			case <-s.shutdown:
			default:
				err = fmt.Errorf("cluster: accept: %w", aerr)
			}
			break
		}
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(conn)
		}()
	}
	s.handlers.Wait()
	return err
}

// Close stops the service: it closes the listener Serve is blocked on,
// drops all connections, and waits for every in-flight connection
// handler to exit. After Close returns, Serve has unblocked (or will
// return immediately if called later) and no further snapshot reaches
// the sink.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		close(s.shutdown)
		s.mu.Lock()
		s.closed = true
		if s.ln != nil {
			s.ln.Close()
		}
		for _, c := range s.conns {
			c.conn.Close()
		}
		for _, r := range s.rounds {
			r.stopTimer()
		}
		s.mu.Unlock()
	})
	s.handlers.Wait()
	// A round timeout that had already fired may still be completing;
	// wait it out so nothing touches the sink or logger after Close.
	s.timers.Wait()
}

// emit delivers a round snapshot unless the scheduler has been closed.
// Holding mu across RecordFrame makes "no snapshot after Close" exact:
// Close flips closed under the same lock, so any emission either
// completes before Close returns or is suppressed. Sinks are required to
// be cheap and non-blocking (metrics.Sink contract), so the critical
// section stays short.
func (s *Scheduler) emit(snap metrics.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	snap.Seq = s.seq
	s.seq++
	s.sink.RecordFrame(snap)
}

// emitRound mirrors emit for the round-decision stream (WithRounds):
// the same closed-check under mu makes "no round after Close" exact,
// and the record is derived from the already-assembled snapshot plus
// the round's global priority order. Assigned is indexed by global
// camera index and sized to the emitter's roster extent (the fleet for
// a standalone scheduler; a shard leaves foreign cameras at zero).
func (s *Scheduler) emitRound(snap metrics.Snapshot, prio []int) {
	if s.roundSink == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	rd := metrics.Round{
		Source:        metrics.SourceScheduler,
		Label:         snap.Label,
		Seq:           s.roundSeq,
		Frame:         snap.Frame,
		Objects:       snap.Objects,
		Priority:      prio,
		Partial:       snap.Partial,
		Reassignments: snap.Reassignments,
		RoundLatency:  snap.RoundLatency,
	}
	extent := 0
	for _, cs := range snap.Cameras {
		if cs.Camera+1 > extent {
			extent = cs.Camera + 1
		}
	}
	rd.Assigned = make([]int, extent)
	for _, cs := range snap.Cameras {
		rd.Assigned[cs.Camera] = cs.Assignments
	}
	s.roundSeq++
	s.roundSink.RecordRound(rd)
}

func (s *Scheduler) handle(conn net.Conn) {
	defer conn.Close()
	env, err := ReadMessage(conn)
	if err != nil {
		s.logger.Printf("cluster: handshake read: %v", err)
		return
	}
	s.handleHello(conn, env)
}

// handleHello registers a camera from its (already read) hello envelope
// and runs the connection's read loop. It does not close conn; the
// caller owns the connection's lifetime. Split from handle so a
// ShardedScheduler can read the hello itself, route the connection to
// the owning shard's scheduler, and delegate here.
func (s *Scheduler) handleHello(conn net.Conn, env *Envelope) {
	if env.Type != TypeHello || env.Hello == nil {
		_ = WriteMessage(conn, &Envelope{Type: TypeError, Error: "expected hello"})
		return
	}
	// The wire carries global camera indices; a shard-scoped scheduler
	// translates to its local roster position at this boundary and back
	// out in every reply.
	globalCam := env.Hello.Camera
	cam, ok := s.local(globalCam)
	if !ok {
		_ = WriteMessage(conn, &Envelope{Type: TypeError, Error: fmt.Sprintf("camera %d out of range", globalCam)})
		return
	}
	sc := &schedConn{camera: cam, conn: conn, lastSeen: time.Now()}
	s.mu.Lock()
	if s.closed {
		// Raced with Close: this connection was accepted before the
		// listener went down but must not register, or it would linger
		// unclosed (Close already swept s.conns).
		s.mu.Unlock()
		return
	}
	if old, dup := s.conns[cam]; dup {
		// A reconnecting camera takes over its registration: the old
		// connection may be half-dead (the node crashed, or a NAT ate the
		// flow) without this end noticing, and rejecting the new one
		// would lock the camera out until the OS gives up. Closing the
		// old conn makes its handler exit; its cleanup sees it has been
		// replaced and leaves the new registration alone.
		old.conn.Close()
		s.logger.Printf("cluster: camera %d reconnected, replacing previous connection from %v",
			globalCam, old.conn.RemoteAddr())
	}
	s.conns[cam] = sc
	s.joined[cam] = true
	s.mu.Unlock()
	s.logger.Printf("cluster: camera %d connected from %v", globalCam, conn.RemoteAddr())
	// Ack the handshake so Dial returns only once the camera is
	// registered (otherwise two racing hellos for the same index could
	// each believe they won). When the node announced its frame size,
	// the ack carries the static cell-coverage masks.
	ack := &HelloAck{Camera: globalCam}
	if env.Hello.FrameW > 0 && env.Hello.FrameH > 0 {
		grid := geom.NewGrid(geom.Rect{MaxX: env.Hello.FrameW, MaxY: env.Hello.FrameH}, maskGridCols, maskGridRows)
		cover, err := s.model.CellCoverageWorkers(cam, grid, s.workers)
		if err != nil {
			s.logger.Printf("cluster: camera %d coverage: %v", globalCam, err)
			_ = sc.send(&Envelope{Type: TypeError, Error: fmt.Sprintf("coverage: %v", err)})
			return
		}
		if s.shard != nil {
			// The subset model speaks local indices; nodes work in
			// global ones.
			for _, set := range cover {
				for k, c := range set {
					set[k] = s.glob(c)
				}
			}
		}
		ack.GridCols = maskGridCols
		ack.GridRows = maskGridRows
		ack.Coverage = cover
	}
	if err := sc.send(&Envelope{Type: TypeHello, Ack: ack}); err != nil {
		s.logger.Printf("cluster: camera %d ack: %v", globalCam, err)
		return
	}

	defer func() {
		s.mu.Lock()
		// Only unregister if this conn still owns the slot — a
		// reconnect may have taken it over.
		if s.conns[cam] == sc {
			delete(s.conns, cam)
		}
		ready := s.readyRoundsLocked()
		s.mu.Unlock()
		// A camera dropping out must not stall in-flight rounds: any
		// round now complete without it is scheduled immediately.
		for frame, r := range ready {
			s.completeRound(r, frame)
		}
	}()

	for {
		env, err := ReadMessage(conn)
		if err != nil {
			s.logger.Printf("cluster: camera %d read: %v", globalCam, err)
			return
		}
		switch {
		case env.Type == TypePing:
			s.touch(sc)
			_ = sc.send(&Envelope{Type: TypePong, Heartbeat: env.Heartbeat})
		case env.Type == TypeDetections && env.Detections != nil:
			if env.Detections.Camera != globalCam {
				_ = sc.send(&Envelope{Type: TypeError, Error: "camera id mismatch"})
				continue
			}
			s.touch(sc)
			// Rounds and reports are local-indexed internally.
			env.Detections.Camera = cam
			s.submit(sc, env.Detections)
		case env.Type == TypeDetections || env.Type == TypeHello:
			// A malformed known message is a protocol error worth
			// reporting back.
			_ = sc.send(&Envelope{Type: TypeError, Error: "expected detections"})
		default:
			// Unknown (newer-protocol) types are skipped, mirroring the
			// client's tolerance, so mixed-version fleets keep running.
			s.logger.Printf("cluster: camera %d sent unknown message type %q, ignoring", globalCam, env.Type)
		}
	}
}

// touch refreshes a camera's liveness lease.
func (s *Scheduler) touch(sc *schedConn) {
	s.mu.Lock()
	sc.lastSeen = time.Now()
	s.mu.Unlock()
}

// roundCompleteLocked reports whether the round's barrier is met: every
// camera of the roster has reported, has registered and since left, or
// has let its lease run out. A camera that has never registered counts as
// silent since the scheduler was built, so without a lease it holds the
// round like any connected camera that has not reported yet. Reports from
// since-disconnected cameras still count toward scheduling; rounds with
// no reports never complete. For an incomplete round under a lease,
// recheck is when the first camera still blocking it runs out of lease
// (zero without one): the moment the answer can change with no message
// arriving.
func (s *Scheduler) roundCompleteLocked(r *round) (complete bool, recheck time.Time) {
	if len(r.reports) == 0 {
		return false, recheck
	}
	now := time.Now()
	complete = true
	for cam := range s.cams {
		if _, ok := r.reports[cam]; ok {
			continue
		}
		lastSeen := s.born
		if sc, connected := s.conns[cam]; connected {
			lastSeen = sc.lastSeen
		} else if s.joined[cam] {
			continue // registered and left: not waited for
		}
		if s.lease > 0 && now.Sub(lastSeen) >= s.lease {
			s.logger.Printf("cluster: camera %d lease expired (%v since last message), not blocking rounds",
				cam, now.Sub(lastSeen).Round(time.Millisecond))
			continue
		}
		complete = false
		if expiry := lastSeen.Add(s.lease); s.lease > 0 && (recheck.IsZero() || expiry.Before(recheck)) {
			recheck = expiry
		}
	}
	return complete, recheck
}

// awaitRoundLocked takes a pending round for scheduling if its barrier is
// met and otherwise arms its lease timer, so that a lease running out
// releases the round by itself rather than at the next report,
// disconnect or round timeout — a camera that never dials in would
// otherwise hold round 0 until its peers' client deadline. Leases only
// move later (touch), so the earliest expiry seen here is never early:
// one timer at a time, re-armed on firing while cameras still block.
func (s *Scheduler) awaitRoundLocked(frame int, r *round) (complete bool) {
	complete, recheck := s.roundCompleteLocked(r)
	if complete {
		s.takeRoundLocked(frame, r)
	} else if r.leaseTimer != nil {
		r.leaseTimer.Reset(time.Until(recheck))
	} else if !recheck.IsZero() {
		r.leaseTimer = time.AfterFunc(time.Until(recheck), func() { s.expireRound(frame, false) })
	}
	return complete
}

// takeRoundLocked removes a pending round for scheduling and advances the
// stale-report mark past its frame.
func (s *Scheduler) takeRoundLocked(frame int, r *round) {
	r.stopTimer()
	delete(s.rounds, frame)
	if frame > s.lastDone {
		s.lastDone = frame
	}
}

// readyRoundsLocked removes and returns every pending round that is now
// complete (used after a disconnect shrinks the barrier).
func (s *Scheduler) readyRoundsLocked() map[int]*round {
	ready := make(map[int]*round)
	for frame, r := range s.rounds {
		if s.awaitRoundLocked(frame, r) {
			ready[frame] = r
		}
	}
	return ready
}

// staleRound is the error text a report for an already scheduled round is
// answered with.
const staleRound = "stale round"

// submit records a camera's key-frame report and, once the round is
// complete (roundCompleteLocked), runs the central stage and replies to
// every camera. A report for a frame at or before the last completed
// round can join nothing — its round has been scheduled, or superseded —
// and is answered with a stale-round error at once rather than opening a
// round nobody else will report to. With a round timeout configured, a
// round's clock starts at its first report; on expiry the round is
// scheduled with whatever has arrived.
func (s *Scheduler) submit(sc *schedConn, det *Detections) {
	s.mu.Lock()
	if det.Frame <= s.lastDone {
		done := s.lastDone
		s.mu.Unlock()
		_ = sc.send(&Envelope{Type: TypeError,
			Error: fmt.Sprintf("%s: frame %d, round %d already scheduled", staleRound, det.Frame, done)})
		return
	}
	r, ok := s.rounds[det.Frame]
	if !ok {
		r = &round{reports: make(map[int]*Detections)}
		s.rounds[det.Frame] = r
		if s.roundTimeout > 0 {
			frame := det.Frame
			r.timer = time.AfterFunc(s.roundTimeout, func() { s.expireRound(frame, true) })
		}
	}
	r.reports[det.Camera] = det
	complete := s.awaitRoundLocked(det.Frame, r)
	s.mu.Unlock()
	if !complete {
		return
	}
	s.completeRound(r, det.Frame)
}

// expireRound fires on a pending round's timers. The round timeout
// (force) schedules it with the reports received so far, so a stalled
// camera delays its peers by at most the timeout; the lease timer
// schedules it only if every camera still missing has by now run out of
// lease, and re-arms otherwise.
func (s *Scheduler) expireRound(frame int, force bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	r, ok := s.rounds[frame]
	if !ok {
		s.mu.Unlock()
		return
	}
	if force {
		s.takeRoundLocked(frame, r)
		s.logger.Printf("cluster: round %d timed out with %d/%d reports, scheduling partial round",
			frame, len(r.reports), len(s.cams))
	} else if !s.awaitRoundLocked(frame, r) {
		s.mu.Unlock()
		return
	}
	// Adding under mu while !closed keeps Close's timers.Wait safe.
	s.timers.Add(1)
	s.mu.Unlock()
	defer s.timers.Done()
	s.completeRound(r, frame)
}

// gcStaleRounds drops pending rounds older than a just-completed frame:
// their reporters have timed out client-side and moved on, so they can
// only waste memory and, on expiry, schedule assignments nobody waits
// for. Only active when round timeouts are (legacy behaviour untouched
// otherwise).
func (s *Scheduler) gcStaleRounds(completed int) {
	if s.roundTimeout <= 0 {
		return
	}
	s.mu.Lock()
	for frame, r := range s.rounds {
		if frame < completed {
			r.stopTimer()
			delete(s.rounds, frame)
			s.logger.Printf("cluster: dropping stale round %d (superseded by completed round %d)",
				frame, completed)
		}
	}
	s.mu.Unlock()
}

// deadCameras returns, ascending, the roster cameras without a report
// in the round that are disconnected or lease-expired — dead per the
// liveness model, not merely slow. nil when leases are off (WithLease
// unset), keeping the legacy wire format and snapshots bit-identical.
func (s *Scheduler) deadCameras(r *round) []int {
	if s.lease <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	var dead []int
	for cam := range s.cams {
		if _, ok := r.reports[cam]; ok {
			continue
		}
		sc, connected := s.conns[cam]
		if !connected || now.Sub(sc.lastSeen) >= s.lease {
			dead = append(dead, cam)
		}
	}
	return dead
}

// noteFaults folds a round's dead set into the cumulative fault
// counters and stamps them onto the snapshot: one outage per dead
// camera-round, plus the assignments each newly dead camera held in
// the previous round (the objects the central stage just reassigned
// away from it). lastAssigned then advances to this round's counts.
func (s *Scheduler) noteFaults(snap *metrics.Snapshot, dead []int) {
	if s.lease <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outageRounds += len(dead)
	for _, cam := range dead {
		if cam >= 0 && cam < len(s.lastAssigned) {
			s.reassignments += s.lastAssigned[cam]
		}
	}
	for i, cs := range snap.Cameras {
		if i < len(s.lastAssigned) {
			s.lastAssigned[i] = cs.Assignments
		}
	}
	snap.OutageFrames = s.outageRounds
	snap.Reassignments = s.reassignments
}

// noteAdapt drives the per-scheduler degradation controller (WithAdapt)
// one round: it observes the round's scheduled system latency, dead
// count, and reassignment drift, ticks the ladder (a round is a horizon
// boundary), stamps the rung onto the snapshot, and carries it to every
// node on the assignment replies. No-op without WithAdapt, leaving the
// snapshot and wire format byte-identical.
func (s *Scheduler) noteAdapt(snap *metrics.Snapshot, replies map[int]*Assignment, dead int) {
	if s.adaptCtrl == nil {
		return
	}
	s.mu.Lock()
	drift := s.reassignments - s.lastAdaptDrift
	s.lastAdaptDrift = s.reassignments
	s.adaptCtrl.Observe(adapt.Sample{
		Latency:     snap.FrameLatency,
		DeadCameras: dead,
		Drift:       drift,
	})
	level, _ := s.adaptCtrl.Tick()
	snap.AdaptLevel = level
	snap.AdaptTransitions = s.adaptCtrl.Transitions()
	snap.SLOViolations = s.adaptCtrl.SLOViolations()
	s.mu.Unlock()
	for _, reply := range replies {
		if reply != nil {
			reply.AdaptLevel = level
		}
	}
}

// completeRound schedules a finished round, distributes the replies,
// and emits the round's observability snapshot.
func (s *Scheduler) completeRound(r *round, frame int) {
	start := time.Now()
	replies, snap, prio, err := s.schedule(r, frame)
	if err != nil {
		s.logger.Printf("cluster: scheduling frame %d: %v", frame, err)
		s.broadcastError(fmt.Sprintf("scheduling failed: %v", err))
		return
	}
	dead := s.deadCameras(r)
	if len(dead) > 0 {
		// deadCameras speaks local indices; the wire (and the shared
		// liveness mask every node installs) is global.
		deadGlobal := make([]int, len(dead))
		for i, c := range dead {
			deadGlobal[i] = s.glob(c)
		}
		s.logger.Printf("cluster: round %d declares cameras %v dead (lease expired or disconnected)", frame, deadGlobal)
		for _, reply := range replies {
			if reply != nil {
				reply.Dead = deadGlobal
			}
		}
	}
	s.noteFaults(&snap, dead)
	s.noteAdapt(&snap, replies, len(dead))
	snap.RoundLatency = time.Since(start)
	s.emit(snap)
	s.emitRound(snap, prio)
	s.gcStaleRounds(frame)
	s.mu.Lock()
	conns := make([]*schedConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		reply := replies[c.camera]
		if reply == nil {
			continue
		}
		if err := c.send(&Envelope{Type: TypeAssignment, Assignment: reply}); err != nil {
			s.logger.Printf("cluster: reply to camera %d: %v", c.camera, err)
		}
	}
}

func (s *Scheduler) broadcastError(msg string) {
	s.mu.Lock()
	conns := make([]*schedConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.send(&Envelope{Type: TypeError, Error: msg})
	}
}

// schedule runs one central-stage round (central.Solve, the kernel the
// in-process engine runs too) over the wire reports and turns its
// per-track decisions into one Assignment per camera. It also assembles
// the round's snapshot (sans Seq and RoundLatency, which the caller
// stamps): the scheduled per-camera latencies, the batch occupancy each
// camera's assignment implies, and assignment counts.
func (s *Scheduler) schedule(r *round, frame int) (map[int]*Assignment, metrics.Snapshot, []int, error) {
	// Rounds may complete concurrently (completeRound runs outside mu),
	// so each borrows a workspace; nothing of it outlives this call.
	work := roundWorks.Get().(*roundWork)
	defer roundWorks.Put(work)
	solved, views := &work.round, &work.round.Views
	m := len(s.cams)
	total := 0
	for _, rep := range r.reports {
		total += len(rep.Tracks)
	}
	views.Reset(m, total)
	for cam := 0; cam < m; cam++ {
		rep := r.reports[cam]
		if rep == nil {
			continue // disconnected camera: schedule without its view
		}
		for _, t := range rep.Tracks {
			views.Add(cam, geom.Rect{MinX: t.Box[0], MinY: t.Box[1], MaxX: t.Box[2], MaxY: t.Box[3]},
				central.Track{ID: t.TrackID, Size: t.Size})
		}
	}
	if err := central.Solve(central.Params{
		Model: s.model, Cameras: s.cams, MinIoU: s.minIoU, Workers: s.workers,
	}, solved); err != nil {
		return nil, metrics.Snapshot{}, nil, err
	}
	sol := solved.Solution
	snap := s.roundSnapshot(frame, &solved.Objects, sol, work)
	// A round missing at least one roster camera's view (timeout, lease
	// expiry, disconnect, or a camera that never joined) is partial.
	snap.Partial = len(r.reports) < m

	// The wire speaks global camera indices; translate the priority
	// order (the identity for a standalone scheduler) and stamp the
	// shard roster so nodes build a scoped ownership policy.
	prio := make([]int, len(sol.Priority))
	for k, c := range sol.Priority {
		prio[k] = s.glob(c)
	}
	var roster []int
	if s.shard != nil {
		roster = s.shard.roster
	}

	// Cross-shard hand-off: a boundary object also claimed by a
	// lower-ID shard belongs there — every local member becomes a
	// shadow of the foreign owner instead of being kept.
	demoted := s.consultHandoff(frame, solved.Groups, views.Boxes, sol)

	replies := make(map[int]*Assignment, m)
	for cam := 0; cam < m; cam++ {
		replies[cam] = &Assignment{Frame: frame, Priority: prio, Roster: roster}
	}
	solved.Walk(func(mb central.Member) {
		reply := replies[mb.Cam]
		id := views.Tracks[mb.Cam][mb.Index].ID
		if owner, isDemoted := demoted[mb.Object]; isDemoted {
			reply.Shadows = append(reply.Shadows, ShadowOrder{TrackID: id, AssignedCamera: owner})
		} else if mb.Kept {
			reply.Keep = append(reply.Keep, id)
		} else {
			reply.Shadows = append(reply.Shadows, ShadowOrder{TrackID: id, AssignedCamera: s.glob(mb.Owner)})
		}
	})
	s.publishHandoff(frame, solved.Groups, views.Boxes, sol, demoted)
	return replies, snap, prio, nil
}

// roundWork is a scheduled round's workspace: the round kernel's and the
// snapshot's per-camera tables.
type roundWork struct {
	round central.Round
	// counts[cam*k+s] is the number of objects assigned to cam at its
	// profile's size Sizes[s], where k is the roster's most sizes.
	counts   []int
	assigned []int
}

// roundWorks recycles round workspaces across rounds and schedulers.
var roundWorks = sync.Pool{New: func() any { return new(roundWork) }}

// roundSnapshot derives the observability record of a scheduled round:
// per camera, the solution's scheduled latency, the number of objects
// assigned, and the batch occupancy its assignment implies (images over
// the capacity of the batches BALB's packing launches, per Definition 1
// greedy same-size packing).
func (s *Scheduler) roundSnapshot(frame int, in *core.Instance, sol *core.Solution, work *roundWork) metrics.Snapshot {
	snap := metrics.Snapshot{
		Source:       metrics.SourceScheduler,
		Frame:        frame,
		Objects:      in.Len(),
		FrameLatency: sol.System(),
		Cameras:      make([]metrics.CameraSnapshot, len(s.cams)),
	}
	if s.shard != nil {
		// Shard-scoped rounds share one sink; the label demultiplexes
		// them ("shard0", "shard1", ...), and camera indices below are
		// globalized so fleet-wide dashboards line up.
		snap.Label = s.shard.label
	}
	// The solver validated every assigned size against the camera's
	// profile, so each lands in a size class.
	k := 0
	for _, c := range s.cams {
		k = max(k, len(c.Profile.Sizes))
	}
	work.counts = append(work.counts[:0], make([]int, len(s.cams)*k)...)
	work.assigned = append(work.assigned[:0], make([]int, len(s.cams))...)
	counts, assigned := work.counts, work.assigned
	for j, cam := range sol.Assign {
		size := in.Sizes(j)[slices.Index(in.Cameras(j), int32(cam))]
		counts[cam*k+slices.Index(s.cams[cam].Profile.Sizes, int(size))]++
		assigned[cam]++
	}
	for i, c := range s.cams {
		cs := metrics.CameraSnapshot{Camera: s.glob(i), Assignments: assigned[i], Latency: sol.Latencies[i]}
		capacity := 0
		for sc, size := range c.Profile.Sizes {
			n := counts[i*k+sc]
			if n == 0 {
				continue
			}
			limit := c.Profile.BatchLimit[size]
			b := (n + limit - 1) / limit
			cs.Batches += b
			capacity += b * limit
			cs.Images += n
		}
		if capacity > 0 {
			cs.BatchOccupancy = float64(cs.Images) / float64(capacity)
		}
		snap.Cameras[i] = cs
	}
	return snap
}
