package cluster

import (
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/profile"
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
//
// The barrier itself is a round machine (machine.go) with no lock and no
// clock; Scheduler is the I/O shell around it. A sharded scheduler
// (NewShardedScheduler) is the same shell around one machine per shard.
// The shell feeds one event at a time under mu, stamped with the time it
// was read, to the machine of the camera it concerns; it emits the
// machine's records under the same lock, sends its messages outside it,
// and keeps one timer armed at the earliest wake-up of any machine.
type Scheduler struct {
	// config is what the Options set; every machine holds a copy.
	config
	sink      metrics.Sink
	roundSink metrics.RoundSink
	shutdown  chan struct{}
	closeOnce sync.Once
	handlers  sync.WaitGroup
	// shardOf[cam] is the machine hosting global camera cam.
	shardOf []int

	mu sync.Mutex
	// machines are the round machines, one per shard, and wakes[i] is
	// machine i's next wake-up. mu guards their state, the hand-off claims
	// a sharded scheduler's machines share (sharded.go) included.
	machines []*machine
	wakes    []time.Time
	ln       net.Listener
	conns    map[int]*schedConn // by global camera
	timer    *time.Timer
	closed   bool
}

// config is what the Options configure: the shell's logger and the
// settings of every round machine.
type config struct {
	logger       *log.Logger
	workers      int
	roundTimeout time.Duration
	lease        time.Duration
	adaptPol     adapt.Policy
}

type schedConn struct {
	conn net.Conn
	wmu  sync.Mutex
}

func (sc *schedConn) send(env *Envelope) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return WriteMessage(sc.conn, env)
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
// and replay. Under a sharded scheduler each shard's machine emits its
// own gap-free stream, labelled "shard<N>".
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
// Zero or negative disables (the default): rounds wait indefinitely.
// With or without it, completing round F drops pending rounds for
// earlier frames, whose reporters have moved on.
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
// violations. Under a sharded scheduler each shard's machine runs its
// own controller over its own rounds, so one overloaded shard degrades
// without dragging its neighbours down. A disabled policy (SLO == 0) is
// a no-op.
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

// NewScheduler builds the service for a fixed camera roster; minIoU is
// the association threshold, and <= 0 selects assoc.MinIoU.
func NewScheduler(model *assoc.Model, profiles []*profile.Profile, minIoU float64, opts ...Option) (*Scheduler, error) {
	m, err := newMachine(model, profiles, minIoU)
	if err != nil {
		return nil, err
	}
	return newShell([]*machine{m}, make([]int, len(profiles)), opts), nil
}

// newShell builds the shell around machines, one per shard, where
// shardOf maps each global camera to its machine. The Options configure
// every machine, and all their clocks start now.
func newShell(machines []*machine, shardOf []int, opts []Option) *Scheduler {
	s := &Scheduler{
		config:   config{logger: log.New(io.Discard, "", 0)},
		sink:     metrics.NopSink{},
		shutdown: make(chan struct{}),
		shardOf:  shardOf,
		machines: machines,
		wakes:    make([]time.Time, len(machines)),
		conns:    make(map[int]*schedConn),
	}
	for _, opt := range opts {
		opt(s)
	}
	now := time.Now()
	for _, m := range machines {
		m.config = s.config
		m.start(now)
	}
	return s
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
// drops all connections, stops the wake-up timer, and waits for every
// in-flight connection handler to exit. After Close returns, Serve has
// unblocked (or will return immediately if called later) and no further
// snapshot reaches the sink.
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
		if s.timer != nil {
			s.timer.Stop()
		}
		s.mu.Unlock()
	})
	s.handlers.Wait()
}

// everyMachine, as feed's machine index, runs the event on every
// machine in shard order: the wake-up timer's tick.
const everyMachine = -1

// feed runs one event under mu on machine sid (or every machine), stamped
// with the time it is read, and carries out the machines' actions: it
// emits the round records (holding mu across the sinks makes "no record
// after Close" exact, and sinks are cheap and non-blocking by the
// metrics.Sink contract), re-arms the wake-up timer at the earliest
// wake-up of any machine, and sends the messages once mu is released. A
// failed send is not logged: the connection's read loop sees the same
// failure and leaves, and the timer's goroutine, which Close does not
// wait for, must not touch the logger. feed reports false, running
// nothing, once the scheduler is closed.
func (s *Scheduler) feed(sid int, event func(m *machine, t time.Time) actions) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	now := time.Now()
	msgs, wakeAt := s.step(sid, event, now, func() time.Duration { return time.Since(now) })
	to := make([]*schedConn, len(msgs))
	for i, msg := range msgs {
		to[i] = s.conns[msg.cam]
	}
	switch {
	case wakeAt.IsZero():
		if s.timer != nil {
			s.timer.Stop()
		}
	case s.timer == nil:
		s.timer = time.AfterFunc(wakeAt.Sub(now), func() { s.feed(everyMachine, (*machine).tick) })
	default:
		s.timer.Reset(wakeAt.Sub(now))
	}
	s.mu.Unlock()
	for i, sc := range to {
		if sc != nil {
			_ = sc.send(msgs[i].env)
		}
	}
	return true
}

// message is one envelope for a global camera.
type message struct {
	cam int
	env *Envelope
}

// step runs one event on machine sid (or every machine) at now, emits
// the completed rounds' records stamped with the latency measured by
// since (nil: zero), and returns the machines' messages addressed to
// global cameras and their earliest wake-up. It is the shell without the
// I/O: the caller serializes the calls.
func (s *Scheduler) step(sid int, event func(m *machine, t time.Time) actions, now time.Time, since func() time.Duration) ([]message, time.Time) {
	var msgs []message
	for i, m := range s.machines {
		if sid != everyMachine && sid != i {
			continue
		}
		acts := event(m, now)
		s.wakes[i] = acts.wakeAt
		for _, e := range acts.emits {
			if since != nil {
				e.snap.RoundLatency = since()
				e.round.RoundLatency = e.snap.RoundLatency
			}
			s.sink.RecordFrame(e.snap)
			if s.roundSink != nil {
				s.roundSink.RecordRound(e.round)
			}
		}
		for _, o := range acts.sends {
			env := &Envelope{Type: TypeAssignment, Assignment: o.assignment}
			if o.assignment == nil {
				env = &Envelope{Type: TypeError, Error: o.err}
			}
			msgs = append(msgs, message{m.glob(o.cam), env})
		}
	}
	var wakeAt time.Time
	for _, w := range s.wakes {
		if !w.IsZero() && (wakeAt.IsZero() || w.Before(wakeAt)) {
			wakeAt = w
		}
	}
	return msgs, wakeAt
}

// helloAck builds the registration reply to camera cam of machine m,
// with the static cell-coverage masks if the hello carried a frame size.
func (s *Scheduler) helloAck(m *machine, cam int, h *Hello) (*HelloAck, error) {
	ack := &HelloAck{Camera: h.Camera}
	if h.FrameW <= 0 || h.FrameH <= 0 {
		return ack, nil
	}
	grid := geom.NewGrid(geom.Rect{MaxX: h.FrameW, MaxY: h.FrameH}, assoc.GridCols, assoc.GridRows)
	cover, err := m.model.CellCoverageWorkers(cam, grid, m.workers)
	if err != nil {
		return nil, err
	}
	// A shard's subset model speaks local indices; nodes work in global
	// ones.
	for _, set := range cover {
		for k, c := range set {
			set[k] = m.glob(c)
		}
	}
	ack.GridCols = assoc.GridCols
	ack.GridRows = assoc.GridRows
	ack.Coverage = cover
	return ack, nil
}

// receive handles one message read from a registered camera's
// connection: it runs its event through feed and returns the reply due.
func (s *Scheduler) receive(env *Envelope, globalCam int, feed func(event func(m *machine, t time.Time) actions)) *Envelope {
	cam := s.machines[s.shardOf[globalCam]].local(globalCam)
	switch {
	case env.Type == TypePing:
		feed(func(m *machine, t time.Time) actions { return m.touch(cam, t) })
		return &Envelope{Type: TypePong, Heartbeat: env.Heartbeat}
	case env.Type == TypeDetections && env.Detections != nil:
		if env.Detections.Camera != globalCam {
			return &Envelope{Type: TypeError, Error: "camera id mismatch"}
		}
		det := *env.Detections
		det.Camera = cam
		feed(func(m *machine, t time.Time) actions { return m.report(&det, t) })
	case env.Type == TypeDetections || env.Type == TypeHello:
		// A malformed known message is a protocol error worth reporting
		// back.
		return &Envelope{Type: TypeError, Error: "expected detections"}
	default:
		// Unknown (newer-protocol) types are skipped, mirroring the
		// client's tolerance, so mixed-version fleets keep running.
		s.logger.Printf("cluster: camera %d sent unknown message type %q, ignoring", globalCam, env.Type)
	}
	return nil
}

// handle registers a camera from its hello with the machine of its shard
// and runs the connection's read loop. The wire carries global camera
// indices; the machine speaks its local roster position, translated here
// on the way in and in feed on the way out.
func (s *Scheduler) handle(conn net.Conn) {
	defer conn.Close()
	env, err := ReadMessage(conn)
	if err != nil {
		s.logger.Printf("cluster: handshake read: %v", err)
		return
	}
	if env.Type != TypeHello || env.Hello == nil {
		_ = WriteMessage(conn, &Envelope{Type: TypeError, Error: "expected hello"})
		return
	}
	globalCam := env.Hello.Camera
	if globalCam < 0 || globalCam >= len(s.shardOf) {
		_ = WriteMessage(conn, &Envelope{Type: TypeError, Error: fmt.Sprintf("camera %d out of range", globalCam)})
		return
	}
	sid := s.shardOf[globalCam]
	m := s.machines[sid]
	cam := m.local(globalCam)
	sc := &schedConn{conn: conn}
	// A closed scheduler registers nothing: this connection was accepted
	// before the listener went down but would linger unclosed (Close
	// already swept s.conns).
	if !s.feed(sid, func(m *machine, t time.Time) actions {
		if old, dup := s.conns[globalCam]; dup {
			// A reconnecting camera takes over its registration: the old
			// connection may be half-dead (the node crashed, or a NAT ate
			// the flow) without this end noticing, and rejecting the new
			// one would lock the camera out until the OS gives up. Closing
			// the old conn makes its handler exit; its cleanup sees it has
			// been replaced and leaves the new registration alone.
			old.conn.Close()
			s.logger.Printf("cluster: camera %d reconnected, replacing previous connection from %v",
				globalCam, old.conn.RemoteAddr())
		}
		s.conns[globalCam] = sc
		return m.register(cam, t)
	}) {
		return
	}
	defer s.feed(sid, func(m *machine, t time.Time) actions {
		// Only a conn that still owns the slot unregisters — a reconnect
		// may have taken it over. A camera dropping out must not stall
		// in-flight rounds: any round now complete without it is
		// scheduled at once.
		if s.conns[globalCam] != sc {
			return m.tick(t)
		}
		delete(s.conns, globalCam)
		return m.leave(cam, t)
	})
	s.logger.Printf("cluster: camera %d connected from %v", globalCam, conn.RemoteAddr())
	// Ack the handshake so Dial returns only once the camera is
	// registered (otherwise two racing hellos for the same index could
	// each believe they won).
	ack, err := s.helloAck(m, cam, env.Hello)
	if err != nil {
		s.logger.Printf("cluster: camera %d coverage: %v", globalCam, err)
		_ = sc.send(&Envelope{Type: TypeError, Error: fmt.Sprintf("coverage: %v", err)})
		return
	}
	if err := sc.send(&Envelope{Type: TypeHello, Ack: ack}); err != nil {
		s.logger.Printf("cluster: camera %d ack: %v", globalCam, err)
		return
	}

	feed := func(event func(m *machine, t time.Time) actions) { s.feed(sid, event) }
	for {
		env, err := ReadMessage(conn)
		if err != nil {
			s.logger.Printf("cluster: camera %d read: %v", globalCam, err)
			return
		}
		if reply := s.receive(env, globalCam, feed); reply != nil {
			_ = sc.send(reply)
		}
	}
}
