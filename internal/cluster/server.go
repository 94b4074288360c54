package cluster

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/assoc"
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
//
// The barrier itself is a round machine (machine.go) with no lock and no
// clock; Scheduler is the I/O shell around it. It feeds the
// machine one event at a time under mu, stamped with the time it was
// read, emits the machine's records under the same lock, sends its
// messages outside it, and keeps one timer armed at the machine's next
// wake-up.
type Scheduler struct {
	logger    *log.Logger
	sink      metrics.Sink
	roundSink metrics.RoundSink
	shutdown  chan struct{}
	closeOnce sync.Once
	handlers  sync.WaitGroup

	mu sync.Mutex
	// m is the round machine: the Options write its settings, and its
	// state is guarded by mu.
	m      machine
	ln     net.Listener
	conns  map[int]*schedConn
	timer  *time.Timer
	closed bool
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
// Zero or negative disables (the default): rounds wait indefinitely.
// With or without it, completing round F drops pending rounds for
// earlier frames, whose reporters have moved on.
func WithRoundTimeout(d time.Duration) Option {
	return func(s *Scheduler) {
		if d > 0 {
			s.m.roundTimeout = d
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
			s.m.workers = n
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
			s.m.adaptPol = pol
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
			s.m.lease = d
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
		logger:   log.New(io.Discard, "", 0),
		sink:     metrics.NopSink{},
		shutdown: make(chan struct{}),
		conns:    make(map[int]*schedConn),
		m:        machine{model: model, cams: cams, minIoU: minIoU},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.m.logger = s.logger
	s.m.start(time.Now())
	return s, nil
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

// feed runs one machine event under mu, stamped with the time it is
// read, and carries out the machine's actions: it re-arms the wake-up
// timer, emits the round records (holding mu across the sinks makes "no
// record after Close" exact, and sinks are cheap and non-blocking by the
// metrics.Sink contract), and sends the messages once mu is released. A
// failed send is not logged: the connection's read loop sees the same
// failure and leaves, and the timer's goroutine, which Close does not
// wait for, must not touch the logger. feed reports false, running
// nothing, once the scheduler is closed.
func (s *Scheduler) feed(event func(t time.Time) actions) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	now := time.Now()
	acts := event(now)
	switch {
	case acts.wakeAt.IsZero():
		if s.timer != nil {
			s.timer.Stop()
		}
	case s.timer == nil:
		s.timer = time.AfterFunc(acts.wakeAt.Sub(now), func() { s.feed(s.m.tick) })
	default:
		s.timer.Reset(acts.wakeAt.Sub(now))
	}
	for _, e := range acts.emits {
		e.snap.RoundLatency = time.Since(now)
		s.sink.RecordFrame(e.snap)
		if s.roundSink != nil {
			e.round.RoundLatency = e.snap.RoundLatency
			s.roundSink.RecordRound(e.round)
		}
	}
	type delivery struct {
		sc  *schedConn
		env *Envelope
	}
	var deliveries []delivery
	for _, o := range acts.sends {
		if sc := s.conns[o.cam]; sc != nil {
			env := &Envelope{Type: TypeAssignment, Assignment: o.assignment}
			if o.assignment == nil {
				env = &Envelope{Type: TypeError, Error: o.err}
			}
			deliveries = append(deliveries, delivery{sc, env})
		}
	}
	s.mu.Unlock()
	for _, d := range deliveries {
		_ = d.sc.send(d.env)
	}
	return true
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
	cam, ok := s.m.local(globalCam)
	if !ok {
		_ = WriteMessage(conn, &Envelope{Type: TypeError, Error: fmt.Sprintf("camera %d out of range", globalCam)})
		return
	}
	sc := &schedConn{conn: conn}
	// A closed scheduler registers nothing: this connection was accepted
	// before the listener went down but would linger unclosed (Close
	// already swept s.conns).
	if !s.feed(func(t time.Time) actions {
		if old, dup := s.conns[cam]; dup {
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
		s.conns[cam] = sc
		return s.m.register(cam, t)
	}) {
		return
	}
	defer s.feed(func(t time.Time) actions {
		// Only a conn that still owns the slot unregisters — a reconnect
		// may have taken it over. A camera dropping out must not stall
		// in-flight rounds: any round now complete without it is
		// scheduled at once.
		if s.conns[cam] != sc {
			return s.m.tick(t)
		}
		delete(s.conns, cam)
		return s.m.leave(cam, t)
	})
	s.logger.Printf("cluster: camera %d connected from %v", globalCam, conn.RemoteAddr())
	// Ack the handshake so Dial returns only once the camera is
	// registered (otherwise two racing hellos for the same index could
	// each believe they won). When the node announced its frame size,
	// the ack carries the static cell-coverage masks.
	ack := &HelloAck{Camera: globalCam}
	if env.Hello.FrameW > 0 && env.Hello.FrameH > 0 {
		grid := geom.NewGrid(geom.Rect{MaxX: env.Hello.FrameW, MaxY: env.Hello.FrameH}, maskGridCols, maskGridRows)
		cover, err := s.m.model.CellCoverageWorkers(cam, grid, s.m.workers)
		if err != nil {
			s.logger.Printf("cluster: camera %d coverage: %v", globalCam, err)
			_ = sc.send(&Envelope{Type: TypeError, Error: fmt.Sprintf("coverage: %v", err)})
			return
		}
		// The subset model of a shard speaks local indices; nodes work
		// in global ones.
		for _, set := range cover {
			for k, c := range set {
				set[k] = s.m.glob(c)
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

	for {
		env, err := ReadMessage(conn)
		if err != nil {
			s.logger.Printf("cluster: camera %d read: %v", globalCam, err)
			return
		}
		switch {
		case env.Type == TypePing:
			s.feed(func(t time.Time) actions { return s.m.touch(cam, t) })
			_ = sc.send(&Envelope{Type: TypePong, Heartbeat: env.Heartbeat})
		case env.Type == TypeDetections && env.Detections != nil:
			if env.Detections.Camera != globalCam {
				_ = sc.send(&Envelope{Type: TypeError, Error: "camera id mismatch"})
				continue
			}
			// Rounds and reports are local-indexed internally.
			env.Detections.Camera = cam
			s.feed(func(t time.Time) actions { return s.m.report(env.Detections, t) })
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
