package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"mvs/internal/assoc"
	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/profile"
	"mvs/internal/shard"
)

// handoffTTL is how many frames a published hand-off claim stays
// consultable: a claim published at key frame F is consulted by neighbour
// rounds up to frame F+handoffTTL and then pruned. Two scheduling horizons
// at the usual T=10 cadence: long enough to bridge shards completing the
// same key frame at different wall-clock times, short enough that a
// stalled shard's stale claims cannot demote a neighbour's objects
// forever.
const handoffTTL = 20

// shardCtx scopes a Scheduler to one shard of a ShardedScheduler.
type shardCtx struct {
	// id is the shard's index in the shard.Map (also its hand-off
	// ownership rank: lower IDs own straddling objects).
	id int
	// roster lists the shard's cameras, ascending global indices;
	// local index i in every internal structure means roster[i].
	roster []int
	// full is the fleet-wide association model, needed to map a
	// neighbour shard's boundary boxes onto this shard's cameras (the
	// shard's own scheduling uses the roster-scoped subset model).
	full *assoc.Model
	// label tags this shard's snapshots ("shard3").
	label string
	// boundary marks this shard's boundary cameras (global indices).
	boundary map[int]bool
	// foreign maps each local boundary camera (global index) to the
	// overlapping cameras in other shards, ascending.
	foreign map[int][]int
	// shardOf is the fleet-wide camera-to-shard map.
	shardOf []int
	// bus is the hand-off claim exchange shared by all shards.
	bus *handoffBus
}

// handoffClaim is one shard's statement, for one round, that it is
// tracking an object visible on one of its boundary cameras: where the
// box is (FromCam's pixel frame) and which of its cameras owns the
// object. Neighbour shards map the box across the boundary and demote
// their matching local tracks to shadows of Owner.
type handoffClaim struct {
	// FromCam is the boundary camera that sees the box (global index).
	FromCam int
	// Box is the track's pixel box on FromCam.
	Box geom.Rect
	// Owner is the camera assigned to the object (global index).
	Owner int
}

// handoffBus is the only coordination channel between shard round
// loops: each shard publishes its boundary claims when a round
// completes, and consults neighbouring shards' claims when scheduling
// its own. Claims are keyed by key-frame index, so consulting is
// deterministic given the same claim history; the frame-based TTL
// bounds how long a stalled shard's last claims keep influencing
// neighbours.
type handoffBus struct {
	mu sync.Mutex
	// claims[shard][frame] is the shard's claim list for that round.
	// An empty (but present) list is meaningful: the shard completed
	// the round and claims nothing, releasing any earlier claims —
	// which is how an object whose owner died at the boundary becomes
	// claimable by the neighbour within one round.
	claims []map[int][]handoffClaim
}

func newHandoffBus(numShards int) *handoffBus {
	b := &handoffBus{claims: make([]map[int][]handoffClaim, numShards)}
	for i := range b.claims {
		b.claims[i] = make(map[int][]handoffClaim)
	}
	return b
}

// publish records a shard's claims for a completed round (empty claims
// included) and prunes that shard's entries older than the TTL.
func (b *handoffBus) publish(shard, frame int, claims []handoffClaim) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.claims[shard][frame] = claims
	for f := range b.claims[shard] {
		if f < frame-handoffTTL {
			delete(b.claims[shard], f)
		}
	}
}

// lookup returns the given shard's claims for frame: the exact round if
// published, otherwise the most recent earlier round still within the
// TTL, otherwise nil (the shard has said nothing relevant — no
// demotion, the conservative default).
func (b *handoffBus) lookup(shard, frame int) []handoffClaim {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.claims[shard][frame]; ok {
		return c
	}
	best := -1
	for f := range b.claims[shard] {
		if f < frame && f > best && f >= frame-handoffTTL {
			best = f
		}
	}
	if best < 0 {
		return nil
	}
	return b.claims[shard][best]
}

// consultHandoff checks every scheduled object with a member box on a
// boundary camera against the claims of lower-ID neighbouring shards:
// if a neighbour's claimed boundary box maps onto the local box with
// IoU >= minIoU, the neighbour owns the object (lower shard ID wins the
// tie deterministically) and the object is demoted — the returned map
// gives the foreign owner per object ID. Standalone schedulers return
// nil. Iteration order (groups, members, foreign cameras, claims in
// published order) is fixed, so the same claim history always produces
// the same demotions.
func (m *machine) consultHandoff(frame int, groups []assoc.Group, boxes [][]geom.Rect) map[int]int {
	ctx := m.shard
	if ctx == nil {
		return nil
	}
	var demoted map[int]int
	for gi, g := range groups {
	memberLoop:
		for _, ref := range g.Members {
			gc := ctx.roster[ref.Cam]
			if !ctx.boundary[gc] {
				continue
			}
			local := boxes[ref.Cam][ref.Index]
			for _, f := range ctx.foreign[gc] {
				fs := ctx.shardOf[f]
				if fs >= ctx.id {
					continue // higher-ID shards defer to us, not we to them
				}
				for _, claim := range ctx.bus.lookup(fs, frame) {
					if claim.FromCam != f {
						continue
					}
					mapped, visible, err := ctx.full.MapBox(f, gc, claim.Box)
					if err != nil || !visible {
						continue
					}
					if mapped.IoU(local) >= m.minIoU {
						if demoted == nil {
							demoted = make(map[int]int)
						}
						demoted[gi+1] = claim.Owner
						m.logger.Printf("cluster: %s round %d: object %d handed off to shard %d (owner camera %d)",
							ctx.label, frame, gi+1, fs, claim.Owner)
						break memberLoop
					}
				}
			}
		}
	}
	return demoted
}

// publishHandoff publishes this round's boundary claims: every kept
// (non-demoted) object with a member box on a boundary camera, stamped
// with its owning camera. Always called on a sharded round — an empty
// claim list is itself information (nothing claimed, releasing earlier
// claims). No-op for standalone schedulers.
func (m *machine) publishHandoff(frame int, groups []assoc.Group, boxes [][]geom.Rect, sol *core.Solution, demoted map[int]int) {
	ctx := m.shard
	if ctx == nil {
		return
	}
	var claims []handoffClaim
	for gi, g := range groups {
		assigned := sol.Assign[gi]
		if _, isDemoted := demoted[gi+1]; isDemoted {
			continue
		}
		owner := ctx.roster[assigned]
		for _, ref := range g.Members {
			gc := ctx.roster[ref.Cam]
			if ctx.boundary[gc] {
				claims = append(claims, handoffClaim{FromCam: gc, Box: boxes[ref.Cam][ref.Index], Owner: owner})
			}
		}
	}
	ctx.bus.publish(ctx.id, frame, claims)
}

// ShardedScheduler runs one independent Scheduler round loop per shard
// of a shard.Map: each shard has its own round barrier, liveness
// leases, round timeouts, Dead broadcast, and degraded-mode story —
// configured by the same Options, applied per shard — so no barrier,
// association pass, or BALB instance ever spans more than the largest
// shard's cameras. The shards coordinate only through the
// boundary hand-off bus: when a tracked object is visible from two
// shards, the lower-ID shard owns it and the higher-ID shard demotes
// its local tracks to shadows of the foreign owner (see handoffBus).
//
// Nodes connect exactly as they would to a standalone Scheduler — same
// protocol, global camera indices — and are routed to their shard's
// scheduler by the hello handshake. Shard-scoped assignments carry the
// shard's Roster, and nodes build a scoped ownership policy from it.
//
// A shared metrics sink receives every shard's round snapshots,
// demultiplexed by Snapshot.Label ("shard0", "shard1", ...); the sink
// must therefore accept concurrent RecordFrame calls (the metrics.Sink
// contract).
type ShardedScheduler struct {
	smap   *shard.Map
	shards []*Scheduler

	shutdown  chan struct{}
	closeOnce sync.Once
	handlers  sync.WaitGroup

	mu     sync.Mutex
	ln     net.Listener
	closed bool
}

// NewShardedScheduler builds one shard-scoped Scheduler per shard of m
// over the fleet-wide model and profiles. Every Option is applied to
// every shard's scheduler. The map must cover exactly the model's
// cameras.
func NewShardedScheduler(model *assoc.Model, profiles []*profile.Profile, minIoU float64, m *shard.Map, opts ...Option) (*ShardedScheduler, error) {
	if model == nil {
		return nil, errors.New("cluster: nil association model")
	}
	if m == nil {
		return nil, errors.New("cluster: nil shard map")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if m.NumCameras() != model.NumCameras() {
		return nil, fmt.Errorf("cluster: shard map covers %d cameras, model has %d",
			m.NumCameras(), model.NumCameras())
	}
	if len(profiles) != model.NumCameras() {
		return nil, fmt.Errorf("cluster: %d profiles for model with %d cameras",
			len(profiles), model.NumCameras())
	}

	ss := &ShardedScheduler{smap: m, shutdown: make(chan struct{})}
	bus := newHandoffBus(m.NumShards())

	for sid, roster := range m.Shards {
		sub, err := model.Subset(roster)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d model: %w", sid, err)
		}
		subProfiles := make([]*profile.Profile, len(roster))
		for i, c := range roster {
			subProfiles[i] = profiles[c]
		}
		sched, err := NewScheduler(sub, subProfiles, minIoU, opts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", sid, err)
		}
		ctx := &shardCtx{
			id:       sid,
			roster:   roster,
			full:     model,
			label:    fmt.Sprintf("shard%d", sid),
			boundary: make(map[int]bool),
			foreign:  make(map[int][]int),
			shardOf:  m.ShardOf,
			bus:      bus,
		}
		for _, c := range m.BoundaryCameras(sid) {
			ctx.boundary[c] = true
		}
		for _, e := range m.Neighbors(sid) {
			// Neighbors yields {A: foreign, B: local} sorted by
			// (foreign, local); regrouping per local camera keeps the
			// foreign lists ascending.
			ctx.foreign[e.B] = append(ctx.foreign[e.B], e.A)
		}
		sched.m.shard = ctx
		ss.shards = append(ss.shards, sched)
	}
	return ss, nil
}

// Serve accepts camera connections on ln, reads each connection's hello
// handshake, and hands the connection to the owning shard's scheduler.
// It blocks until the listener closes (or Close is called) and every
// routed connection handler has exited.
func (ss *ShardedScheduler) Serve(ln net.Listener) error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		ln.Close()
		return nil
	}
	ss.ln = ln
	ss.mu.Unlock()

	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			select {
			case <-ss.shutdown:
			default:
				err = fmt.Errorf("cluster: accept: %w", aerr)
			}
			break
		}
		ss.handlers.Add(1)
		go func() {
			defer ss.handlers.Done()
			ss.route(conn)
		}()
	}
	ss.handlers.Wait()
	return err
}

// route reads a connection's hello and delegates it to the owning
// shard's scheduler, which registers the camera under its local roster
// index and runs the read loop to completion.
func (ss *ShardedScheduler) route(conn net.Conn) {
	defer conn.Close()
	env, err := ReadMessage(conn)
	if err != nil {
		ss.shards[0].logger.Printf("cluster: sharded handshake read: %v", err)
		return
	}
	if env.Type != TypeHello || env.Hello == nil {
		_ = WriteMessage(conn, &Envelope{Type: TypeError, Error: "expected hello"})
		return
	}
	cam := env.Hello.Camera
	if cam < 0 || cam >= ss.smap.NumCameras() {
		_ = WriteMessage(conn, &Envelope{Type: TypeError, Error: fmt.Sprintf("camera %d out of range", cam)})
		return
	}
	ss.shards[ss.smap.ShardOf[cam]].handleHello(conn, env)
}

// Close stops every shard's scheduler and the shared listener, then
// waits for all routed connection handlers to exit. After Close
// returns, no goroutine of this scheduler touches the sink or logger.
func (ss *ShardedScheduler) Close() {
	ss.closeOnce.Do(func() {
		close(ss.shutdown)
		ss.mu.Lock()
		ss.closed = true
		if ss.ln != nil {
			ss.ln.Close()
		}
		ss.mu.Unlock()
		for _, sched := range ss.shards {
			sched.Close()
		}
	})
	ss.handlers.Wait()
}
