package cluster

import (
	"errors"
	"fmt"

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

// shardCtx scopes a round machine to one shard of a sharded scheduler.
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
	// claims is the hand-off claim table every shard's machine shares.
	claims claimTable
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

// claimTable is the only coordination between shards: claimTable[s][f]
// is shard s's claim list for its round at key frame f. Each shard
// publishes its boundary claims when a round completes, and consults
// lower shards' claims when scheduling its own. It is plain data: the
// machines read and write it only inside their events, which the shell
// runs one at a time under its lock. Claims are keyed by key-frame index,
// so consulting is deterministic given the same claim history; the
// frame-based TTL bounds how long a stalled shard's last claims keep
// influencing neighbours.
//
// An empty (but present) list is meaningful: the shard completed the
// round and claims nothing, releasing any earlier claims — which is how
// an object whose owner died at the boundary becomes claimable by the
// neighbour within one round.
type claimTable []map[int][]handoffClaim

func newClaimTable(numShards int) claimTable {
	c := make(claimTable, numShards)
	for i := range c {
		c[i] = make(map[int][]handoffClaim)
	}
	return c
}

// publish records a shard's claims for a completed round (empty claims
// included) and prunes that shard's entries older than the TTL.
func (c claimTable) publish(shard, frame int, claims []handoffClaim) {
	c[shard][frame] = claims
	for f := range c[shard] {
		if f < frame-handoffTTL {
			delete(c[shard], f)
		}
	}
}

// lookup returns the given shard's claims for frame: the exact round if
// published, otherwise the most recent earlier round still within the
// TTL, otherwise nil (the shard has said nothing relevant — no
// demotion, the conservative default).
func (c claimTable) lookup(shard, frame int) []handoffClaim {
	if claims, ok := c[shard][frame]; ok {
		return claims
	}
	best := -1
	for f := range c[shard] {
		if f < frame && f > best && f >= frame-handoffTTL {
			best = f
		}
	}
	if best < 0 {
		return nil
	}
	return c[shard][best]
}

// consultHandoff checks every scheduled object with a member box on a
// boundary camera against the claims of lower-ID neighbouring shards:
// if a neighbour's claimed boundary box maps onto the local box with
// IoU >= minIoU, the neighbour owns the object (lower shard ID wins the
// tie deterministically) and the object is demoted — the returned map
// gives the foreign owner per object ID. An unsharded machine returns
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
				for _, claim := range ctx.claims.lookup(fs, frame) {
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
// claims). No-op for an unsharded machine.
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
	ctx.claims.publish(ctx.id, frame, claims)
}

// NewShardedScheduler builds a Scheduler whose one shell hosts one round
// machine per shard of m, over the fleet-wide model and profiles. Each
// machine has its own round barrier, liveness leases, round timeouts,
// Dead broadcast, and degraded-mode story — configured by the same
// Options — so no barrier, association pass, or BALB instance ever spans
// more than the largest shard's cameras. The shards coordinate only
// through the hand-off claims (claimTable): when a tracked object is
// visible from two shards, the lower-ID shard owns it and the higher-ID
// shard demotes its local tracks to shadows of the foreign owner.
//
// Nodes connect exactly as they would to an unsharded Scheduler — same
// protocol, global camera indices — and their hello picks their shard's
// machine. Shard-scoped assignments carry the shard's Roster, and nodes
// build a scoped ownership policy from it. The metrics sink receives
// every shard's round snapshots, demultiplexed by Snapshot.Label
// ("shard0", "shard1", ...). The map must cover exactly the model's
// cameras.
func NewShardedScheduler(model *assoc.Model, profiles []*profile.Profile, minIoU float64, m *shard.Map, opts ...Option) (*Scheduler, error) {
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

	claims := newClaimTable(m.NumShards())
	machines := make([]*machine, m.NumShards())
	for sid, roster := range m.Shards {
		sub, err := model.Subset(roster)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d model: %w", sid, err)
		}
		subProfiles := make([]*profile.Profile, len(roster))
		for i, c := range roster {
			subProfiles[i] = profiles[c]
		}
		mc, err := newMachine(sub, subProfiles, minIoU)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", sid, err)
		}
		mc.shard = &shardCtx{
			id:       sid,
			roster:   roster,
			full:     model,
			label:    fmt.Sprintf("shard%d", sid),
			boundary: make(map[int]bool),
			foreign:  make(map[int][]int),
			shardOf:  m.ShardOf,
			claims:   claims,
		}
		for _, c := range m.BoundaryCameras(sid) {
			mc.shard.boundary[c] = true
		}
		for _, e := range m.Neighbors(sid) {
			// Neighbors yields {A: foreign, B: local} sorted by
			// (foreign, local); regrouping per local camera keeps the
			// foreign lists ascending.
			mc.shard.foreign[e.B] = append(mc.shard.foreign[e.B], e.A)
		}
		machines[sid] = mc
	}
	return newShell(machines, m.ShardOf, opts), nil
}
