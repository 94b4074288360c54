package core

import (
	"math/rand"
	"testing"
)

func TestNewScopedPolicyRoster(t *testing.T) {
	// Roster {5, 2, 7}: camera 5 highest priority.
	p, err := NewScopedPolicy([]int{5, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := p.Owner([]int{2, 5, 7}); !ok || owner != 5 {
		t.Fatalf("Owner = %d,%v want 5,true", owner, ok)
	}
	// Non-roster cameras (0, 3) and out-of-range (9) are skipped.
	if owner, ok := p.Owner([]int{0, 3, 9, 7}); !ok || owner != 7 {
		t.Fatalf("Owner = %d,%v want 7,true", owner, ok)
	}
	if _, ok := p.Owner([]int{0, 3}); ok {
		t.Fatal("cover with only non-roster cameras must orphan")
	}
	// Dead failover stays inside the roster.
	mask := make([]bool, 8)
	mask[5] = true
	p.SetDead(mask)
	if owner, ok := p.Owner([]int{2, 5, 7}); !ok || owner != 2 {
		t.Fatalf("after dead 5: Owner = %d,%v want 2,true", owner, ok)
	}
	if !p.Dead(5) || p.Dead(2) {
		t.Fatal("Dead mask wrong")
	}
}

func TestNewScopedPolicyRejects(t *testing.T) {
	if _, err := NewScopedPolicy(nil); err != ErrEmptyPriority {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := NewScopedPolicy([]int{1, -2}); err == nil {
		t.Fatal("negative entry must fail")
	}
	if _, err := NewScopedPolicy([]int{3, 3}); err == nil {
		t.Fatal("duplicate entry must fail")
	}
}

// perShardReference states sharded ownership the long way, as the
// reference the one policy type is held to: one scoped policy per shard,
// the owning shard being the lowest-id shard with a live camera in the
// cover. A sharded engine builds a DistributedPolicy over the shard
// priorities concatenated in shard order (pipeline.centralStage); the
// tests below hold the two equal.
type perShardReference struct {
	shardOf []int
	shards  []*DistributedPolicy
}

func newPerShardReference(t *testing.T, shardOf []int, priorities [][]int) *perShardReference {
	t.Helper()
	p := &perShardReference{shardOf: shardOf}
	for _, prio := range priorities {
		sp, err := NewScopedPolicy(prio)
		if err != nil {
			t.Fatal(err)
		}
		p.shards = append(p.shards, sp)
	}
	return p
}

// Owner picks the owning shard, then that shard's scoped owner.
func (p *perShardReference) Owner(cover []int) (int, bool) {
	owning := -1
	for _, c := range cover {
		if c < 0 || c >= len(p.shardOf) {
			continue
		}
		s := p.shardOf[c]
		if p.shards[s].Dead(c) {
			continue
		}
		if owning == -1 || s < owning {
			owning = s
		}
	}
	if owning < 0 {
		return 0, false
	}
	return p.shards[owning].Owner(cover)
}

func (p *perShardReference) ShouldTrack(cam int, cover []int) bool {
	owner, ok := p.Owner(cover)
	return ok && owner == cam
}

func (p *perShardReference) Dead(cam int) bool {
	if cam < 0 || cam >= len(p.shardOf) {
		return false
	}
	return p.shards[p.shardOf[cam]].Dead(cam)
}

func (p *perShardReference) SetDead(dead []bool) {
	for _, sp := range p.shards {
		sp.SetDead(dead)
	}
}

// concatPolicy builds the policy a sharded engine runs: one global order,
// the shard priorities end to end in shard order.
func concatPolicy(t *testing.T, priorities [][]int) *DistributedPolicy {
	t.Helper()
	var order []int
	for _, prio := range priorities {
		order = append(order, prio...)
	}
	p, err := NewDistributedPolicy(order)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcatenatedPolicyMatchesPerShardReference holds Owner, ShouldTrack
// and Dead of the concatenated policy equal to the per-shard reference on
// generated fleets: 2–12 cameras, random shard maps and per-shard
// priority orders, random dead masks (all-dead and over-long ones
// included), and random cover sets with out-of-range ids, duplicates and
// all-dead covers.
func TestConcatenatedPolicyMatchesPerShardReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(11)
		numShards := 1 + rng.Intn(n)
		// Every shard gets one camera, the rest land anywhere.
		shardOf := make([]int, n)
		for i, c := range rng.Perm(n) {
			if i < numShards {
				shardOf[c] = i
			} else {
				shardOf[c] = rng.Intn(numShards)
			}
		}
		priorities := make([][]int, numShards)
		for _, c := range rng.Perm(n) {
			priorities[shardOf[c]] = append(priorities[shardOf[c]], c)
		}
		ref := newPerShardReference(t, shardOf, priorities)
		got := concatPolicy(t, priorities)

		for round := 0; round < 4; round++ {
			var dead []bool
			switch rng.Intn(4) {
			case 0: // none dead
			case 1: // all dead
				dead = make([]bool, n)
				for i := range dead {
					dead[i] = true
				}
			default:
				dead = make([]bool, n+rng.Intn(3))
				for i := range dead {
					dead[i] = rng.Intn(3) == 0
				}
			}
			ref.SetDead(dead)
			got.SetDead(dead)
			for cam := -2; cam < n+2; cam++ {
				if ref.Dead(cam) != got.Dead(cam) {
					t.Fatalf("trial %d: Dead(%d) = %v, reference %v (shardOf %v, dead %v)",
						trial, cam, got.Dead(cam), ref.Dead(cam), shardOf, dead)
				}
			}
			for q := 0; q < 20; q++ {
				cover := make([]int, rng.Intn(6))
				for i := range cover {
					cover[i] = rng.Intn(n+4) - 2 // -2..n+1: out-of-range at both ends
				}
				if q%5 == 0 {
					// A cover of dead cameras only, when there are any.
					cover = cover[:0]
					for c, d := range dead {
						if d && c < n {
							cover = append(cover, c)
						}
					}
				}
				wantOwner, wantOK := ref.Owner(cover)
				gotOwner, gotOK := got.Owner(cover)
				if wantOwner != gotOwner || wantOK != gotOK {
					t.Fatalf("trial %d: Owner(%v) = %d,%v, reference %d,%v (shardOf %v, priorities %v, dead %v)",
						trial, cover, gotOwner, gotOK, wantOwner, wantOK, shardOf, priorities, dead)
				}
				for cam := -1; cam <= n; cam++ {
					if ref.ShouldTrack(cam, cover) != got.ShouldTrack(cam, cover) {
						t.Fatalf("trial %d: ShouldTrack(%d, %v) = %v, reference %v",
							trial, cam, cover, got.ShouldTrack(cam, cover), ref.ShouldTrack(cam, cover))
					}
				}
			}
		}
	}
}

// shardedFixture: 6 cameras, shards {0,1,2} and {3,4,5}, priorities
// 2>0>1 and 4>5>3, as the engine composes them: 2>0>1>4>5>3.
func shardedFixture(t *testing.T) *DistributedPolicy {
	t.Helper()
	return concatPolicy(t, [][]int{{2, 0, 1}, {4, 5, 3}})
}

func TestShardedPolicySingleShardCover(t *testing.T) {
	p := shardedFixture(t)
	// Cover inside shard 0: that shard's order decides.
	if owner, ok := p.Owner([]int{0, 1}); !ok || owner != 0 {
		t.Fatalf("Owner = %d,%v want 0,true", owner, ok)
	}
	// Cover inside shard 1.
	if owner, ok := p.Owner([]int{3, 5}); !ok || owner != 5 {
		t.Fatalf("Owner = %d,%v want 5,true", owner, ok)
	}
	if !p.ShouldTrack(5, []int{3, 5}) || p.ShouldTrack(3, []int{3, 5}) {
		t.Fatal("ShouldTrack disagrees with Owner")
	}
}

func TestShardedPolicyBoundaryLowerShardOwns(t *testing.T) {
	p := shardedFixture(t)
	// Straddling cover {1, 4}: shard 0 is the lowest covering shard, so
	// its camera 1 wins even though camera 4 tops shard 1's priority.
	if owner, ok := p.Owner([]int{1, 4}); !ok || owner != 1 {
		t.Fatalf("Owner = %d,%v want 1,true", owner, ok)
	}
}

func TestShardedPolicyDeadFailover(t *testing.T) {
	p := shardedFixture(t)
	mask := make([]bool, 6)
	mask[1] = true
	p.SetDead(mask)
	if !p.Dead(1) || p.Dead(4) {
		t.Fatal("Dead mask wrong")
	}
	// Shard 0's only covering camera is dead: ownership falls through
	// to shard 1 — cross-shard failover at the boundary.
	if owner, ok := p.Owner([]int{1, 4}); !ok || owner != 4 {
		t.Fatalf("Owner = %d,%v want 4,true", owner, ok)
	}
	// Everything covering dead: orphaned.
	if _, ok := p.Owner([]int{1}); ok {
		t.Fatal("all-dead cover must orphan")
	}
	p.SetDead(nil)
	if owner, ok := p.Owner([]int{1, 4}); !ok || owner != 1 {
		t.Fatalf("after clear: Owner = %d,%v want 1,true", owner, ok)
	}
}

func TestShardedPolicyMatchesGlobalRestriction(t *testing.T) {
	// With shard priorities that are restrictions of one global order,
	// single-shard covers must decide identically under both orders.
	global, err := NewDistributedPolicy([]int{2, 4, 0, 5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded := shardedFixture(t) // restrictions: {2,0,1}, {4,5,3}
	covers := [][]int{{0}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}, {3}, {3, 4}, {4, 5}, {3, 5}, {3, 4, 5}}
	for _, cover := range covers {
		go1, ok1 := global.Owner(cover)
		go2, ok2 := sharded.Owner(cover)
		if go1 != go2 || ok1 != ok2 {
			t.Fatalf("cover %v: global %d,%v sharded %d,%v", cover, go1, ok1, go2, ok2)
		}
	}
}
