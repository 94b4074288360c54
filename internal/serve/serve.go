// Package serve is the multi-tenant consolidated serving layer: M
// independent pipeline engines — one per monitored region ("tenant") —
// share a pool of modeled GPU executors instead of each owning
// per-camera devices. Tenants submit one frame of inspection work per
// epoch through the pipeline.TenantExecutor seam; the pool prices each
// epoch deterministically once every active tenant has submitted:
//
//  1. admission control walks a per-tenant shed ladder (drop 0, ¼, ½ or
//     ¾ of partial tasks, by task index) driven by the previous epoch's
//     priced latency against the tenant's SLO — full-frame inspections
//     are never shed, so recall anchoring survives overload;
//  2. weighted fair queueing orders tenants by accumulated virtual
//     service (busy time over weight), so a light tenant's few tasks
//     are packed and placed ahead of a heavy tenant's backlog;
//  3. batch consolidation packs same-size tasks from *different*
//     tenants into shared batches (gpu.Packer) up to the device's knee
//     batch limit — the Object-Level-Consolidation effect: a batch of n
//     costs base·(1+slope·(n−1)), far less than n singleton launches —
//     while Consolidate=false seals batches at tenant boundaries, the
//     dedicated-slice baseline at identical aggregate capacity;
//  4. placement puts each batch on the executor with the earliest
//     availability; executor backlog carries across epochs, so
//     oversubscription surfaces as queueing delay in the priced
//     latencies, which feed each tenant's own adapt.Controller — the
//     tenants degrade independently under shared-GPU pressure.
//
// Determinism contract (docs/SERVING.md): the priced results are a pure
// function of (pool Config, tenant registration order, and each
// tenant's per-epoch submissions). Goroutine arrival order at the epoch
// barrier never influences pricing — submissions are keyed by tenant
// and the epoch is priced only when the active set is complete — so a
// multi-tenant run is reproducible at every worker count, and a single
// tenant on a NewLocal passthrough is bit-identical to an engine
// running on private executors.
package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"mvs/internal/gpu"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
)

// DefaultPeriod is the epoch length — the modeled frame period shared
// by every tenant — when Config.Period is zero. It matches the 10 fps
// frame cadence the experiments harness models.
const DefaultPeriod = 100 * time.Millisecond

// Config shapes a Pool. Profile is required; zero values elsewhere
// select the documented defaults.
type Config struct {
	// Executors is the number of identical GPU executors in the pool
	// (default 1). Aggregate capacity is Executors × Period of busy time
	// per epoch.
	Executors int
	// Profile is the shared device profile all executors run; batch
	// limits and the latency knee come from it (profile.Derived).
	Profile *profile.Profile
	// Period is the epoch length (default DefaultPeriod). Every active
	// tenant submits exactly one frame per epoch; epoch k starts at
	// virtual time k·Period.
	Period time.Duration
	// Consolidate packs same-size tasks from different tenants into
	// shared batches. False is the dedicated-slice baseline: identical
	// scheduling, but batches seal at tenant boundaries.
	Consolidate bool
	// DefaultSLO is the per-tenant latency objective used when Register
	// is called with slo == 0. A tenant whose resolved SLO is 0 is never
	// shed and never counts violations.
	DefaultSLO time.Duration
}

// maxShedLevel is the admission ladder's deepest rung: level L sheds the
// first L of every 4 partial tasks, so the deepest sheds ¾ of them.
const maxShedLevel = 3

// PoolStats aggregates pool-wide counters across all epochs priced so
// far.
type PoolStats struct {
	// Epochs is the number of epochs priced.
	Epochs int
	// Batches and FullFrames count partial-task batches and full-frame
	// inspections executed; Images counts partial tasks inspected.
	Batches    int
	FullFrames int
	Images     int
	// SharedBatches counts batches containing tasks from ≥ 2 tenants.
	SharedBatches int
	// ShedTasks counts partial tasks dropped by admission control.
	ShedTasks int
	// SLOViolations counts (tenant, epoch) pairs priced over SLO.
	SLOViolations int
	// BusyTime is the summed execution latency across all executors.
	BusyTime time.Duration
	// MeanOccupancy is the mean fill fraction of partial-task batches.
	MeanOccupancy float64
}

// Pool is the shared executor scheduler. Build with NewPool, Register
// every tenant before the first SubmitFrame, then run each tenant's
// engine on its own goroutine (the epoch barrier needs all active
// tenants concurrently runnable — never bound them with a worker pool
// smaller than the tenant count). Pool is safe for concurrent use by
// its tenants.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cfg     Config
	tenants []*Tenant
	started bool
	epoch   int
	avail   []time.Duration // per-executor virtual availability
	stats   PoolStats
	occSum  float64

	// Epoch scratch, guarded by mu and reused by every priceEpoch: the
	// active tenants (registration order) and the same in fair order,
	// the packer, the packer's ObjectID -> member table, and the priced
	// batches with the one member arena they index.
	active     []*Tenant
	order      []*Tenant
	packer     *gpu.Packer
	memberList []member
	batches    []pricedBatch
	members    []member
}

// NewPool validates the config and builds an empty pool.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("serve: nil profile")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod
	}
	packer, err := gpu.NewPacker(cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	p := &Pool{cfg: cfg, avail: make([]time.Duration, cfg.Executors), packer: packer}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// Register adds a tenant to the pool and returns its executor handle
// (a pipeline.TenantExecutor for Config.Serve.Executor). weight scales
// the tenant's fair share (<= 0 means 1; NaN and ±Inf are errors); slo
// is its latency objective (0 falls back to Config.DefaultSLO; negative
// is an error). Registration order is part of the determinism contract,
// and all tenants must register before the first SubmitFrame.
func (p *Pool) Register(id string, weight float64, slo time.Duration) (*Tenant, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil, fmt.Errorf("serve: register %q after serving started", id)
	}
	if id == "" {
		return nil, fmt.Errorf("serve: empty tenant id")
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return nil, fmt.Errorf("serve: tenant %q: weight %v is not finite", id, weight)
	}
	if slo < 0 {
		return nil, fmt.Errorf("serve: tenant %q: negative SLO %v", id, slo)
	}
	for _, t := range p.tenants {
		if t.id == id {
			return nil, fmt.Errorf("serve: duplicate tenant id %q", id)
		}
	}
	if weight <= 0 {
		weight = 1
	}
	if slo == 0 {
		slo = p.cfg.DefaultSLO
	}
	t := &Tenant{pool: p, id: id, index: len(p.tenants), weight: weight, slo: slo}
	p.tenants = append(p.tenants, t)
	return t, nil
}

// Stats returns a copy of the pool-wide counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	if s.Batches > 0 {
		s.MeanOccupancy = p.occSum / float64(s.Batches)
	}
	return s
}

// Tenant is one registered tenant's handle into the pool. It
// implements pipeline.TenantExecutor; wire it through
// pipeline.Config.Serve.Executor and call Finish when the tenant's
// stream ends (serve.Run does both).
type Tenant struct {
	pool   *Pool
	id     string
	index  int
	weight float64
	slo    time.Duration

	// Scheduling state, guarded by pool.mu.
	vtime       float64 // accumulated virtual service: busy seconds / weight
	shedLevel   int
	lastLatency time.Duration
	stats       pipeline.ExecStats

	// Epoch exchange, guarded by pool.mu. reply is the tenant's reply
	// buffer, reused every epoch.
	pending    []pipeline.ExecRequest
	hasPending bool
	finished   bool
	reply      []pipeline.ExecResult
	replyStats pipeline.ExecStats
	replyErr   error
	replyReady bool
}

// SubmitFrame implements pipeline.TenantExecutor: it files the
// tenant's frame into the current epoch and blocks until every active
// tenant has submitted and the epoch is priced. The returned results
// parallel reqs and are the tenant's reply buffer, valid until its next
// SubmitFrame; stats restates the tenant's cumulative counters. The
// pool reads reqs only until the epoch is priced and keeps none of it.
func (t *Tenant) SubmitFrame(frame int, reqs []pipeline.ExecRequest) ([]pipeline.ExecResult, pipeline.ExecStats, error) {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := t.file(reqs); err != nil {
		return nil, pipeline.ExecStats{}, err
	}
	for !t.replyReady {
		p.cond.Wait()
	}
	return t.take()
}

// file enters reqs as the tenant's submission to the current epoch and
// prices the epoch if it was the last one missing. Caller holds pool.mu.
func (t *Tenant) file(reqs []pipeline.ExecRequest) error {
	p := t.pool
	if t.finished {
		return fmt.Errorf("serve: tenant %q: submit after Finish", t.id)
	}
	if t.hasPending || t.replyReady {
		return fmt.Errorf("serve: tenant %q: concurrent SubmitFrame", t.id)
	}
	p.started = true
	t.pending = reqs
	t.hasPending = true
	if p.allSubmitted() {
		p.priceEpoch()
	}
	return nil
}

// take hands over the priced reply and clears the exchange for the next
// epoch. Caller holds pool.mu and has seen replyReady.
func (t *Tenant) take() ([]pipeline.ExecResult, pipeline.ExecStats, error) {
	err := t.replyErr
	t.replyErr, t.replyReady = nil, false
	return t.reply, t.replyStats, err
}

// Finish marks the tenant's stream as ended: it leaves the active set,
// and an epoch waiting only on it is priced immediately. Finish is
// idempotent and must be called (serve.Run defers it) — a tenant that
// exits without finishing deadlocks its peers at the epoch barrier.
func (t *Tenant) Finish() {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.finished {
		return
	}
	t.finished = true
	t.hasPending = false
	t.pending = nil
	if p.allSubmitted() {
		p.priceEpoch()
	}
}

// allSubmitted reports whether at least one tenant is active and every
// active tenant has a pending submission. Caller holds p.mu.
func (p *Pool) allSubmitted() bool {
	any := false
	for _, t := range p.tenants {
		if t.finished {
			continue
		}
		if !t.hasPending {
			return false
		}
		any = true
	}
	return any
}

// member identifies one unit of priced work: request ri of tenant t
// (for partial batches, one entry per admitted task).
type member struct {
	t  *Tenant
	ri int
}

// pricedBatch is one GPU launch scheduled within an epoch: either a
// full-frame inspection (size 0, a single member) or a partial-task
// batch. Its members are Pool.members[lo:hi].
type pricedBatch struct {
	size     int // 0 marks a full-frame inspection
	dur      time.Duration
	complete time.Duration // absolute virtual completion time
	lo, hi   int
}

// priceEpoch prices the current epoch: admission, fair-queue ordering,
// batch packing, executor placement, and result attribution, entirely
// from registration order and the pending submissions. Caller holds
// p.mu; replies are published and the barrier broadcast before return.
// Everything it builds lives in the pool's epoch scratch and the
// tenants' reply buffers, so a warm pool prices an epoch without
// allocating.
func (p *Pool) priceEpoch() {
	prof := p.cfg.Profile
	epochStart := time.Duration(p.epoch) * p.cfg.Period

	p.active = p.active[:0]
	for _, t := range p.tenants {
		if !t.finished && t.hasPending {
			p.active = append(p.active, t)
		}
	}
	active := p.active

	// Admission ladder: react to the previous epoch's priced latency.
	// The recovery edge sits at 70% of the SLO (hysteresis, mirroring
	// adapt.Policy.LowerFrac) so the ladder doesn't flap.
	for _, t := range active {
		if t.slo <= 0 {
			continue
		}
		if t.lastLatency > t.slo && t.shedLevel < maxShedLevel {
			t.shedLevel++
		} else if t.shedLevel > 0 && t.lastLatency*10 <= t.slo*7 {
			t.shedLevel--
		}
	}

	// Weighted fair queueing: serve tenants in ascending accumulated
	// virtual service, ties by registration order.
	p.order = append(p.order[:0], active...)
	slices.SortStableFunc(p.order, func(a, b *Tenant) int {
		return cmp.Or(cmp.Compare(a.vtime, b.vtime), cmp.Compare(a.index, b.index))
	})

	// Pack: full frames are unsharable single launches; partial tasks
	// flow through the pool's gpu.Packer in fair order — flushed at every
	// tenant boundary unless consolidating — with ObjectID indexing the
	// member list so sealed batches map back to (tenant, request). The
	// packer's batches are lent, so seal copies their members out.
	p.batches, p.members, p.memberList = p.batches[:0], p.members[:0], p.memberList[:0]
	var packErr error
	for _, t := range p.order {
		t.reply = slices.Grow(t.reply[:0], len(t.pending))[:len(t.pending)]
		clear(t.reply)
		for ri, req := range t.pending {
			if req.Full {
				p.members = append(p.members, member{t, ri})
				p.batches = append(p.batches, pricedBatch{
					dur: profile.TrueFullFrameLatency(prof.Class),
					lo:  len(p.members) - 1,
					hi:  len(p.members),
				})
				continue
			}
			for ti, task := range req.Tasks {
				// Deterministic shed rule: level L drops tasks whose
				// index falls in the first L of every 4 slots.
				if t.shedLevel > 0 && ti%4 < t.shedLevel {
					t.reply[ri].Shed++
					t.stats.ShedTasks++
					p.stats.ShedTasks++
					continue
				}
				idx := len(p.memberList)
				p.memberList = append(p.memberList, member{t, ri})
				sealed, full, err := p.packer.Add(gpu.Task{ObjectID: idx, Size: task.Size})
				if err != nil && packErr == nil {
					packErr = fmt.Errorf("serve: tenant %q camera %d: %w", t.id, req.Cam, err)
				}
				if full {
					p.seal(sealed)
				}
			}
		}
		if !p.cfg.Consolidate {
			p.flush()
		}
	}
	p.flush()
	if packErr != nil {
		for _, t := range active {
			t.replyErr = packErr
			t.hasPending = false
			t.pending = nil
			t.replyReady = true
		}
		p.epoch++
		p.cond.Broadcast()
		return
	}

	// Place every batch on the executor with the earliest availability
	// (ties to the lowest index). Backlog carries across epochs: a batch
	// starts no earlier than the epoch itself, but a busy executor
	// pushes it — and the tenant latencies it feeds — later.
	for bi := range p.batches {
		b := &p.batches[bi]
		e := 0
		for k := 1; k < len(p.avail); k++ {
			if p.avail[k] < p.avail[e] {
				e = k
			}
		}
		start := p.avail[e]
		if start < epochStart {
			start = epochStart
		}
		b.complete = start + b.dur
		p.avail[e] = b.complete
		p.stats.BusyTime += b.dur
	}

	// Attribute each batch to the requests it served. Per-request
	// occupancy temporarily accumulates the fill-fraction sum; it is
	// normalized by the batch count below.
	for _, b := range p.batches {
		rel := b.complete - epochStart
		members := p.members[b.lo:b.hi]
		if b.size == 0 {
			m := members[0]
			r := &m.t.reply[m.ri]
			if rel > r.Latency {
				r.Latency = rel
			}
			m.t.vtime += b.dur.Seconds() / m.t.weight
			p.stats.FullFrames++
			continue
		}
		limit, err := prof.BatchLimitFor(b.size)
		if err != nil || limit <= 0 {
			continue // unreachable: the packer validated the size
		}
		fill := float64(len(members)) / float64(limit)
		p.stats.Batches++
		p.stats.Images += len(members)
		p.occSum += fill
		// Members arrive grouped by tenant in fair order, then by
		// request, so each request and each tenant is one run: one
		// update per run is the same arithmetic as one per distinct key.
		shared := members[0].t != members[len(members)-1].t
		for i := 0; i < len(members); {
			m, n := members[i], 1
			for i+n < len(members) && members[i+n] == m {
				n++
			}
			r := &m.t.reply[m.ri]
			if rel > r.Latency {
				r.Latency = rel
			}
			r.Batches++
			r.Images += n
			r.Occupancy += fill
			i += n
		}
		for i := 0; i < len(members); {
			t, n := members[i].t, 1
			for i+n < len(members) && members[i+n].t == t {
				n++
			}
			t.vtime += b.dur.Seconds() * float64(n) / float64(len(members)) / t.weight
			if shared {
				t.stats.SharedBatches++
			}
			i += n
		}
		if shared {
			p.stats.SharedBatches++
		}
	}

	// Queue depth: launches still executing past the end of this epoch.
	queue := 0
	for _, b := range p.batches {
		if b.complete > epochStart+p.cfg.Period {
			queue++
		}
	}

	// Publish replies: per-tenant epoch latency (slowest camera), SLO
	// accounting, occupancy normalization, and the cumulative counters.
	p.stats.Epochs++
	for _, t := range active {
		var lat time.Duration
		for ri := range t.reply {
			r := &t.reply[ri]
			if r.Batches > 0 {
				r.Occupancy /= float64(r.Batches)
			}
			if r.Latency > lat {
				lat = r.Latency
			}
		}
		t.lastLatency = lat
		if t.slo > 0 && lat > t.slo {
			t.stats.SLOViolations++
			p.stats.SLOViolations++
		}
		t.stats.QueueDepth = queue
		t.replyStats = t.stats
		t.hasPending = false
		t.pending = nil
		t.replyReady = true
	}
	p.epoch++
	p.cond.Broadcast()
}

// seal prices one packed batch and copies its members out of the
// packer's lent storage into the epoch's member arena.
func (p *Pool) seal(b gpu.Batch) {
	lo := len(p.members)
	for _, task := range b.Tasks {
		p.members = append(p.members, p.memberList[task.ObjectID])
	}
	p.batches = append(p.batches, pricedBatch{
		size: b.Size,
		dur:  profile.TrueBatchLatency(p.cfg.Profile.Class, b.Size, len(b.Tasks)),
		lo:   lo,
		hi:   len(p.members),
	})
}

// flush seals every group the packer still holds open.
func (p *Pool) flush() {
	for _, b := range p.packer.Flush() {
		p.seal(b)
	}
}
