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
	"fmt"
	"sort"
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
	p := &Pool{cfg: cfg, avail: make([]time.Duration, cfg.Executors)}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// Register adds a tenant to the pool and returns its executor handle
// (a pipeline.TenantExecutor for Config.Serve.Executor). weight scales
// the tenant's fair share (<= 0 means 1); slo is its latency objective
// (0 falls back to Config.DefaultSLO). Registration order is part of
// the determinism contract, and all tenants must register before the
// first SubmitFrame.
func (p *Pool) Register(id string, weight float64, slo time.Duration) (*Tenant, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil, fmt.Errorf("serve: register %q after serving started", id)
	}
	if id == "" {
		return nil, fmt.Errorf("serve: empty tenant id")
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

	// Epoch exchange, guarded by pool.mu.
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
// parallel reqs; stats restates the tenant's cumulative counters.
func (t *Tenant) SubmitFrame(frame int, reqs []pipeline.ExecRequest) ([]pipeline.ExecResult, pipeline.ExecStats, error) {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.finished {
		return nil, pipeline.ExecStats{}, fmt.Errorf("serve: tenant %q: submit after Finish", t.id)
	}
	if t.hasPending || t.replyReady {
		return nil, pipeline.ExecStats{}, fmt.Errorf("serve: tenant %q: concurrent SubmitFrame", t.id)
	}
	p.started = true
	t.pending = reqs
	t.hasPending = true
	if p.allSubmitted() {
		p.priceEpoch()
	}
	for !t.replyReady {
		p.cond.Wait()
	}
	reply, stats, err := t.reply, t.replyStats, t.replyErr
	t.reply, t.replyErr, t.replyReady = nil, nil, false
	return reply, stats, err
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
// batch.
type pricedBatch struct {
	size     int // 0 marks a full-frame inspection
	dur      time.Duration
	complete time.Duration // absolute virtual completion time
	members  []member
}

// priceEpoch prices the current epoch: admission, fair-queue ordering,
// batch packing, executor placement, and result attribution, entirely
// from registration order and the pending submissions. Caller holds
// p.mu; replies are published and the barrier broadcast before return.
func (p *Pool) priceEpoch() {
	prof := p.cfg.Profile
	epochStart := time.Duration(p.epoch) * p.cfg.Period

	active := make([]*Tenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		if !t.finished && t.hasPending {
			active = append(active, t)
		}
	}

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
	order := append([]*Tenant(nil), active...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].vtime != order[j].vtime {
			return order[i].vtime < order[j].vtime
		}
		return order[i].index < order[j].index
	})

	// Pack: full frames are unsharable single launches; partial tasks
	// flow through a gpu.Packer — one shared across tenants when
	// consolidating, one per tenant otherwise — with ObjectID indexing
	// the member list so sealed batches map back to (tenant, request).
	var (
		batches    []pricedBatch
		memberList []member
		packErr    error
	)
	seal := func(b gpu.Batch) {
		pb := pricedBatch{
			size:    b.Size,
			dur:     profile.TrueBatchLatency(prof.Class, b.Size, len(b.Tasks)),
			members: make([]member, len(b.Tasks)),
		}
		for i, task := range b.Tasks {
			pb.members[i] = memberList[task.ObjectID]
		}
		batches = append(batches, pb)
	}
	var shared *gpu.Packer
	if p.cfg.Consolidate {
		shared, _ = gpu.NewPacker(prof) // profile validated in NewPool
	}
	for _, t := range order {
		t.reply = make([]pipeline.ExecResult, len(t.pending))
		pk := shared
		if pk == nil {
			pk, _ = gpu.NewPacker(prof)
		}
		for ri, req := range t.pending {
			if req.Full {
				batches = append(batches, pricedBatch{
					dur:     profile.TrueFullFrameLatency(prof.Class),
					members: []member{{t, ri}},
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
				idx := len(memberList)
				memberList = append(memberList, member{t, ri})
				sealed, full, err := pk.Add(gpu.Task{ObjectID: idx, Size: task.Size})
				if err != nil && packErr == nil {
					packErr = fmt.Errorf("serve: tenant %q camera %d: %w", t.id, req.Cam, err)
				}
				if full {
					seal(sealed)
				}
			}
		}
		if pk != shared {
			for _, b := range pk.Flush() {
				seal(b)
			}
		}
	}
	if shared != nil {
		for _, b := range shared.Flush() {
			seal(b)
		}
	}
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
	for bi := range batches {
		b := &batches[bi]
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
	for _, b := range batches {
		rel := b.complete - epochStart
		if b.size == 0 {
			m := b.members[0]
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
		fill := float64(len(b.members)) / float64(limit)
		p.stats.Batches++
		p.stats.Images += len(b.members)
		p.occSum += fill
		perReq := make(map[member]int, len(b.members))
		perTenant := make(map[*Tenant]int, 2)
		for _, m := range b.members {
			perReq[m]++
			perTenant[m.t]++
		}
		for m, n := range perReq {
			r := &m.t.reply[m.ri]
			if rel > r.Latency {
				r.Latency = rel
			}
			r.Batches++
			r.Images += n
			r.Occupancy += fill
		}
		for t, n := range perTenant {
			t.vtime += b.dur.Seconds() * float64(n) / float64(len(b.members)) / t.weight
			if len(perTenant) >= 2 {
				t.stats.SharedBatches++
			}
		}
		if len(perTenant) >= 2 {
			p.stats.SharedBatches++
		}
	}

	// Queue depth: launches still executing past the end of this epoch.
	queue := 0
	for _, b := range batches {
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
