package serve

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"mvs/internal/gpu"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
)

// The reference implementation of the pool's epoch pricing: the
// allocating priceEpoch the reused-scratch form replaced — fresh active
// and order lists, one map-based packer shared or one per tenant, and
// two maps per batch for attribution — kept verbatim (identifiers
// prefixed with "oracle") with the map-based gpu.Packer it ran on, so
// the port can be held to it epoch by epoch. Do not optimise this file;
// it is the specification.

// oraclePool is the reference pool's scheduling state.
type oraclePool struct {
	cfg     Config
	tenants []*oracleTenant
	epoch   int
	avail   []time.Duration
	stats   PoolStats
	occSum  float64
}

// oracleTenant is the reference tenant's scheduling state and epoch
// exchange.
type oracleTenant struct {
	id     string
	index  int
	weight float64
	slo    time.Duration

	vtime       float64
	shedLevel   int
	lastLatency time.Duration
	stats       pipeline.ExecStats

	pending    []pipeline.ExecRequest
	hasPending bool
	finished   bool
	reply      []pipeline.ExecResult
	replyStats pipeline.ExecStats
	replyErr   error
	replyReady bool
}

func newOraclePool(cfg Config) *oraclePool {
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod
	}
	return &oraclePool{cfg: cfg, avail: make([]time.Duration, cfg.Executors)}
}

// register is the reference Register's bookkeeping, for arguments the
// pool accepted.
func (p *oraclePool) register(id string, weight float64, slo time.Duration) *oracleTenant {
	if weight <= 0 {
		weight = 1
	}
	if slo == 0 {
		slo = p.cfg.DefaultSLO
	}
	t := &oracleTenant{id: id, index: len(p.tenants), weight: weight, slo: slo}
	p.tenants = append(p.tenants, t)
	return t
}

func (p *oraclePool) statsCopy() PoolStats {
	s := p.stats
	if s.Batches > 0 {
		s.MeanOccupancy = p.occSum / float64(s.Batches)
	}
	return s
}

func (t *oracleTenant) finish() {
	t.finished = true
	t.hasPending = false
	t.pending = nil
}

// take is the reference SubmitFrame's reply hand-off.
func (t *oracleTenant) take() ([]pipeline.ExecResult, pipeline.ExecStats, error) {
	reply, stats, err := t.reply, t.replyStats, t.replyErr
	t.reply, t.replyErr, t.replyReady = nil, nil, false
	return reply, stats, err
}

// oracleMember identifies one unit of priced work.
type oracleMember struct {
	t  *oracleTenant
	ri int
}

// oraclePricedBatch is one GPU launch scheduled within an epoch.
type oraclePricedBatch struct {
	size     int
	dur      time.Duration
	complete time.Duration
	members  []oracleMember
}

// oraclePriceEpoch is the reference priceEpoch.
func (p *oraclePool) oraclePriceEpoch() {
	prof := p.cfg.Profile
	epochStart := time.Duration(p.epoch) * p.cfg.Period

	active := make([]*oracleTenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		if !t.finished && t.hasPending {
			active = append(active, t)
		}
	}

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

	order := append([]*oracleTenant(nil), active...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].vtime != order[j].vtime {
			return order[i].vtime < order[j].vtime
		}
		return order[i].index < order[j].index
	})

	var (
		batches    []oraclePricedBatch
		memberList []oracleMember
		packErr    error
	)
	seal := func(b gpu.Batch) {
		pb := oraclePricedBatch{
			size:    b.Size,
			dur:     profile.TrueBatchLatency(prof.Class, b.Size, len(b.Tasks)),
			members: make([]oracleMember, len(b.Tasks)),
		}
		for i, task := range b.Tasks {
			pb.members[i] = memberList[task.ObjectID]
		}
		batches = append(batches, pb)
	}
	var shared *oraclePacker
	if p.cfg.Consolidate {
		shared, _ = newOraclePacker(prof)
	}
	for _, t := range order {
		t.reply = make([]pipeline.ExecResult, len(t.pending))
		pk := shared
		if pk == nil {
			pk, _ = newOraclePacker(prof)
		}
		for ri, req := range t.pending {
			if req.Full {
				batches = append(batches, oraclePricedBatch{
					dur:     profile.TrueFullFrameLatency(prof.Class),
					members: []oracleMember{{t, ri}},
				})
				continue
			}
			for ti, task := range req.Tasks {
				if t.shedLevel > 0 && ti%4 < t.shedLevel {
					t.reply[ri].Shed++
					t.stats.ShedTasks++
					p.stats.ShedTasks++
					continue
				}
				idx := len(memberList)
				memberList = append(memberList, oracleMember{t, ri})
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
		return
	}

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
			continue
		}
		fill := float64(len(b.members)) / float64(limit)
		p.stats.Batches++
		p.stats.Images += len(b.members)
		p.occSum += fill
		perReq := make(map[oracleMember]int, len(b.members))
		perTenant := make(map[*oracleTenant]int, 2)
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

	queue := 0
	for _, b := range batches {
		if b.complete > epochStart+p.cfg.Period {
			queue++
		}
	}

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
}

// oraclePacker is the reference gpu.Packer: one map entry per open size
// group, regrown on every Add, a fresh map on every Flush.
type oraclePacker struct {
	prof *profile.Profile
	open map[int][]gpu.Task
}

func newOraclePacker(prof *profile.Profile) (*oraclePacker, error) {
	if prof == nil {
		return nil, fmt.Errorf("gpu: nil profile")
	}
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	return &oraclePacker{prof: prof, open: make(map[int][]gpu.Task)}, nil
}

func (p *oraclePacker) Add(t gpu.Task) (gpu.Batch, bool, error) {
	limit, err := p.prof.BatchLimitFor(t.Size)
	if err != nil {
		return gpu.Batch{}, false, fmt.Errorf("gpu: task for object %d: %w", t.ObjectID, err)
	}
	group := append(p.open[t.Size], t)
	if len(group) >= limit {
		delete(p.open, t.Size)
		return gpu.Batch{Size: t.Size, Tasks: group}, true, nil
	}
	p.open[t.Size] = group
	return gpu.Batch{}, false, nil
}

func (p *oraclePacker) Flush() []gpu.Batch {
	if len(p.open) == 0 {
		return nil
	}
	sizes := make([]int, 0, len(p.open))
	for s := range p.open {
		sizes = append(sizes, s)
	}
	slices.Sort(sizes)
	batches := make([]gpu.Batch, 0, len(sizes))
	for _, s := range sizes {
		batches = append(batches, gpu.Batch{Size: s, Tasks: p.open[s]})
	}
	p.open = make(map[int][]gpu.Task)
	return batches
}
