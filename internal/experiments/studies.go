package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/core"
	"mvs/internal/geom"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/scene"
	"mvs/internal/serve"
	"mvs/internal/shard"
	"mvs/internal/workload"
)

// Studies lists every study in the order mvexp prints them: the paper's
// eight, then the eight extensions.
func Studies() []*Study {
	return []*Study{
		{
			Name: "table1", Title: "Table I: hardware configuration per scenario", Paper: true, plan: table1,
			Columns: []Column{{"scenario", 0}, {"camera", 0}, {"device", 0}},
			Expect:  "identical to the paper's Table I by construction",
		},
		{
			Name: "fig2", Title: "Fig 2: per-camera object workload, sampled every 2 s", Paper: true, plan: fig2,
			Columns: []Column{{"scenario", 0}, {"camera", 0}, {"mean", 1}, {"min", 0}, {"max", 0}, {"series", 0}},
			Expect:  "large temporal variation, phase-shifted across cameras",
		},
		{
			Name: "fig10", Title: "Fig 10: association classifier comparison", Paper: true, plan: fig10,
			Columns: []Column{{"scenario", 0}, {"model", 0}, {"precision", 4}, {"recall", 4}},
			Expect:  "KNN best or near-best precision (precision > recall in importance)",
		},
		{
			Name: "fig11", Title: "Fig 11: association regressor comparison (MAE, px)", Paper: true, plan: fig11,
			Columns: []Column{{"scenario", 0}, {"model", 0}, {"mae_px", 2}},
			Expect:  "KNN lowest, homography clearly worst",
		},
		{
			Name: "fig12", Title: "Fig 12: object recall per algorithm", Paper: true, plan: fig12,
			Columns: []Column{{"scenario", 0}, {"algorithm", 0}, {"recall", 4}, {"tp", 0}, {"fn", 0}},
			Expect:  "Full ~= BALB-Ind >= BALB > BALB-Cen; SP hurt most by association errors",
		},
		{
			Name: "fig13", Title: "Fig 13: per-frame inference latency (slowest camera)", Paper: true, plan: fig13,
			Columns: []Column{{"scenario", 0}, {"algorithm", 0}, {"latency_us", 0}, {"speedup_vs_full", 3}},
			Expect:  "BALB fastest; speedup largest in S1/S2, smallest in S3; BALB beats SP",
		},
		{
			Name: "table2", Title: "Table II: per-frame framework overhead (BALB)", Paper: true, plan: table2,
			Columns: []Column{{"scenario", 0}, {"central_us", 0}, {"tracking_us", 0}, {"distributed_us", 0}, {"batching_us", 0}, {"total_us", 0}},
			Expect:  "total overhead well below the GPU time the scheduler saves",
		},
		{
			Name: "fig14", Title: "Fig 14: scheduling-horizon length sweep (BALB)", Paper: true, plan: fig14,
			scenarios: []string{"S1"},
			Columns:   []Column{{"horizon", 0}, {"balb_recall", 4}, {"cen_recall", 4}, {"latency_us", 0}},
			Expect:    "longer horizons faster but lower recall (sharply so without the distributed stage); T=10 a good tradeoff",
		},
		{
			Name: "sweep", Title: "Arrival-rate sweep: distributed-stage contribution vs churn", plan: arrivalSweep,
			Columns: []Column{{"scenario", 0}, {"rate_scale", 1}, {"balb_recall", 4}, {"cen_recall", 4}, {"gap", 4}, {"latency_us", 0}},
			Expect: "a persistent, roughly rate-invariant BALB-over-Cen recall gap: the share of object-frames " +
				"'arrived since the last key frame' is ~(T/2)/lifetime whatever the rate, so the gap grows " +
				"with horizon length instead (Fig 14's cen_recall column)",
		},
		{
			Name: "occlusion", Title: "Occlusion study: redundancy-2 vs single-tracker BALB", plan: occlusion,
			Columns: []Column{{"scenario", 0}, {"redundancy", 0}, {"recall", 4}, {"latency_us", 0}},
			Expect:  "redundancy recovers occlusion-lost recall at a bounded latency cost (the paper's §V occlusion-hedging proposal)",
		},
		{
			Name: "chaos", Title: "Chaos sweep: BALB under camera outages, failover vs off", plan: chaos,
			Columns: []Column{{"scenario", 0}, {"rate", 3}, {"outage_frames", 0}, {"failover_recall", 4}, {"nofailover_recall", 4},
				{"failover_p99_us", 0}, {"nofailover_p99_us", 0}, {"reassignments", 0}, {"orphaned", 0}},
			Expect: "failover recall above the off arm at every rate; both arms degrade gracefully (recall falls with outage rate, no cliff)",
		},
		shardStudy(64),
		{
			Name: "shed", Title: "Shed sweep: recall and P99 latency vs offered load per admission policy", plan: shedSweep,
			Columns: []Column{{"policy", 0}, {"load", 0}, {"offered_parts", 0}, {"survived_parts", 0}, {"shed_parts", 0}, {"recall", 4}, {"p99_us", 0}},
			Expect: "at load 1x nothing sheds and every policy matches the offline run; past the queue bound shed grows " +
				"with load while recall on surviving frames holds — the policies differ in which frames survive",
		},
		{
			Name: "adapt", Title: "Adapt sweep: degradation control loop vs shed-only under offered load", plan: adaptSweep,
			scenarios: []string{"S4"},
			Columns: []Column{{"scenario", 0}, {"load", 0}, {"on_eff_recall", 4}, {"off_eff_recall", 4}, {"on_recall", 4}, {"off_recall", 4},
				{"on_frames", 0}, {"off_frames", 0}, {"on_p99_us", 0}, {"off_p99_us", 0}, {"on_shed", 0}, {"off_shed", 0},
				{"final_level", 0}, {"transitions", 0}, {"slo_violations", 0}},
			Expect: "at load 1x the arms are identical (the controller never engages); under overload the ladder outruns " +
				"the offered load — fewer shed frames, higher effective recall than shed-only — with P99 inside the SLO",
		},
		{
			Name: "tenants", Title: "Tenant sweep: consolidated vs dedicated serving, shared 4-executor pool", plan: tenantSweep,
			scenarios: []string{"S1"},
			Columns: []Column{{"scenario", 0}, {"tenants", 0}, {"con_p99_us", 0}, {"ded_p99_us", 0}, {"con_slo_viol", 0}, {"ded_slo_viol", 0},
				{"con_shed", 0}, {"ded_shed", 0}, {"shared_batches", 0}, {"con_occupancy", 3}, {"ded_occupancy", 3},
				{"con_img_per_s", 1}, {"ded_img_per_s", 1}},
			Expect: "consolidation packs cross-tenant work into fuller batches, so at every tenant count its worst per-tenant " +
				"P99 and SLO violations sit at or below the dedicated baseline's, decisively so once the dedicated slices " +
				"saturate (docs/SERVING.md)",
		},
		{
			Name: "ablation", Title: "Ablations: BALB against the optimum, without batching, and on a mixed fleet", plan: ablation,
			scenarios: []string{"synthetic"}, pinned: true,
			Columns: []Column{{"ablation", 0}, {"arm", 0}, {"metric", 0}, {"value", 3}},
			Expect: "BALB equals the brute-force optimum on every small instance (worst ratio 1.000); without " +
				"batching the max latency holds but GPU busy time inflates more than 10x; on the Nano/TX2/Xavier " +
				"fleet BALB puts every shared object on the Xavier, so its Nano latency sits below SP's and BALB-Ind's",
		},
	}
}

// shardStudy is the shard-count sweep on a cams-camera corridor (mvexp:
// 64; TestShardSweepSmall: 8).
func shardStudy(cams int) *Study {
	return &Study{
		Name: "shard", Title: "Shard sweep: global vs sharded central-round cost on a camera corridor", plan: shardSweep,
		scenarios: []string{fmt.Sprintf("C%d", cams)}, pinned: true,
		Columns: []Column{{"max_shard", 0}, {"shards", 0}, {"central_us_per_frame", 0}, {"recall", 4}, {"latency_us", 0}},
		Expect: "central cost flat across shard counts (regressor-less pairs are skipped, so a sparse corridor's global " +
			"round is already cheap) and recall holds; what shards bound is the round barrier's scope, and pair work " +
			"on dense coverage graphs",
	}
}

// table1 lists the scenario's hardware roster, one camera per row.
func table1(p *plan) error {
	s, err := workload.ByName(p.scenario, p.Seed)
	if err != nil {
		return err
	}
	for i, c := range s.World.Cameras {
		p.row(s.Name, c.Name, s.Devices[i])
	}
	return nil
}

// fig2 summarises each camera's Fig. 2 series: mean, range, and its
// first 30 samples.
func fig2(p *plan) error {
	s, err := p.setup()
	if err != nil {
		return err
	}
	res := Fig2(s)
	for ci, series := range res.Counts {
		sum := 0
		for _, v := range series {
			sum += v
		}
		p.row(p.scenario, res.CameraNames[ci], float64(sum)/float64(len(series)),
			slices.Min(series), slices.Max(series), series[:min(len(series), 30)])
	}
	return nil
}

// fig12 reads recall off the mode comparison.
func fig12(p *plan) error {
	outs, err := p.modes()
	if err != nil {
		return err
	}
	for _, o := range outs {
		p.later(func() []any { return []any{p.scenario, o.rep.Mode, o.rep.Recall, o.rep.TP, o.rep.FN} })
	}
	return nil
}

// fig13 reads latency off the mode comparison, with each mode's speed-up
// over Full (Modes' first).
func fig13(p *plan) error {
	outs, err := p.modes()
	if err != nil {
		return err
	}
	full := outs[0]
	for _, o := range outs {
		p.later(func() []any {
			speedup, _ := metrics.Speedup(full.rep.MeanSlowest, o.rep.MeanSlowest) // 0 for a run without latency
			return []any{p.scenario, o.rep.Mode, o.rep.MeanSlowest, speedup}
		})
	}
	return nil
}

// table2 reads the framework-overhead breakdown off the mode
// comparison's BALB run.
func table2(p *plan) error {
	outs, err := p.modes()
	if err != nil {
		return err
	}
	balb := outs[slices.Index(Modes(), pipeline.BALB)]
	p.later(func() []any {
		r := balb.rep
		return []any{p.scenario, r.CentralPerFrame, r.TrackingPerFrame, r.DistributedPerFrame, r.BatchingPerFrame, r.OverheadTotal()}
	})
	return nil
}

// withCen adds a BALB arm at the given horizon (0 = the default) and its
// BALB-Cen ablation, labelled label and label+"/cen".
func (p *plan) withCen(s *Setup, label string, horizon int) (balb, cen *outcome) {
	cfg := p.config(label, pipeline.BALB)
	cfg.Sched.Horizon = horizon
	balb = p.pipe(s, cfg)
	cfg = p.config(label+"/cen", pipeline.CentralOnly)
	cfg.Sched.Horizon = horizon
	return balb, p.pipe(s, cfg)
}

var fig14Horizons = []int{2, 5, 10, 20, 30, 50}

// fig14 sweeps the scheduling-horizon length for the full BALB algorithm
// and the central-only ablation.
func fig14(p *plan) error {
	s, err := p.setup()
	if err != nil {
		return err
	}
	for _, h := range fig14Horizons {
		balb, cen := p.withCen(s, fmt.Sprintf("fig14/T=%d", h), h)
		p.later(func() []any { return []any{h, balb.rep.Recall, cen.rep.Recall, balb.rep.MeanSlowest} })
	}
	return nil
}

var sweepScales = []float64{0.5, 1, 2}

// arrivalSweep regenerates the scenario at several arrival-rate scales,
// each with its own trained model, and compares BALB with BALB-Cen: does
// the distributed stage's recall contribution grow with churn?
func arrivalSweep(p *plan) error {
	for _, scale := range sweepScales {
		s, err := prepare(p.scenario, p.Seed, p.Frames, p.Opts.Workers, func(sc *workload.Scenario) {
			for ri := range sc.World.Routes {
				r := &sc.World.Routes[ri]
				switch a := r.Arrivals.(type) {
				case scene.Poisson:
					r.Arrivals = scene.Poisson{RatePerSec: a.RatePerSec * scale}
				case scene.TrafficLight:
					a.RatePerSec *= scale
					r.Arrivals = a
				}
			}
		})
		if err != nil {
			return err
		}
		balb, cen := p.withCen(s, fmt.Sprintf("sweep/x%g", scale), 0)
		p.later(func() []any {
			return []any{p.scenario, scale, balb.rep.Recall, cen.rep.Recall, balb.rep.Recall - cen.rep.Recall, balb.rep.MeanSlowest}
		})
	}
	return nil
}

// occlusionFrac is the covered share past which an occluded object
// disappears from a camera in the occlusion study.
const occlusionFrac = 0.6

// occlusion regenerates the scenario with dynamic occlusions and
// measures how much redundancy-2 assignment recovers.
func occlusion(p *plan) error {
	s, err := prepare(p.scenario, p.Seed, p.Frames, p.Opts.Workers, func(sc *workload.Scenario) {
		sc.World.OcclusionFrac = occlusionFrac
	})
	if err != nil {
		return err
	}
	for _, r := range []int{1, 2} {
		cfg := p.config(fmt.Sprintf("occlusion/R=%d", r), pipeline.BALB)
		if r == 2 {
			cfg.Sched.Redundancy, cfg.Sched.RedundancySlack = 2, 1.3
		}
		o := p.pipe(s, cfg)
		p.later(func() []any { return []any{p.scenario, r, o.rep.Recall, o.rep.MeanSlowest} })
	}
	return nil
}

var chaosRates = []float64{0.05, 0.1, 0.2}

// chaosHealthK is the failover arm's dead-camera threshold.
const chaosHealthK = 3

// chaos runs BALB under seeded camera-fault schedules of increasing
// outage rate, with and without health-tracked failover. Both arms of a
// rate share one schedule, so every difference is the failover
// machinery's.
func chaos(p *plan) error {
	s, err := p.setup()
	if err != nil {
		return err
	}
	for i, rate := range chaosRates {
		faults, err := pipeline.GenerateFaults(pipeline.FaultSpec{
			Seed: s.Seed + int64(i)*7919, Rate: rate, MeanOutage: 20, BootDelay: 2,
		}, len(s.Test.Cameras), len(s.Test.Frames))
		if err != nil {
			return err
		}
		cfg := p.config(fmt.Sprintf("chaos/r=%g/fo", rate), pipeline.BALB)
		cfg.Fault = pipeline.Fault{CamFaults: faults, HealthK: chaosHealthK}
		fo := p.pipe(s, cfg)
		cfg = p.config(fmt.Sprintf("chaos/r=%g/off", rate), pipeline.BALB)
		cfg.Fault.CamFaults = faults
		off := p.pipe(s, cfg)
		p.later(func() []any {
			return []any{p.scenario, rate, fo.rep.OutageFrames, fo.rep.Recall, off.rep.Recall,
				fo.rep.P99Slowest, off.rep.P99Slowest, fo.rep.Reassignments, fo.rep.OrphanedObjects}
		})
	}
	return nil
}

var shardMax = []int{16, 8, 4}

// shardSweep prices overlap-group sharding: the same trace and model run
// once globally and once per max-shard bound, under
// pipeline.Config.Sched.Shards (the in-process analogue of
// cluster.NewShardedScheduler, without its boundary hand-off). The
// central-cost column is wall-clock.
func shardSweep(p *plan) error {
	s, err := p.setup()
	if err != nil {
		return err
	}
	rects := make([]geom.Rect, len(s.Scenario.World.Cameras))
	for i, c := range s.Scenario.World.Cameras {
		rects[i] = c.Frame()
	}
	adj, err := s.Model.OverlapAdjacency(rects)
	if err != nil {
		return err
	}
	g, err := shard.FromAdjacency(adj)
	if err != nil {
		return err
	}
	global := p.pipe(s, p.config("shard/global", pipeline.BALB))
	p.later(func() []any {
		return []any{0, 1, global.rep.CentralPerFrame, global.rep.Recall, global.rep.MeanSlowest}
	})
	for _, k := range shardMax {
		m, err := shard.Partition(g, k)
		if err != nil {
			return fmt.Errorf("max=%d: %w", k, err)
		}
		cfg := p.config(fmt.Sprintf("shard/max=%d", k), pipeline.BALB)
		cfg.Sched.Shards = m
		o := p.pipe(s, cfg)
		p.later(func() []any { return []any{k, m.NumShards(), o.rep.CentralPerFrame, o.rep.Recall, o.rep.MeanSlowest} })
	}
	return nil
}

var shedLoads = []int{1, 2, 4, 8}

// shedSweep measures what each ingest admission policy preserves under
// overload: the evaluation frames are offered to the bounded per-camera
// queues at load× the engine's drain rate — load frames' parts before
// every engine step — and BALB consumes whatever survives. Admission is
// a pure function of queue state (docs/STREAMING.md §6).
func shedSweep(p *plan) error {
	s, err := p.setup()
	if err != nil {
		return err
	}
	offered := len(s.Test.Frames) * len(s.Test.Cameras)
	for _, policy := range []pipeline.ShedPolicy{pipeline.ShedDropOldest, pipeline.ShedFreshest, pipeline.ShedStale} {
		for _, load := range shedLoads {
			cfg := p.config(fmt.Sprintf("shed/%s/load=%d", policy, load), pipeline.BALB)
			o := p.feed(s, policy, cfg, func(*pipeline.IngestSource) int { return load })
			p.later(func() []any {
				return []any{policy, load, offered, offered - o.ingest.Shed, o.ingest.Shed, o.rep.Recall, o.rep.P99Slowest}
			})
		}
	}
	return nil
}

var adaptLoads = []int{1, 2, 4, 8}

// adaptFramePeriod is the camera frame period the adapt study's arrival
// model assumes (10 FPS, as everywhere in the testbed).
const adaptFramePeriod = 100 * time.Millisecond

// adaptSweep measures what the degradation control loop buys under
// ingest overload: frames arrive at load× real time against a drain rate
// set by the engine's own modeled per-frame latency (drop-oldest
// admission), with the Harness.Adapt controller on and off. Effective
// recall scores the whole offered trace: a shed frame is a total miss.
func adaptSweep(p *plan) error {
	s, err := p.setup()
	if err != nil {
		return err
	}
	pol := p.Adapt
	if !pol.Enabled() {
		pol = adapt.Policy{
			SLO: 500 * time.Millisecond, Window: 20, Cooldown: 2, MaxLevel: 3,
			QueueHigh: 8 * len(s.Test.Cameras),
		}
	}
	total := float64(len(s.Test.Frames))
	for _, load := range adaptLoads {
		on := p.adaptArm(s, pol, load, fmt.Sprintf("adapt/on/load=%d", load))
		off := p.adaptArm(s, adapt.Policy{}, load, fmt.Sprintf("adapt/off/load=%d", load))
		p.later(func() []any {
			a, b := on.rep, off.rep
			return []any{p.scenario, load, a.Recall * float64(a.Frames) / total, b.Recall * float64(b.Frames) / total,
				a.Recall, b.Recall, a.Frames, b.Frames, a.P99Slowest, b.P99Slowest, on.ingest.Shed, off.ingest.Shed,
				a.AdaptLevel, a.AdaptTransitions, a.SLOViolations}
		})
	}
	return nil
}

// latestLatency captures the most recent frame's modeled latency from
// the snapshot stream — the adapt study's arrival model reads it after
// every engine step. The engine emits snapshots synchronously inside
// Step, so no locking is needed in the single-threaded drive loop.
type latestLatency struct {
	lat time.Duration
}

func (l *latestLatency) RecordFrame(snap metrics.Snapshot) { l.lat = snap.FrameLatency }
func (l *latestLatency) Flush() error                      { return nil }

// adaptArm adds one latency-coupled overload arm under pol (zero = no
// controller). Unlike the shed study's fixed offer/drain lockstep, it
// accrues load×latency/framePeriod new frames per engine step — arrivals
// pile up while the modeled pipeline is busy — so a controller that cuts
// modeled latency genuinely drains faster and sheds less.
func (p *plan) adaptArm(s *Setup, pol adapt.Policy, load int, label string) *outcome {
	lat := &latestLatency{lat: adaptFramePeriod}
	cfg := p.config(label, pipeline.BALB)
	cfg.Obs.Sink = metrics.Sink(lat)
	if p.Opts.Sink != nil {
		cfg.Obs.Sink = metrics.Multi(p.Opts.Sink, lat)
	}
	cfg.Adapt.Policy = pol
	backlog := 0.0
	return p.feed(s, pipeline.ShedDropOldest, cfg, func(src *pipeline.IngestSource) int {
		backlog += float64(load) * float64(lat.lat) / float64(adaptFramePeriod)
		n := int(backlog)
		if n == 0 && src.Counters().QueueDepth == 0 {
			// Queue empty and nothing due: the engine is outrunning the
			// feed, so it waits for the next arrival (arrival-paced).
			n = 1
		}
		backlog = max(backlog-float64(n), 0)
		return n
	})
}

var tenantCounts = []int{1, 2, 4, 8, 16}

const (
	tenantExecutors = 4
	tenantSLO       = 150 * time.Millisecond
)

// tenantSweep measures multi-tenant consolidated serving
// (docs/SERVING.md): at each tenant count, that many Independent-mode
// engines — the scenario's whole trace each, per-tenant detector seeds,
// each with its own adapt controller at the serving SLO — share one pool
// of Xavier-class executors, once consolidating cross-tenant batches and
// once sealing batches per tenant at the same aggregate capacity.
func tenantSweep(p *plan) error {
	sc, err := workload.ByName(p.scenario, p.Seed)
	if err != nil {
		return err
	}
	trace, err := sc.World.Run(p.Frames)
	if err != nil {
		return err
	}
	for _, n := range tenantCounts {
		var arms [2]*outcome
		for i, discipline := range []string{"con", "ded"} {
			specs := make([]serve.TenantSpec, n)
			for ti := range specs {
				cfg := p.config(fmt.Sprintf("tenants/%d/%s/t%d", n, discipline, ti), pipeline.Independent)
				cfg.Sim.Seed = p.Seed + int64(ti)*31
				cfg.Sched.Workers = 1 // Independent mode has no association to fan out
				cfg.Adapt.Policy = adapt.Policy{SLO: tenantSLO}
				specs[ti] = serve.TenantSpec{
					ID: fmt.Sprintf("t%d", ti), SLO: tenantSLO, Source: pipeline.NewTraceSource(trace),
					Profiles: sc.Profiles(), Config: cfg,
				}
			}
			arms[i] = p.serve(fmt.Sprintf("tenants/%d/%s", n, discipline), serve.Config{
				Executors: tenantExecutors, Profile: profile.Derived(profile.JetsonXavier),
				Consolidate: i == 0, DefaultSLO: tenantSLO,
			}, specs)
		}
		p.later(func() []any {
			var p99 [2]time.Duration
			var throughput [2]float64
			for i, o := range arms {
				for _, r := range o.tenants {
					p99[i] = max(p99[i], r.P99Slowest)
				}
				if o.pool.Epochs > 0 {
					modeled := time.Duration(o.pool.Epochs) * serve.DefaultPeriod
					throughput[i] = float64(o.pool.Images) / modeled.Seconds()
				}
			}
			con, ded := arms[0].pool, arms[1].pool
			return []any{p.scenario, n, p99[0], p99[1], con.SLOViolations, ded.SLOViolations, con.ShedTasks, ded.ShedTasks,
				con.SharedBatches, con.MeanOccupancy, ded.MeanOccupancy, throughput[0], throughput[1]}
		})
	}
	return nil
}

// ablation prices Algorithm 1's design claims on synthetic instances, no
// world: its gap to the brute-force optimum, its batch awareness
// (core.CentralOptions.DisableBatching) and its heterogeneity awareness
// against SP and BALB-Ind.
func ablation(p *plan) error {
	worst, err := optimalityGap()
	if err != nil {
		return err
	}
	p.row("optimality", "BALB", "worst_over_optimum", worst)

	maxX, busyX, err := batchInflation()
	if err != nil {
		return err
	}
	p.row("batching", "BALB-no-batching", "max_latency_x", maxX)
	p.row("batching", "BALB-no-batching", "busy_time_x", busyX)
	return heterogeneity(p)
}

// ablationFleet is one camera per device class, Nano first.
var ablationFleet = []struct {
	name  string
	class profile.DeviceClass
}{{"nano", profile.JetsonNano}, {"tx2", profile.JetsonTX2}, {"xavier", profile.JetsonXavier}}

// fleetSpecs returns cameras of the named ablationFleet classes, in order.
func fleetSpecs(classes ...int) []core.CameraSpec {
	cams := make([]core.CameraSpec, len(classes))
	for i, k := range classes {
		cams[i] = core.CameraSpec{Index: i, Profile: profile.Derived(ablationFleet[k].class)}
	}
	return cams
}

// optimalityGap is the worst ratio of BALB's system latency to the
// optimum over 200 seeded 3-camera, 6-object instances: each object is
// seen by a random subset of the cameras, at a random size per camera.
func optimalityGap() (float64, error) {
	rng := rand.New(rand.NewSource(6))
	sizes := []int{64, 128, 256, 512}
	cams := fleetSpecs(0, 1, 2)
	worst := 1.0
	for range 200 {
		objects := make([]core.ObjectSpec, 6)
		for i := range objects {
			k := 1 + rng.Intn(len(cams))
			cover := rng.Perm(len(cams))[:k]
			sz := make(map[int]int, len(cover))
			for _, c := range cover {
				sz[c] = sizes[rng.Intn(len(sizes))]
			}
			objects[i] = core.ObjectSpec{ID: i + 1, Coverage: cover, Size: sz}
		}
		opt, err := core.BruteForce(cams, core.NewInstance(objects), 0)
		if err != nil {
			return 0, err
		}
		balb, err := core.Central(cams, objects, core.CentralOptions{})
		if err != nil {
			return 0, err
		}
		worst = max(worst, float64(balb.System())/float64(opt.System()))
	}
	return worst, nil
}

// batchInflation solves a batch-heavy instance — 60 same-size objects
// every camera sees — with and without the incomplete-batch rule, and
// returns the no-batching solution's max latency and GPU busy time over
// BALB's. Busy time leaves out the key frame's fixed full-frame pass.
func batchInflation() (maxX, busyX float64, err error) {
	cams := fleetSpecs(2, 1, 0)
	objects := make([]core.ObjectSpec, 60)
	for i := range objects {
		objects[i] = core.ObjectSpec{ID: i + 1, Coverage: []int{0, 1, 2}, Size: map[int]int{0: 64, 1: 64, 2: 64}}
	}
	with, err := core.Central(cams, objects, core.CentralOptions{})
	if err != nil {
		return 0, 0, err
	}
	without, err := core.Central(cams, objects, core.CentralOptions{DisableBatching: true})
	if err != nil {
		return 0, 0, err
	}
	busy := func(s *core.Solution) (sum float64) {
		for i, l := range s.Latencies {
			sum += float64(l - cams[i].Profile.FullFrame)
		}
		return sum
	}
	return float64(without.System()) / float64(with.System()), busy(without) / busy(with), nil
}

// heterogeneity schedules 30 seeded objects on the Nano/TX2/Xavier fleet
// — each seen by all three cameras with probability 0.6, else by one — and adds
// each arm's per-camera scheduled latency (ms, key-frame full inspection
// included) and where BALB put the shared objects.
func heterogeneity(p *plan) error {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{64, 128, 256}
	cams := fleetSpecs(0, 1, 2)
	objects := make([]core.ObjectSpec, 30)
	for i := range objects {
		size := sizes[rng.Intn(len(sizes))]
		cover := []int{0, 1, 2}
		if rng.Float64() >= 0.6 {
			cover = []int{rng.Intn(3)}
		}
		sz := make(map[int]int, len(cover))
		for _, c := range cover {
			sz[c] = size
		}
		objects[i] = core.ObjectSpec{ID: i + 1, Coverage: cover, Size: sz}
	}

	balb, err := core.Central(cams, objects, core.CentralOptions{})
	if err != nil {
		return err
	}
	noBatch, err := core.Central(cams, objects, core.CentralOptions{DisableBatching: true})
	if err != nil {
		return err
	}
	in := core.NewInstance(objects)
	sp, err := core.StaticPartition(cams, in)
	if err != nil {
		return err
	}
	ind, err := core.IndependentLatencies(cams, in, true)
	if err != nil {
		return err
	}
	for _, arm := range []struct {
		name string
		lat  []time.Duration
	}{{"BALB", balb.Latencies}, {"BALB-no-batching", noBatch.Latencies}, {"SP", sp.Latencies}, {"BALB-Ind", ind}} {
		for c, l := range arm.lat {
			p.row("heterogeneity", arm.name, ablationFleet[c].name+"_ms", l.Milliseconds())
		}
	}
	shared := make([]int, len(cams))
	for i := range objects {
		if len(objects[i].Coverage) == len(cams) {
			shared[balb.Assign[i]]++
		}
	}
	for c, n := range shared {
		p.row("heterogeneity", "BALB", "shared_on_"+ablationFleet[c].name, n)
	}
	return nil
}
