package experiments

import (
	"fmt"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/serve"
	"mvs/internal/workload"
)

// TenantArm summarizes one serving discipline at one tenant count:
// consolidated (cross-tenant shared batches) or dedicated (identical
// scheduling, batches sealed at tenant boundaries) at equal aggregate
// GPU capacity.
type TenantArm struct {
	// WorstP99 is the highest per-tenant P99 frame latency (queueing
	// included); MeanRecall averages tenant recalls.
	WorstP99   time.Duration
	MeanRecall float64
	// SLOViolations counts (tenant, epoch) pairs the pool priced over
	// the SLO; ShedTasks counts tasks its admission control dropped.
	SLOViolations int
	ShedTasks     int
	// Batches, SharedBatches and MeanOccupancy describe the packing:
	// launches, cross-tenant launches, and mean fill fraction.
	Batches       int
	SharedBatches int
	MeanOccupancy float64
	// Throughput is partial-region inspections per modeled second of
	// serving time.
	Throughput float64
}

// TenantPoint is one tenant count measured under both disciplines.
type TenantPoint struct {
	// Tenants is the number of independent pipeline engines sharing the
	// pool.
	Tenants      int
	Consolidated TenantArm
	Dedicated    TenantArm
}

// TenantSweep measures multi-tenant consolidated serving (docs/
// SERVING.md): for each tenant count it runs that many independent
// Independent-mode engines — same scenario trace, per-tenant detector
// seeds, each with its own adapt controller at the serving SLO —
// against a shared executor pool, once consolidating cross-tenant
// batches and once with dedicated per-tenant batch sealing at the same
// aggregate capacity. frames <= 0 defaults to 240, executors <= 0 to 4
// Xavier-class devices, slo <= 0 to 150ms, an empty counts to
// {1, 2, 4, 8, 16}. Arms run sequentially (each already fans out one
// goroutine per tenant); Options.Workers is not applied inside tenant
// engines, which run Independent mode and have no association to fan
// out.
func TenantSweep(name string, seed int64, frames, executors int, slo time.Duration, counts []int, opts Options) ([]TenantPoint, error) {
	if frames <= 0 {
		frames = 240
	}
	if executors <= 0 {
		executors = 4
	}
	if slo <= 0 {
		slo = 150 * time.Millisecond
	}
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	s, err := workload.ByName(name, seed)
	if err != nil {
		return nil, err
	}
	trace, err := s.World.Run(frames)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}

	out := make([]TenantPoint, len(counts))
	for i, tenants := range counts {
		out[i].Tenants = tenants
		for arm, armName := range []string{"con", "ded"} {
			pool, err := serve.NewPool(serve.Config{
				Executors:   executors,
				Profile:     profile.Derived(profile.JetsonXavier),
				Consolidate: arm == 0,
				DefaultSLO:  slo,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: tenants=%d: %w", tenants, err)
			}
			specs := make([]serve.TenantSpec, tenants)
			for ti := range specs {
				cfg := pipeline.NewConfig(pipeline.Independent, seed+int64(ti)*31)
				cfg.Sched.Workers = 1
				cfg.Adapt.Policy = adapt.Policy{SLO: slo}
				cfg.Obs.Sink = opts.Sink
				cfg.Obs.Label = fmt.Sprintf("tenants/%d/%s/t%d", tenants, armName, ti)
				specs[ti] = serve.TenantSpec{
					ID:       fmt.Sprintf("t%d", ti),
					SLO:      slo,
					Source:   pipeline.NewTraceSource(trace),
					Profiles: s.Profiles(),
					Config:   cfg,
				}
			}
			results, err := serve.Run(pool, specs)
			if err != nil {
				return nil, fmt.Errorf("experiments: tenants=%d/%s: %w", tenants, armName, err)
			}
			stats := pool.Stats()
			a := TenantArm{
				SLOViolations: stats.SLOViolations,
				ShedTasks:     stats.ShedTasks,
				Batches:       stats.Batches,
				SharedBatches: stats.SharedBatches,
				MeanOccupancy: stats.MeanOccupancy,
			}
			if stats.Epochs > 0 {
				modeled := time.Duration(stats.Epochs) * serve.DefaultPeriod
				a.Throughput = float64(stats.Images) / modeled.Seconds()
			}
			for _, r := range results {
				if r.Report.P99Slowest > a.WorstP99 {
					a.WorstP99 = r.Report.P99Slowest
				}
				a.MeanRecall += r.Report.Recall / float64(tenants)
			}
			if arm == 0 {
				out[i].Consolidated = a
			} else {
				out[i].Dedicated = a
			}
		}
	}
	return out, nil
}
