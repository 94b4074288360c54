// Command mvserve runs the multi-tenant consolidated serving layer of
// docs/SERVING.md: N independent pipeline engines — one per tenant,
// all replaying the same simulated scenario under per-tenant detector
// seeds — submit their GPU work to one shared pool of modeled
// executors, which packs cross-tenant requests into shared batches,
// schedules tenants by weighted fair queueing, and sheds per-tenant
// load when a tenant runs over its latency SLO.
//
// Usage:
//
//	mvserve [-tenants N] [-executors N] [-scenario S1|S2|S3|S4]
//	        [-frames N] [-seed N] [-slo D] [-period D]
//	        [-consolidate=false] [-fault-tenant I]
//	        [-workers N] [-metrics-addr :8080] [-metrics-jsonl run.jsonl]
//	        [-cam-faults seed=7,rate=0.1] [-health-k K] [-adapt slo=150ms]
//
// -consolidate=false seals batches at tenant boundaries instead — the
// dedicated-slice baseline of `mvexp -exp tenants` — at the same
// aggregate capacity. -cam-faults injects a camera-outage schedule; by
// default every tenant replays it, -fault-tenant I confines it to
// tenant I so the blast radius of one tenant's outage can be observed
// (the others must stay clean). -adapt arms each tenant's own
// degradation controller, coupling pool-level shedding to per-tenant
// quality levels. Output is one row per tenant plus a pool summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mvs/internal/adapt"
	"mvs/internal/cliconf"
	"mvs/internal/metrics"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/serve"
	"mvs/internal/workload"
)

func main() {
	var (
		tenants     = flag.Int("tenants", 4, "number of tenant engines sharing the pool")
		executors   = flag.Int("executors", 4, "modeled GPU executors in the shared pool")
		scenario    = flag.String("scenario", "S1", "scenario every tenant replays: "+workload.ScenarioNames)
		frames      = flag.Int("frames", 240, "trace length in frames (10 FPS)")
		seed        = flag.Int64("seed", 42, "simulation seed (tenant i detects with seed+31*i)")
		slo         = flag.Duration("slo", 150*time.Millisecond, "per-tenant frame latency SLO")
		period      = flag.Duration("period", serve.DefaultPeriod, "pool epoch period (modeled frame interval)")
		consolidate = flag.Bool("consolidate", true, "pack cross-tenant work into shared batches (false = dedicated-slice baseline)")
		faultTenant = flag.Int("fault-tenant", -1, "apply -cam-faults to this tenant index only (-1 = every tenant)")
	)
	shared := cliconf.Register(flag.CommandLine, "mvserve")
	flag.Parse()

	cliconf.Exit("mvserve", shared.WithExport(func(export *metrics.Export) error {
		return run(*tenants, *executors, *scenario, *frames, *seed,
			*slo, *period, *consolidate, *faultTenant, shared, export)
	}))
}

func run(tenants, executors int, scenario string, frames int, seed int64,
	slo, period time.Duration, consolidate bool, faultTenant int, shared *cliconf.Shared, export *metrics.Export) error {
	if tenants < 1 {
		return fmt.Errorf("-tenants must be >= 1, got %d", tenants)
	}
	if faultTenant >= tenants {
		return fmt.Errorf("-fault-tenant %d out of range (tenants 0..%d)", faultTenant, tenants-1)
	}
	s, err := workload.ByName(scenario, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mvserve: generating %s trace (%d frames, seed %d)...\n", scenario, frames, seed)
	trace, err := s.World.Run(frames)
	if err != nil {
		return err
	}
	adaptPol, err := adapt.ParseSpec(shared.Adapt)
	if err != nil {
		return err
	}
	faults, err := shared.FaultModel(len(trace.Cameras), frames)
	if err != nil {
		return err
	}
	sink := shared.Sink(export, nil)

	pool, err := serve.NewPool(serve.Config{
		Executors:   executors,
		Profile:     profile.Derived(profile.JetsonXavier),
		Period:      period,
		Consolidate: consolidate,
		DefaultSLO:  slo,
	})
	if err != nil {
		return err
	}
	specs := make([]serve.TenantSpec, tenants)
	for i := range specs {
		cfg := pipeline.NewConfig(pipeline.Independent, seed+int64(i)*31)
		cfg.Sched.Workers = shared.Workers
		cfg.Adapt.Policy = adaptPol
		cfg.Obs.Sink = sink
		if faults != nil && (faultTenant < 0 || faultTenant == i) {
			cfg.Fault = pipeline.Fault{CamFaults: faults, HealthK: shared.HealthK}
		}
		specs[i] = serve.TenantSpec{
			ID:       fmt.Sprintf("t%d", i),
			SLO:      slo,
			Source:   pipeline.NewTraceSource(trace),
			Profiles: s.Profiles(),
			Config:   cfg,
		}
	}

	results, err := serve.Run(pool, specs)
	if err != nil {
		return err
	}

	mode := "consolidated"
	if !consolidate {
		mode = "dedicated"
	}
	fmt.Printf("%d tenants on %d shared executors (%s, period %v, SLO %v)\n\n",
		tenants, executors, mode, period, slo)
	fmt.Printf("%-6s %-7s %-7s %-9s %-9s %-6s %-9s %-7s\n",
		"tenant", "frames", "recall", "mean", "p99", "shed", "slo_viol", "outage")
	for _, r := range results {
		rep := r.Report
		fmt.Printf("%-6s %-7d %-7.3f %-9v %-9v %-6d %-9d %-7d\n",
			r.ID, rep.Frames, rep.Recall,
			rep.MeanSlowest.Round(100*time.Microsecond),
			rep.P99Slowest.Round(100*time.Microsecond),
			rep.ExecShedTasks, rep.ExecSLOViolations, rep.OutageFrames)
	}
	st := pool.Stats()
	fmt.Printf("\npool: %d epochs, %d batches (%d cross-tenant, occupancy %.2f), %d full frames, %d images, %d tasks shed, %d SLO violations\n",
		st.Epochs, st.Batches, st.SharedBatches, st.MeanOccupancy,
		st.FullFrames, st.Images, st.ShedTasks, st.SLOViolations)
	return nil
}
