package serve

import (
	"fmt"
	"sync"
	"time"

	"mvs/internal/assoc"
	"mvs/internal/pipeline"
	"mvs/internal/profile"
)

// TenantSpec describes one tenant for Run: its identity and SLO at the
// pool (every tenant Run registers has fair-share weight 1), plus the inputs of its private pipeline engine. Config.Serve
// and Config.Obs.Label are filled by Run (Serve from the registration,
// Label from the ID when unset); everything else is the tenant's own.
type TenantSpec struct {
	// ID names the tenant (metrics label, pool registration).
	ID string
	// SLO is the tenant's latency objective (0 uses the pool default).
	SLO time.Duration
	// Source, Profiles, Model and Config build the tenant's engine,
	// exactly as pipeline.NewEngine takes them.
	Source   pipeline.Source
	Profiles []*profile.Profile
	Model    *assoc.Model
	Config   pipeline.Config
}

// TenantResult is one tenant's outcome from Run.
type TenantResult struct {
	// ID echoes the spec.
	ID string
	// Report is the tenant engine's final report; nil when the engine
	// failed before processing any frame.
	Report *pipeline.Report
	// Err is the tenant's terminal error, nil on a clean end of stream.
	Err error
}

// Run drives one engine per tenant against a shared pool: it registers
// every tenant (in spec order — registration order is part of the
// determinism contract), builds the engines, then runs each on its own
// goroutine with Finish deferred so an erroring or short stream never
// deadlocks its peers at the epoch barrier. It returns one result per
// spec, in order, and the first tenant error (results carry the rest).
func Run(pool *Pool, specs []TenantSpec) ([]TenantResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no tenants")
	}
	handles := make([]*Tenant, len(specs))
	engines := make([]*pipeline.Engine, len(specs))
	for i, spec := range specs {
		h, err := pool.Register(spec.ID, 1, spec.SLO)
		if err == nil {
			cfg := spec.Config
			cfg.Serve = pipeline.Serve{Tenant: spec.ID, Executor: h}
			if cfg.Obs.Label == "" {
				cfg.Obs.Label = spec.ID
			}
			engines[i], err = pipeline.NewEngine(spec.Source, spec.Profiles, spec.Model, cfg)
		}
		if err != nil {
			// Unblock any tenants already registered before failing.
			for _, h := range handles[:i] {
				h.Finish()
			}
			return nil, fmt.Errorf("serve: tenant %q: %w", spec.ID, err)
		}
		handles[i] = h
	}

	// One goroutine per tenant, unconditionally: the epoch barrier
	// completes only when every active tenant has submitted, so bounding
	// these with a worker pool smaller than the tenant count would
	// deadlock the first epoch.
	results := make([]TenantResult, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer handles[i].Finish()
			err := engines[i].Run()
			var rep *pipeline.Report
			if engines[i].Frames() > 0 {
				var rerr error
				rep, rerr = engines[i].Report()
				if rerr != nil && err == nil {
					err = rerr
				}
			}
			results[i] = TenantResult{ID: specs[i].ID, Report: rep, Err: err}
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("serve: tenant %q: %w", results[i].ID, results[i].Err)
		}
	}
	return results, nil
}
