package serve

import (
	"reflect"
	"testing"
	"time"

	"mvs/internal/pipeline"
	"mvs/internal/profile"
	"mvs/internal/workload"
)

// TestChaosTenantOutage runs three tenants against one consolidated
// pool with the middle tenant's cameras under a seeded camera-fault outage
// schedule (plus health-tracked failover), under `go test -race` in CI:
// the faulty tenant's dead cameras must never wedge the epoch barrier
// or leak work into its neighbours, and the whole multi-tenant run must
// stay deterministic.
func TestChaosTenantOutage(t *testing.T) {
	trace := testTrace(t)

	specs := func() []TenantSpec {
		t.Helper()
		out := tenantSpecs(t, 3, 2)
		faults, err := pipeline.GenerateFaults(pipeline.FaultSpec{
			Seed: 17, Rate: 0.15, MeanOutage: 12, BootDelay: 2,
		}, len(trace.Cameras), len(trace.Frames))
		if err != nil {
			t.Fatalf("cam faults: %v", err)
		}
		out[1].Config.Fault = pipeline.Fault{CamFaults: faults, HealthK: 3}
		return out
	}

	run := func() []TenantResult {
		t.Helper()
		pool, err := NewPool(Config{
			Executors:   2,
			Profile:     profile.Derived(profile.JetsonXavier),
			Consolidate: true,
			DefaultSLO:  150 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		results, err := Run(pool, specs())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return results
	}

	results := run()
	for _, r := range results {
		if r.Report == nil {
			t.Fatalf("tenant %s: nil report", r.ID)
		}
		if r.Report.Frames != len(trace.Frames) {
			t.Errorf("tenant %s processed %d frames, want %d", r.ID, r.Report.Frames, len(trace.Frames))
		}
		if r.Report.Recall <= 0 {
			t.Errorf("tenant %s: recall %v", r.ID, r.Report.Recall)
		}
	}
	if results[1].Report.OutageFrames == 0 {
		t.Error("faulty tenant recorded no outage frames")
	}
	for _, i := range []int{0, 2} {
		if results[i].Report.OutageFrames != 0 {
			t.Errorf("healthy tenant %s recorded %d outage frames", results[i].ID, results[i].Report.OutageFrames)
		}
	}

	again := run()
	for i := range results {
		gm, wm := again[i].Report.Modeled(), results[i].Report.Modeled()
		if !reflect.DeepEqual(&gm, &wm) {
			t.Errorf("tenant %s: chaos run not deterministic", results[i].ID)
		}
	}
}

// TestChaosUnevenStreams ends tenants at different epochs — one stream
// a third as long as the others — so Finish shrinks the active set
// mid-run; the surviving tenants must keep pricing epochs to the end.
func TestChaosUnevenStreams(t *testing.T) {
	trace := testTrace(t)
	short, err := workload.ByName("S1", 11)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	shortTrace, err := short.World.Run(len(trace.Frames) / 3)
	if err != nil {
		t.Fatalf("short trace: %v", err)
	}

	sp := tenantSpecs(t, 3, 2)
	sp[2].Source = pipeline.NewTraceSource(shortTrace)
	pool, err := NewPool(poolConfig(t, 2, true))
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	results, err := Run(pool, sp)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := results[2].Report.Frames; got != len(shortTrace.Frames) {
		t.Errorf("short tenant processed %d frames, want %d", got, len(shortTrace.Frames))
	}
	for _, i := range []int{0, 1} {
		if got := results[i].Report.Frames; got != len(trace.Frames) {
			t.Errorf("tenant %s processed %d frames, want %d", results[i].ID, got, len(trace.Frames))
		}
	}
}
