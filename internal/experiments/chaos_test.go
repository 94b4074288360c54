package experiments

import (
	"reflect"
	"testing"
)

func TestChaosSweepGracefulDegradation(t *testing.T) {
	h, rows := runOn(t, "chaos", Options{})
	if len(rows) != len(chaosRates) {
		t.Fatalf("points = %d", len(rows))
	}
	fo, off := h.report(t, "chaos/r=0.1/fo"), h.report(t, "chaos/r=0.1/off")
	if fo.OutageFrames == 0 {
		t.Fatal("schedule injected no outages")
	}
	// The acceptance criterion: at 10% outage rate, failover keeps
	// recall strictly above the feature-off arm of the same schedule.
	if fo.Recall <= off.Recall {
		t.Fatalf("failover recall %.4f not above no-failover %.4f", fo.Recall, off.Recall)
	}
	if fo.P99Slowest <= 0 || off.P99Slowest <= 0 {
		t.Fatalf("missing tail latencies: %v / %v", fo.P99Slowest, off.P99Slowest)
	}
	t.Logf("rate=0.10 outage=%d recall fo=%.4f off=%.4f reassigned=%d orphaned=%d",
		fo.OutageFrames, fo.Recall, off.Recall, fo.Reassignments, fo.OrphanedObjects)
}

func TestChaosSweepDeterministic(t *testing.T) {
	_, a := runOn(t, "chaos", Options{Workers: 1})
	_, b := runOn(t, "chaos", Options{Workers: 4})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep not deterministic across workers:\n%v\n%v", a, b)
	}
}
