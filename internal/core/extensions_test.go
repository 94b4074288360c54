package core

import (
	"testing"

	"mvs/internal/profile"
)

func TestCentralRedundantDegeneratesToCentral(t *testing.T) {
	cs := cams(profile.JetsonXavier, profile.JetsonNano)
	objects := []ObjectSpec{obj(1, 64, 0, 1), obj(2, 128, 0)}
	base, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var w Solver
	sol, err := w.CentralRedundant(cs, NewInstance(objects), 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range objects {
		if len(sol.Extra(j)) != 0 {
			t.Fatalf("object %d extra = %v", j, sol.Extra(j))
		}
	}
	if sol.System() != base.System() {
		t.Fatalf("system = %v want %v", sol.System(), base.System())
	}
}

func TestCentralRedundantAddsSecondTracker(t *testing.T) {
	// Two idle Xaviers, one shared object: redundancy 2 with generous
	// slack should add the second camera.
	cs := cams(profile.JetsonXavier, profile.JetsonXavier)
	objects := []ObjectSpec{obj(1, 128, 0, 1)}
	var w Solver
	sol, err := w.CentralRedundant(cs, NewInstance(objects), 2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	extra := sol.Extra(0)
	if len(extra) != 1 {
		t.Fatalf("extra = %v", extra)
	}
	if extra[0] == sol.Assign[0] {
		t.Fatal("extra tracker duplicates the primary")
	}
	// Both cameras now carry one batch.
	p := cs[0].Profile
	for i, l := range sol.Latencies {
		if l != p.FullFrame+p.BatchLatency[128] {
			t.Fatalf("camera %d latency %v", i, l)
		}
	}
}

func TestCentralRedundantRespectsBudget(t *testing.T) {
	// slack 1.0 bounds every camera by the base solution's *system*
	// latency: it never raises the maximum, but a camera below it may
	// open a new batch. Primary on the Xavier; the Nano's full frame is
	// already the system latency.
	cs := cams(profile.JetsonXavier, profile.JetsonNano)
	objects := []ObjectSpec{obj(1, 256, 0, 1)}
	var w Solver
	sol, err := w.CentralRedundant(cs, NewInstance(objects), 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.System() > base.System() {
		t.Fatalf("slack 1.0 raised system latency: %v > %v", sol.System(), base.System())
	}

	// The rule, pinned: on two Xaviers, A (128, {0}) opens a batch on
	// camera 0 and B (128, {0,1}) joins it. B's extra on idle camera 1
	// opens a new batch costing t^128 — not a free addition — and lands
	// exactly at the budget, so slack 1.0 adds it.
	cs = cams(profile.JetsonXavier, profile.JetsonXavier)
	objects = []ObjectSpec{obj(1, 128, 0), obj(2, 128, 0, 1)}
	base, err = Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Assign[1] != 0 {
		t.Fatalf("B did not join A's batch: assign = %v", base.Assign)
	}
	sol, err = w.CentralRedundant(cs, NewInstance(objects), 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Extra(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("B's extra trackers = %v, want [1]", got)
	}
	p := cs[1].Profile
	if sol.Latencies[1] != p.FullFrame+p.BatchLatency[128] || sol.System() != base.System() {
		t.Fatalf("latencies %v (system %v), base system %v", sol.Latencies, sol.System(), base.System())
	}
}

func TestCentralRedundantCapsAtCoverage(t *testing.T) {
	cs := cams(profile.JetsonXavier, profile.JetsonXavier)
	objects := []ObjectSpec{obj(1, 64, 0, 1)}
	var w Solver
	sol, err := w.CentralRedundant(cs, NewInstance(objects), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Coverage is 2 cameras: at most 1 extra.
	if len(sol.Extra(0)) > 1 {
		t.Fatalf("extra = %v", sol.Extra(0))
	}
}
