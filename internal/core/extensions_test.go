package core

import (
	"math/rand"
	"testing"
	"time"

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

func TestCentralQualityAwareLambdaZeroMatchesLatencyFocus(t *testing.T) {
	cs := cams(profile.JetsonNano, profile.JetsonXavier)
	objects := []ObjectSpec{obj(1, 256, 0, 1)}
	sol, err := CentralQualityAware(cs, objects, QualityOptions{Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] != 1 { // Xavier: cheaper
		t.Fatalf("assign = %v", sol.Assign)
	}
}

func TestCentralQualityAwarePrefersLargerView(t *testing.T) {
	// The object appears at 512 on the slow Nano and 64 on the fast
	// Xavier. Pure latency picks the Xavier; pure quality picks the
	// Nano.
	cs := cams(profile.JetsonNano, profile.JetsonXavier)
	o := ObjectSpec{ID: 1, Coverage: []int{0, 1}, Size: map[int]int{0: 512, 1: 64}}
	lat0, err := CentralQualityAware(cs, []ObjectSpec{o}, QualityOptions{Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	if lat0.Assign[0] != 1 {
		t.Fatalf("lambda 0 assign = %v", lat0.Assign)
	}
	qual, err := CentralQualityAware(cs, []ObjectSpec{o}, QualityOptions{Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	if qual.Assign[0] != 0 {
		t.Fatalf("lambda 1 assign = %v", qual.Assign)
	}
	mean0, err := MeanAssignedSize([]ObjectSpec{o}, lat0.Assign)
	if err != nil {
		t.Fatal(err)
	}
	mean1, err := MeanAssignedSize([]ObjectSpec{o}, qual.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if mean1 <= mean0 {
		t.Fatalf("quality lambda did not raise mean size: %v vs %v", mean1, mean0)
	}
}

func TestCentralQualityAwareTradeoffCurve(t *testing.T) {
	// Across random instances, raising lambda must not decrease mean
	// assigned size and must not decrease system latency below the pure
	// latency solution.
	rng := rand.New(rand.NewSource(12))
	sizes := []int{64, 128, 256, 512}
	cs := cams(profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier)
	var objects []ObjectSpec
	for i := 0; i < 25; i++ {
		k := 1 + rng.Intn(3)
		perm := rng.Perm(3)[:k]
		sz := make(map[int]int, k)
		for _, c := range perm {
			sz[c] = sizes[rng.Intn(4)]
		}
		objects = append(objects, ObjectSpec{ID: i + 1, Coverage: perm, Size: sz})
	}
	var prevSize float64 = -1
	for _, lambda := range []float64{0, 0.5, 1} {
		sol, err := CentralQualityAware(cs, objects, QualityOptions{Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFeasible(NewInstance(objects), sol.Assign); err != nil {
			t.Fatal(err)
		}
		mean, err := MeanAssignedSize(objects, sol.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if mean < prevSize-1e-9 {
			t.Fatalf("mean size fell from %v to %v at lambda %v", prevSize, mean, lambda)
		}
		prevSize = mean
	}
}

func TestCentralQualityAwareValidation(t *testing.T) {
	cs := cams(profile.JetsonXavier)
	if _, err := CentralQualityAware(cs, nil, QualityOptions{Lambda: -0.1}); err == nil {
		t.Fatal("negative lambda accepted")
	}
	if _, err := CentralQualityAware(cs, nil, QualityOptions{Lambda: 1.1}); err == nil {
		t.Fatal("lambda > 1 accepted")
	}
}

func TestMeanAssignedSize(t *testing.T) {
	objects := []ObjectSpec{obj(1, 64, 0), obj(2, 256, 0)}
	mean, err := MeanAssignedSize(objects, []int{0, 0})
	if err != nil || mean != 160 {
		t.Fatalf("mean = %v, %v", mean, err)
	}
	if _, err := MeanAssignedSize(objects, []int{0}); err == nil {
		t.Fatal("unassigned accepted")
	}
	if m, err := MeanAssignedSize(nil, nil); err != nil || m != 0 {
		t.Fatalf("empty = %v, %v", m, err)
	}
}

func TestMinTotalLoadBeatsBalanceOnSum(t *testing.T) {
	// Everything visible everywhere: MinTotalLoad should stack objects on
	// the cheapest device and never exceed BALB's total.
	cs := cams(profile.JetsonNano, profile.JetsonXavier)
	var objects []ObjectSpec
	for i := 0; i < 20; i++ {
		objects = append(objects, obj(i+1, 128, 0, 1))
	}
	minSum, err := MinTotalLoad(cs, objects)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(NewInstance(objects), minSum.Assign); err != nil {
		t.Fatal(err)
	}
	balb, err := Central(cs, objects, CentralOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if TotalLoad(minSum.Latencies) > TotalLoad(balb.Latencies) {
		t.Fatalf("MinTotalLoad sum %v above BALB %v",
			TotalLoad(minSum.Latencies), TotalLoad(balb.Latencies))
	}
	// And everything should be on the Xavier (cheapest marginal).
	for id, cam := range minSum.Assign {
		if cam != 1 {
			t.Fatalf("object %d on camera %d", id, cam)
		}
	}
}

func TestTotalLoad(t *testing.T) {
	if TotalLoad(nil) != 0 {
		t.Fatal("empty != 0")
	}
	if got := TotalLoad([]time.Duration{2, 3}); got != 5 {
		t.Fatalf("sum = %v", got)
	}
}

func TestMinUploadCoverGreedy(t *testing.T) {
	cs := cams(profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier)
	objects := []ObjectSpec{
		obj(1, 64, 0, 2),
		obj(2, 64, 1, 2),
		obj(3, 64, 2),
	}
	chosen, err := MinUploadCover(cs, objects)
	if err != nil {
		t.Fatal(err)
	}
	// Camera 2 covers everything alone.
	if len(chosen) != 1 || chosen[0] != 2 {
		t.Fatalf("chosen = %v", chosen)
	}
}

func TestMinUploadCoverNeedsSeveral(t *testing.T) {
	cs := cams(profile.JetsonNano, profile.JetsonXavier)
	objects := []ObjectSpec{obj(1, 64, 0), obj(2, 64, 1)}
	chosen, err := MinUploadCover(cs, objects)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 2 {
		t.Fatalf("chosen = %v", chosen)
	}
}

func TestMinUploadCoverTieBreaksByCapacity(t *testing.T) {
	// Both cameras cover the single object; the faster one wins the tie.
	cs := cams(profile.JetsonNano, profile.JetsonXavier)
	objects := []ObjectSpec{obj(1, 64, 0, 1)}
	chosen, err := MinUploadCover(cs, objects)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || chosen[0] != 1 {
		t.Fatalf("chosen = %v", chosen)
	}
}

func TestMinUploadCoverEmpty(t *testing.T) {
	cs := cams(profile.JetsonXavier)
	chosen, err := MinUploadCover(cs, nil)
	if err != nil || len(chosen) != 0 {
		t.Fatalf("empty = %v, %v", chosen, err)
	}
}

func TestMinUploadCoverCoversEverythingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(4)
		classes := []profile.DeviceClass{profile.JetsonNano, profile.JetsonTX2, profile.JetsonXavier}
		cs := make([]CameraSpec, m)
		for i := range cs {
			cs[i] = CameraSpec{Index: i, Profile: profile.Derived(classes[rng.Intn(3)])}
		}
		n := 1 + rng.Intn(15)
		objects := make([]ObjectSpec, n)
		for i := range objects {
			k := 1 + rng.Intn(m)
			perm := rng.Perm(m)[:k]
			sz := make(map[int]int, k)
			for _, c := range perm {
				sz[c] = 64
			}
			objects[i] = ObjectSpec{ID: i + 1, Coverage: perm, Size: sz}
		}
		chosen, err := MinUploadCover(cs, objects)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[int]bool, len(chosen))
		for _, c := range chosen {
			if set[c] {
				t.Fatalf("camera %d chosen twice", c)
			}
			set[c] = true
		}
		for i := range objects {
			covered := false
			for _, c := range objects[i].Coverage {
				if set[c] {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("trial %d: object %d uncovered by %v", trial, objects[i].ID, chosen)
			}
		}
	}
}
