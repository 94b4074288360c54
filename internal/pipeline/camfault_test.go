package pipeline

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseFaultSpec("seed=7,rate=0.1,mean=25,boot=3,drop=0.01,down=1:100-200+3:50-80")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{
		Seed: 7, Rate: 0.1, MeanOutage: 25, BootDelay: 3, DropRate: 0.01,
		Outages: map[int][]FaultWindow{
			1: {{Start: 100, End: 200}},
			3: {{Start: 50, End: 80}},
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseFaultSpec("  "); err != nil || !reflect.DeepEqual(cfg, FaultSpec{}) {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"rate",          // no '='
		"rate=2",        // out of range
		"drop=-0.1",     // out of range
		"bogus=1",       // unknown key
		"down=1",        // no range
		"down=1:5",      // no end
		"down=1:9-9",    // empty window
		"down=x:1-2",    // bad camera
		"seed=notanint", // bad int
	} {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", spec)
		}
	}
}

func TestGenerateExplicitWindows(t *testing.T) {
	m, err := GenerateFaults(FaultSpec{Outages: map[int][]FaultWindow{
		0: {{Start: 2, End: 5}},
		2: {{Start: 8, End: 100}}, // clamped to the trace
	}}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 10; f++ {
		if got, want := m.Down(0, f), f >= 2 && f < 5; got != want {
			t.Errorf("Down(0,%d) = %v, want %v", f, got, want)
		}
		if m.Down(1, f) {
			t.Errorf("Down(1,%d) = true for camera with no faults", f)
		}
		if got, want := m.Down(2, f), f >= 8; got != want {
			t.Errorf("Down(2,%d) = %v, want %v", f, got, want)
		}
	}
	if m.DownFrames() != 3+2 {
		t.Fatalf("DownFrames = %d, want 5", m.DownFrames())
	}
	// Out-of-range queries are not faults.
	if m.Down(-1, 0) || m.Down(3, 0) || m.Down(0, -1) || m.Down(0, 10) {
		t.Fatal("out-of-range query reported down")
	}
	if (*FaultSchedule)(nil).Down(0, 0) {
		t.Fatal("nil model reported down")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := FaultSpec{Seed: 11, Rate: 0.15, MeanOutage: 8, BootDelay: 2, DropRate: 0.02}
	a, err := GenerateFaults(cfg, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFaults(cfg, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different schedules")
	}
	c, err := GenerateFaults(FaultSpec{Seed: 12, Rate: 0.15, MeanOutage: 8, BootDelay: 2, DropRate: 0.02}, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.down, c.down) {
		t.Fatal("different seeds generated identical schedules")
	}
	// Per-camera seeding: camera k's schedule does not depend on how many
	// other cameras exist.
	d, err := GenerateFaults(cfg, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.down[0], d.down[0]) || !reflect.DeepEqual(a.down[1], d.down[1]) {
		t.Fatal("camera schedule depends on roster size")
	}
}

func TestGenerateRateTargets(t *testing.T) {
	// Long horizon: the realized downtime should be in the right
	// neighbourhood of the configured rate (it is a random schedule, so
	// allow a wide band; determinism makes the check stable).
	m, err := GenerateFaults(FaultSpec{Seed: 3, Rate: 0.10, MeanOutage: 20, BootDelay: 2}, 8, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(m.DownFrames()) / float64(8*20_000)
	if frac < 0.05 || frac > 0.20 {
		t.Fatalf("realized downtime %.3f far from target 0.10", frac)
	}
	// Rate 0 with no windows: nothing is down.
	z, err := GenerateFaults(FaultSpec{Seed: 3}, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if z.DownFrames() != 0 {
		t.Fatalf("zero config lost %d frames", z.DownFrames())
	}
}

// TestGenerateHugeMeanIsQuick: the outage draw stops at the end of the
// stream, so a spec with an absurd mean (from a flag or a replayed
// manifest) costs the frames it covers, not 100x its mean in draws.
// Each camera that fails is down from its first outage to the end.
func TestGenerateHugeMeanIsQuick(t *testing.T) {
	start := time.Now()
	m, err := ParseFaults("seed=1,rate=0.999999,mean=1000000000", 16, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Errorf("schedule took %v", took)
	}
	if m.DownFrames() == 0 {
		t.Fatal("no camera failed")
	}
	for cam := 0; cam < 16; cam++ {
		if first := slices.Index(m.down[cam], true); first >= 0 && slices.Contains(m.down[cam][first:], false) {
			t.Errorf("camera %d: first outage at frame %d, but not down from there to the end", cam, first)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateFaults(FaultSpec{}, 0, 10); err == nil {
		t.Error("accepted zero cameras")
	}
	if _, err := GenerateFaults(FaultSpec{}, 2, 0); err == nil {
		t.Error("accepted zero frames")
	}
	if _, err := GenerateFaults(FaultSpec{Rate: 1.0}, 2, 10); err == nil {
		t.Error("accepted rate 1.0 (always down)")
	}
	if _, err := GenerateFaults(FaultSpec{DropRate: 1.5}, 2, 10); err == nil {
		t.Error("accepted drop rate > 1")
	}
	if _, err := GenerateFaults(FaultSpec{Outages: map[int][]FaultWindow{5: {{0, 1}}}}, 2, 10); err == nil {
		t.Error("accepted explicit window for out-of-range camera")
	}
}

func TestTracker(t *testing.T) {
	tr := newHealthTracker(2, 3)
	if !tr.healthy(0) || !tr.healthy(1) {
		t.Fatal("fresh tracker not healthy")
	}
	tr.observe(0, false)
	tr.observe(0, false)
	if !tr.healthy(0) {
		t.Fatal("unhealthy before K silent frames")
	}
	tr.observe(0, false)
	if tr.healthy(0) {
		t.Fatal("healthy after K silent frames")
	}
	mask := tr.deadMask(nil)
	if !reflect.DeepEqual(mask, []bool{true, false}) {
		t.Fatalf("deadMask = %v", mask)
	}
	// Recovery: one produced frame resets.
	tr.observe(0, true)
	if !tr.healthy(0) {
		t.Fatal("not healthy after recovery")
	}
	if mask = tr.deadMask(mask); !reflect.DeepEqual(mask, []bool{false, false}) {
		t.Fatalf("deadMask after recovery = %v", mask)
	}
	// Out-of-range observations are ignored, unknown cameras healthy.
	tr.observe(9, false)
	if !tr.healthy(9) {
		t.Fatal("unknown camera unhealthy")
	}
}

func TestTrackerDisabled(t *testing.T) {
	tr := newHealthTracker(2, 0)
	for i := 0; i < 10; i++ {
		tr.observe(0, false)
	}
	if !tr.healthy(0) {
		t.Fatal("disabled tracker marked a camera unhealthy")
	}
	if mask := tr.deadMask(nil); !reflect.DeepEqual(mask, []bool{false, false}) {
		t.Fatalf("disabled tracker's deadMask = %v", mask)
	}
}
