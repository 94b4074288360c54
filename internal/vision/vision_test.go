package vision

import (
	"errors"
	"testing"

	"mvs/internal/geom"
	"mvs/internal/scene"
)

func bigObs(id int) scene.Observation {
	return scene.Observation{
		ObjectID: id,
		Box:      geom.Rect{MinX: 100, MinY: 100, MaxX: 200, MaxY: 180},
	}
}

func tinyObs(id int) scene.Observation {
	return scene.Observation{
		ObjectID: id,
		Box:      geom.Rect{MinX: 100, MinY: 100, MaxX: 105, MaxY: 105},
	}
}

func TestDetectFullFindsLargeObjects(t *testing.T) {
	d := NewDetector(1, Config{})
	hits := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if len(d.DetectFull([]scene.Observation{bigObs(1)})) == 1 {
			hits++
		}
	}
	// MissBase 0.02 -> ~980 hits.
	if hits < 950 || hits > 1000 {
		t.Fatalf("hits = %d / %d", hits, trials)
	}
}

func TestDetectFullMissesTinyObjectsOften(t *testing.T) {
	d := NewDetector(2, Config{})
	hits := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if len(d.DetectFull([]scene.Observation{tinyObs(1)})) == 1 {
			hits++
		}
	}
	// side 5 / MinSide 20 -> p ~= 0.245.
	if hits < 150 || hits > 350 {
		t.Fatalf("tiny hits = %d / %d", hits, trials)
	}
}

func TestDetectionNoiseIsBounded(t *testing.T) {
	d := NewDetector(3, Config{NoiseFrac: 0.02})
	obs := bigObs(1)
	for i := 0; i < 200; i++ {
		dets := d.DetectFull([]scene.Observation{obs})
		if len(dets) == 0 {
			continue
		}
		if iou := dets[0].Box.IoU(obs.Box); iou < 0.7 {
			t.Fatalf("noisy box drifted too far: IoU %v", iou)
		}
		if dets[0].Score <= 0 || dets[0].Score > 1 {
			t.Fatalf("score = %v", dets[0].Score)
		}
		if dets[0].TruthID != 1 {
			t.Fatalf("truth id = %d", dets[0].TruthID)
		}
	}
}

func TestDetectRegionFiltersByCenter(t *testing.T) {
	d := NewDetector(4, Config{MissBase: 0.001})
	objs := []scene.Observation{
		{ObjectID: 1, Box: geom.Rect{MinX: 10, MinY: 10, MaxX: 60, MaxY: 60}},     // centre (35,35)
		{ObjectID: 2, Box: geom.Rect{MinX: 300, MinY: 300, MaxX: 360, MaxY: 360}}, // centre (330,330)
	}
	region := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	found1, found2 := 0, 0
	for i := 0; i < 100; i++ {
		dets, err := d.DetectRegions([]geom.Rect{region}, objs)
		if err != nil {
			t.Fatal(err)
		}
		for _, det := range dets {
			switch det.TruthID {
			case 1:
				found1++
			case 2:
				found2++
			}
		}
	}
	if found1 < 95 {
		t.Fatalf("in-region object found %d/100", found1)
	}
	if found2 != 0 {
		t.Fatalf("out-of-region object found %d times", found2)
	}
}

func TestDetectRegionEmptyRegion(t *testing.T) {
	d := NewDetector(5, Config{})
	if _, err := d.DetectRegions([]geom.Rect{{}}, nil); err == nil {
		t.Fatal("empty region accepted")
	}
}

func TestRegionBonusImprovesRecall(t *testing.T) {
	// With a high base miss rate, partial-region inspection must find the
	// object noticeably more often than full-frame inspection.
	cfg := Config{MissBase: 0.3, RegionBonus: 0.3}
	obs := bigObs(1)
	region := geom.Rect{MinX: 50, MinY: 50, MaxX: 250, MaxY: 250}

	dFull := NewDetector(6, cfg)
	dRegion := NewDetector(6, cfg)
	full, reg := 0, 0
	for i := 0; i < 2000; i++ {
		if len(dFull.DetectFull([]scene.Observation{obs})) == 1 {
			full++
		}
		dets, err := dRegion.DetectRegions([]geom.Rect{region}, []scene.Observation{obs})
		if err != nil {
			t.Fatal(err)
		}
		if len(dets) == 1 {
			reg++
		}
	}
	if reg <= full {
		t.Fatalf("region recall %d not better than full %d", reg, full)
	}
}

func TestDetectRegionsDeduplicates(t *testing.T) {
	d := NewDetector(7, Config{MissBase: 0.001})
	obj := bigObs(1) // centre (150,140)
	regions := []geom.Rect{
		{MinX: 100, MinY: 100, MaxX: 200, MaxY: 200},
		{MinX: 120, MinY: 100, MaxX: 220, MaxY: 200}, // overlapping, same centre inside
	}
	dets, err := d.DetectRegions(regions, []scene.Observation{obj})
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 1 {
		t.Fatalf("dedup failed: %d detections", len(dets))
	}
}

func TestDetectRegionsPropagatesError(t *testing.T) {
	d := NewDetector(8, Config{})
	if _, err := d.DetectRegions([]geom.Rect{{}}, nil); err == nil {
		t.Fatal("empty region in batch accepted")
	}
}

func TestDetectorDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int {
		d := NewDetector(seed, Config{})
		total := 0
		for i := 0; i < 500; i++ {
			total += len(d.DetectFull([]scene.Observation{tinyObs(1)}))
		}
		return total
	}
	if run(42) != run(42) {
		t.Fatal("same seed differed")
	}
	if run(42) == run(43) {
		t.Log("note: different seeds coincided (possible but unlikely)")
	}
}

func TestDetectFullEmpty(t *testing.T) {
	d := NewDetector(9, Config{})
	if dets := d.DetectFull(nil); len(dets) != 0 {
		t.Fatalf("detections from nothing: %v", dets)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MissBase != 0.02 || c.NoiseFrac != 0.02 || c.MinSide != 20 || c.RegionBonus != 0.5 {
		t.Fatalf("defaults = %+v", c)
	}
	custom := Config{MissBase: 0.1, NoiseFrac: 0.05, MinSide: 10, RegionBonus: 0.8}.withDefaults()
	if custom.MissBase != 0.1 || custom.MinSide != 10 {
		t.Fatalf("custom overridden: %+v", custom)
	}
}

// referenceDetectRegions is DetectRegions as it was before the reused
// result buffer: one single-region inspection per region, a map of the
// truth IDs already returned. It is the oracle for both the detections
// and the random stream behind them.
func referenceDetectRegions(d *Detector, regions []geom.Rect, objs []scene.Observation) ([]Detection, error) {
	seen := make(map[int]bool)
	var out []Detection
	for _, r := range regions {
		if r.Empty() {
			return nil, errors.New("vision: empty inspection region")
		}
		for _, det := range d.detect(nil, objs, &r, d.cfg.RegionBonus) {
			if seen[det.TruthID] {
				continue
			}
			seen[det.TruthID] = true
			out = append(out, det)
		}
	}
	return out, nil
}

// overlappingScene lays n objects on a line with a region around each
// one that also takes in its right-hand neighbour's centre, so most
// objects are detected twice and deduplication has work to do.
func overlappingScene(n int) ([]geom.Rect, []scene.Observation) {
	regions := make([]geom.Rect, n)
	objs := make([]scene.Observation, n)
	for i := range objs {
		x := float64(40 + 70*i)
		objs[i] = scene.Observation{ObjectID: i + 1, Box: geom.Rect{MinX: x, MinY: 100, MaxX: x + 60, MaxY: 150}}
		regions[i] = geom.Rect{MinX: x - 20, MinY: 60, MaxX: x + 130, MaxY: 190}
	}
	return regions, objs
}

// TestDetectRegionsMatchesReference: two detectors on one seed, one
// driven through the old per-region path, must agree on every detection
// of every frame — which they only do while both consume the random
// stream identically, repeats included.
func TestDetectRegionsMatchesReference(t *testing.T) {
	regions, objs := overlappingScene(12)
	got, want := NewDetector(5, Config{MissBase: 0.2}), NewDetector(5, Config{MissBase: 0.2})
	repeats := 0
	for frame := 0; frame < 300; frame++ {
		a, err := got.DetectRegions(regions[:1+frame%len(regions)], objs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := referenceDetectRegions(want, regions[:1+frame%len(regions)], objs)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("frame %d: %d detections, reference %d", frame, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d detection %d: %+v, reference %+v", frame, i, a[i], b[i])
			}
		}
		if len(a) < 1+frame%len(regions) {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("no frame had anything to deduplicate")
	}
}

// TestDetectRegionsReusesItsBuffer is the budget (at most one allocation
// a call; none once the buffer has grown) and the documented price: the
// result is overwritten by the next call.
func TestDetectRegionsReusesItsBuffer(t *testing.T) {
	regions, objs := overlappingScene(12)
	d := NewDetector(6, Config{MissBase: 0.001})
	first, err := d.DetectRegions(regions, objs)
	if err != nil || len(first) == 0 {
		t.Fatalf("first call: %d detections, %v", len(first), err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.DetectRegions(regions, objs); err != nil {
			panic(err)
		}
	}); n > 1 {
		t.Fatalf("DetectRegions: %v allocs per call, want <= 1", n)
	}
	again, err := d.DetectRegions(regions, objs)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &first[0] {
		t.Fatal("result buffer not reused")
	}
}
