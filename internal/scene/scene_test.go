package scene

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mvs/internal/geom"
)

// testCamera returns a camera at the origin looking along +X, mounted
// high enough to see a long stretch of road.
func testCamera() *Camera {
	return &Camera{
		Name:   "c0",
		Pos:    geom.Point{X: 0, Y: 0},
		Height: 8,
		Yaw:    0,
		Pitch:  0.45,
		Focal:  1000,
		ImageW: 1280, ImageH: 704,
		MaxRange: 120,
	}
}

func carAt(x, y float64) ObjectState {
	return ObjectState{
		ID:      1,
		Pos:     geom.Point{X: x, Y: y},
		Heading: 0,
		Dims:    Dims{W: 1.8, L: 4.5, H: 1.5},
	}
}

func TestCameraValidate(t *testing.T) {
	good := testCamera()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		mutate func(*Camera)
		want   string // a fragment of the error
	}{
		{func(c *Camera) { c.Height = 0 }, "height 0 must be positive"},
		{func(c *Camera) { c.Pitch = 0 }, "pitch 0 must be in"},
		{func(c *Camera) { c.Pitch = math.Pi }, "must be in (0, pi/2)"},
		{func(c *Camera) { c.Focal = 0 }, "focal 0 must be positive"},
		{func(c *Camera) { c.ImageW = 0 }, "image 0x704 must be positive"},
		// Non-finite fields compare false with every bound, so each needs
		// its own check; before it, each of these cameras passed and then
		// saw nothing.
		{func(c *Camera) { c.Pitch = nan }, "pitch NaN must be finite"},
		{func(c *Camera) { c.Height = nan }, "height NaN must be finite"},
		{func(c *Camera) { c.ImageW = nan }, "image width NaN must be finite"},
		{func(c *Camera) { c.ImageH = inf }, "image height +Inf must be finite"},
		{func(c *Camera) { c.Yaw = nan }, "yaw NaN must be finite"},
		{func(c *Camera) { c.Focal = inf }, "focal +Inf must be finite"},
		{func(c *Camera) { c.Pos.X = -inf }, "position x -Inf must be finite"},
		{func(c *Camera) { c.Pos.Y = nan }, "position y NaN must be finite"},
		{func(c *Camera) { c.MaxRange = inf }, "max range +Inf must be finite"},
		{func(c *Camera) { c.MinPixelArea = nan }, "min pixel area NaN must be finite"},
		// A negative range read as "unlimited", a negative area as the
		// default: both were accepted silently.
		{func(c *Camera) { c.MaxRange = -1 }, "max range -1 must not be negative"},
		{func(c *Camera) { c.MinPixelArea = -64 }, "min pixel area -64 must not be negative"},
	}
	for i, tc := range cases {
		c := testCamera()
		tc.mutate(c)
		err := c.Validate()
		if err == nil {
			t.Errorf("case %d: invalid camera accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not say %q", i, err, tc.want)
		}
	}
	// The zero values keep their meanings: no range limit, default area.
	c := testCamera()
	c.MaxRange, c.MinPixelArea = 0, 0
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProjectPointBasics(t *testing.T) {
	c := testCamera()
	// A point straight ahead on the ground projects to the vertical
	// centreline, below the horizon.
	px, ok := c.pose().projectPoint(geom.Point{X: 20, Y: 0}, 0)
	if !ok {
		t.Fatal("point ahead not visible")
	}
	if math.Abs(px.X-c.ImageW/2) > 1e-9 {
		t.Fatalf("straight-ahead point off centreline: %v", px)
	}
	horizonY := c.ImageH/2 - c.Focal*math.Tan(c.Pitch)
	if px.Y <= horizonY {
		t.Fatalf("ground point above horizon (%v): %v", horizonY, px)
	}
	// A point behind the camera does not project.
	if _, ok := c.pose().projectPoint(geom.Point{X: -20, Y: 0}, 0); ok {
		t.Fatal("point behind camera projected")
	}
	// Nearer points project lower in the image.
	near, _ := c.pose().projectPoint(geom.Point{X: 10, Y: 0}, 0)
	far, _ := c.pose().projectPoint(geom.Point{X: 60, Y: 0}, 0)
	if near.Y <= far.Y {
		t.Fatalf("near %v not below far %v", near.Y, far.Y)
	}
	// A point to the left (positive Y with yaw 0) projects left of centre.
	left, _ := c.pose().projectPoint(geom.Point{X: 20, Y: 5}, 0)
	right, _ := c.pose().projectPoint(geom.Point{X: 20, Y: -5}, 0)
	if left.X == right.X {
		t.Fatal("lateral offset not visible in projection")
	}
}

func TestProjectBoxVisible(t *testing.T) {
	c := testCamera()
	box, ok := c.ProjectBox(carAt(25, 0))
	if !ok {
		t.Fatal("car ahead not visible")
	}
	if box.Empty() {
		t.Fatal("empty box for visible car")
	}
	if !c.Frame().ContainsRect(box) {
		t.Fatalf("box %v escapes frame", box)
	}
	// Farther car must be smaller.
	far, ok := c.ProjectBox(carAt(55, 0))
	if !ok {
		t.Fatal("far car not visible")
	}
	if far.Area() >= box.Area() {
		t.Fatalf("far car (%v) not smaller than near (%v)", far.Area(), box.Area())
	}
}

func TestProjectBoxInvisibleCases(t *testing.T) {
	c := testCamera()
	if _, ok := c.ProjectBox(carAt(-30, 0)); ok {
		t.Fatal("car behind camera visible")
	}
	if _, ok := c.ProjectBox(carAt(200, 0)); ok {
		t.Fatal("car beyond MaxRange visible")
	}
	if _, ok := c.ProjectBox(carAt(25, 100)); ok {
		t.Fatal("car far off-axis visible")
	}
}

func TestGroundFromPixelRoundTrip(t *testing.T) {
	c := testCamera()
	for _, p := range []geom.Point{{X: 15, Y: 0}, {X: 40, Y: 8}, {X: 70, Y: -12}, {X: 10, Y: 3}} {
		px, ok := c.pose().projectPoint(p, 0)
		if !ok {
			t.Fatalf("point %v not visible", p)
		}
		back, ok := c.GroundFromPixel(px)
		if !ok {
			t.Fatalf("pixel %v not invertible", px)
		}
		if back.Dist(p) > 1e-6 {
			t.Fatalf("round trip %v -> %v -> %v", p, px, back)
		}
	}
}

func TestGroundFromPixelHorizon(t *testing.T) {
	// Use a gentler pitch so the horizon line (v = cy − f·tanP) falls
	// inside the image; pixels above it must not unproject.
	c := testCamera()
	c.Pitch = 0.2 // horizon at v ≈ 352 − 203 = 149
	if _, ok := c.GroundFromPixel(geom.Point{X: 640, Y: 0}); ok {
		t.Fatal("above-horizon pixel hit the ground")
	}
	if _, ok := c.GroundFromPixel(geom.Point{X: 640, Y: 600}); !ok {
		t.Fatal("below-horizon pixel missed the ground")
	}
}

func TestGroundFromPixelYawInvariance(t *testing.T) {
	// Rotating the camera must rotate the unprojected point accordingly.
	c := testCamera()
	c.Yaw = math.Pi / 2 // looking along +Y
	px, ok := c.pose().projectPoint(geom.Point{X: 0, Y: 30}, 0)
	if !ok {
		t.Fatal("point along view dir not visible")
	}
	back, ok := c.GroundFromPixel(px)
	if !ok || back.Dist(geom.Point{X: 0, Y: 30}) > 1e-6 {
		t.Fatalf("yawed round trip = %v, %v", back, ok)
	}
}

func TestSeesGround(t *testing.T) {
	c := testCamera()
	if !c.SeesGround(geom.Point{X: 30, Y: 0}) {
		t.Fatal("ground point ahead not seen")
	}
	if c.SeesGround(geom.Point{X: -30, Y: 0}) {
		t.Fatal("ground point behind seen")
	}
}

func TestPathBasics(t *testing.T) {
	p, err := NewPath(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 0}, geom.Point{X: 10, Y: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.Length() != 20 {
		t.Fatalf("length = %v", p.Length())
	}
	pos, heading, ok := p.PosAt(5)
	if !ok || pos != (geom.Point{X: 5, Y: 0}) || heading != 0 {
		t.Fatalf("PosAt(5) = %v %v %v", pos, heading, ok)
	}
	pos, heading, ok = p.PosAt(15)
	if !ok || pos != (geom.Point{X: 10, Y: 5}) || math.Abs(heading-math.Pi/2) > 1e-9 {
		t.Fatalf("PosAt(15) = %v %v %v", pos, heading, ok)
	}
	if _, _, ok := p.PosAt(25); ok {
		t.Fatal("beyond end should be done")
	}
	if _, _, ok := p.PosAt(-1); ok {
		t.Fatal("negative dist should be invalid")
	}
}

func TestPathErrors(t *testing.T) {
	if _, err := NewPath(geom.Point{}); err == nil {
		t.Fatal("single waypoint accepted")
	}
	if _, err := NewPath(geom.Point{X: 1}, geom.Point{X: 1}); err == nil {
		t.Fatal("zero segment accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustPath did not panic")
		}
	}()
	MustPath(geom.Point{})
}

func TestPoissonArrivalsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Poisson{RatePerSec: 2}
	total := 0
	frames := 10000
	fps := 10.0
	for f := 0; f < frames; f++ {
		total += p.Arrivals(f, fps, rng)
	}
	// Expect ~2 arrivals/sec * 1000 sec = 2000, allow 10%.
	if total < 1800 || total > 2200 {
		t.Fatalf("total arrivals = %d, want ~2000", total)
	}
}

func TestTrafficLightGatesArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tl := TrafficLight{RatePerSec: 5, PeriodSec: 10, GreenStartSec: 0, GreenDurSec: 3}
	fps := 10.0
	greenTotal, redTotal := 0, 0
	for f := 0; f < 20000; f++ {
		sec := math.Mod(float64(f)/fps, 10)
		n := tl.Arrivals(f, fps, rng)
		if sec < 3 {
			greenTotal += n
		} else {
			redTotal += n
		}
	}
	if redTotal != 0 {
		t.Fatalf("arrivals during red: %d", redTotal)
	}
	if greenTotal == 0 {
		t.Fatal("no arrivals during green")
	}
}

func TestTrafficLightOffsetPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tl := TrafficLight{RatePerSec: 5, PeriodSec: 10, GreenStartSec: 7, GreenDurSec: 5}
	fps := 10.0
	// Green wraps the period boundary: [7, 10) and [0, 2).
	for f := 0; f < 2000; f++ {
		sec := math.Mod(float64(f)/fps, 10)
		n := tl.Arrivals(f, fps, rng)
		inGreen := sec >= 7 || sec < 2
		if n > 0 && !inGreen {
			t.Fatalf("arrival at sec %v outside wrapped green", sec)
		}
	}
}

func TestBurst(t *testing.T) {
	b := Burst{Frame: 5, Count: 3}
	if b.Arrivals(5, 10, nil) != 3 {
		t.Fatal("burst frame wrong")
	}
	if b.Arrivals(4, 10, nil) != 0 || b.Arrivals(6, 10, nil) != 0 {
		t.Fatal("non-burst frame spawned")
	}
}

func testWorld(seed int64) *World {
	road := MustPath(geom.Point{X: 5, Y: -40}, geom.Point{X: 5, Y: 40})
	camA := &Camera{
		Name: "a", Pos: geom.Point{X: 0, Y: -50}, Height: 8, Yaw: math.Pi / 2,
		Pitch: 0.4, Focal: 1000, ImageW: 1280, ImageH: 704, MaxRange: 100,
	}
	camB := &Camera{
		Name: "b", Pos: geom.Point{X: 0, Y: 50}, Height: 8, Yaw: -math.Pi / 2,
		Pitch: 0.4, Focal: 1000, ImageW: 1280, ImageH: 704, MaxRange: 100,
	}
	return &World{
		Routes: []Route{{
			Path: road, Speed: 8, Arrivals: Poisson{RatePerSec: 0.5},
		}},
		Cameras: []*Camera{camA, camB},
		FPS:     10,
		Seed:    seed,
	}
}

func TestWorldRunProducesTraffic(t *testing.T) {
	w := testWorld(1)
	trace, err := w.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Frames) != 600 {
		t.Fatalf("frames = %d", len(trace.Frames))
	}
	totalObjects := 0
	totalObs := 0
	for _, f := range trace.Frames {
		totalObjects += len(f.Objects)
		for _, obs := range f.PerCamera {
			totalObs += len(obs)
		}
	}
	if totalObjects == 0 {
		t.Fatal("no objects simulated")
	}
	if totalObs == 0 {
		t.Fatal("no observations projected")
	}
}

func TestWorldDeterministic(t *testing.T) {
	t1, err := testWorld(7).Run(200)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := testWorld(7).Run(200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1.Frames {
		if len(t1.Frames[i].Objects) != len(t2.Frames[i].Objects) {
			t.Fatalf("frame %d differs", i)
		}
		for j := range t1.Frames[i].Objects {
			if t1.Frames[i].Objects[j] != t2.Frames[i].Objects[j] {
				t.Fatalf("frame %d object %d differs", i, j)
			}
		}
	}
	t3, err := testWorld(8).Run(200)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range t1.Frames {
		if len(t1.Frames[i].Objects) != len(t3.Frames[i].Objects) {
			same = false
			break
		}
	}
	if same {
		t.Log("warning: different seeds produced same object counts (possible, unlikely)")
	}
}

func TestWorldObjectsMoveAndLeave(t *testing.T) {
	w := testWorld(3)
	w.Routes[0].Arrivals = Burst{Frame: 0, Count: 1}
	trace, err := w.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Frames[0].Objects) != 1 {
		t.Fatalf("frame 0 objects = %d", len(trace.Frames[0].Objects))
	}
	first := trace.Frames[0].Objects[0]
	later := trace.Frames[10].Objects
	if len(later) != 1 {
		t.Fatalf("object vanished early")
	}
	if later[0].Pos == first.Pos {
		t.Fatal("object did not move")
	}
	// Path is 80m at ~8 m/s => gone by frame ~110.
	if len(trace.Frames[399].Objects) != 0 {
		t.Fatal("object did not leave the world")
	}
}

func TestWorldValidate(t *testing.T) {
	w := testWorld(1)
	w.FPS = 0
	if _, err := w.Run(10); err == nil {
		t.Fatal("zero fps accepted")
	}
	w = testWorld(1)
	w.Routes = nil
	if _, err := w.Run(10); err == nil {
		t.Fatal("no routes accepted")
	}
	w = testWorld(1)
	w.Cameras = nil
	if _, err := w.Run(10); err == nil {
		t.Fatal("no cameras accepted")
	}
	w = testWorld(1)
	if _, err := w.Run(0); err == nil {
		t.Fatal("zero frames accepted")
	}
	w = testWorld(1)
	w.Routes[0].Speed = 0
	if _, err := w.Run(10); err == nil {
		t.Fatal("zero speed accepted")
	}
}

// TestWorldValidateTrafficLight covers the traffic light's fields: with
// a period of 0 or NaN, Arrivals' phase was NaN and the light green on
// every frame, and such a world passed Validate. Each case must fail
// Validate naming the route and the field, and Run must return that
// error; a light of any finite green phase and a positive period passes.
func TestWorldValidateTrafficLight(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	light := TrafficLight{RatePerSec: 5, PeriodSec: 60, GreenStartSec: 10, GreenDurSec: 20}
	cases := []struct {
		mutate func(*TrafficLight)
		want   string // a fragment of the error
	}{
		{func(l *TrafficLight) { l.PeriodSec = 0 }, "route 1 traffic light period 0 must be positive and finite"},
		{func(l *TrafficLight) { l.PeriodSec = -60 }, "route 1 traffic light period -60 must be positive and finite"},
		{func(l *TrafficLight) { l.PeriodSec = nan }, "route 1 traffic light period NaN must be positive and finite"},
		{func(l *TrafficLight) { l.PeriodSec = inf }, "route 1 traffic light period +Inf must be positive and finite"},
		{func(l *TrafficLight) { l.RatePerSec = nan }, "route 1 traffic light rate NaN must be finite"},
		{func(l *TrafficLight) { l.RatePerSec = inf }, "route 1 traffic light rate +Inf must be finite"},
		{func(l *TrafficLight) { l.GreenStartSec = nan }, "route 1 traffic light green start NaN must be finite"},
		{func(l *TrafficLight) { l.GreenStartSec = -inf }, "route 1 traffic light green start -Inf must be finite"},
		{func(l *TrafficLight) { l.GreenDurSec = nan }, "route 1 traffic light green duration NaN must be finite"},
		{func(l *TrafficLight) { l.GreenDurSec = inf }, "route 1 traffic light green duration +Inf must be finite"},
	}
	world := func(l ArrivalProcess) *World {
		w := testWorld(1)
		w.Routes = append(w.Routes, w.Routes[0])
		w.Routes[1].Arrivals = l
		return w
	}
	for i, tc := range cases {
		l := light
		tc.mutate(&l)
		for _, w := range []*World{world(l), world(&l)} {
			if err := w.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("case %d: Validate error %v, want one saying %q", i, err, tc.want)
			}
			if _, err := w.Run(5); err == nil {
				t.Errorf("case %d: Run accepted the world", i)
			}
		}
	}
	for _, l := range []TrafficLight{light, {PeriodSec: 1e-3, GreenStartSec: -5, GreenDurSec: 0}} {
		if err := world(l).Validate(); err != nil {
			t.Errorf("%+v refused: %v", l, err)
		}
	}
}

// TestWorldValidateNonFinite covers the world's float fields that a NaN
// would slip past: a NaN frame rate passed Validate and then hung Run in
// samplePoisson, whose loop a NaN mean never ends. Each case must fail
// Validate with the field's name, and Run must return that error.
func TestWorldValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		mutate func(*World)
		want   string // a fragment of the error
	}{
		{func(w *World) { w.FPS = nan }, "fps NaN must be positive and finite"},
		{func(w *World) { w.FPS = inf }, "fps +Inf must be positive and finite"},
		{func(w *World) { w.FPS = -inf }, "fps -Inf must be positive and finite"},
		{func(w *World) { w.Routes[0].Speed = nan }, "route 0 speed NaN must be finite"},
		{func(w *World) { w.Routes[0].Speed = inf }, "route 0 speed +Inf must be finite"},
		{func(w *World) { w.Routes[0].SpeedJitter = nan }, "route 0 speed jitter NaN must be finite"},
		{func(w *World) { w.Routes[0].SpeedJitter = -inf }, "route 0 speed jitter -Inf must be finite"},
		{func(w *World) { w.Routes[0].HeadwayMin = nan }, "route 0 min headway NaN must be finite"},
		{func(w *World) { w.Routes[0].HeadwayMin = inf }, "route 0 min headway +Inf must be finite"},
		{func(w *World) { w.OcclusionFrac = nan }, "occlusion fraction NaN must be in [0, 1]"},
		{func(w *World) { w.OcclusionFrac = -0.1 }, "occlusion fraction -0.1 must be in [0, 1]"},
		{func(w *World) { w.OcclusionFrac = 1.5 }, "occlusion fraction 1.5 must be in [0, 1]"},
	}
	for i, tc := range cases {
		w := testWorld(1)
		tc.mutate(w)
		err := w.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: Validate error %v, want one saying %q", i, err, tc.want)
			continue
		}
		done := make(chan error, 1)
		go func() {
			_, err := w.Run(5)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("case %d: Run accepted the world", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("case %d: Run(5) still running after 10 s", i)
		}
	}
	// The bounds of the occlusion fraction are valid.
	for _, frac := range []float64{0, 1} {
		w := testWorld(1)
		w.OcclusionFrac = frac
		if err := w.Validate(); err != nil {
			t.Errorf("occlusion fraction %v refused: %v", frac, err)
		}
	}
	// A NaN mean draws no arrivals instead of looping.
	rng := rand.New(rand.NewSource(1))
	if n := (Poisson{RatePerSec: nan}).Arrivals(0, 10, rng); n != 0 {
		t.Errorf("NaN rate drew %d arrivals, want 0", n)
	}
	if n := samplePoisson(nan, rng); n != 0 {
		t.Errorf("samplePoisson(NaN) = %d, want 0", n)
	}
}

func TestOverlappingViewsShareObjects(t *testing.T) {
	// Both cameras face the road from opposite ends; mid-road objects
	// should be visible to both.
	w := testWorld(5)
	w.Routes[0].Arrivals = Burst{Frame: 0, Count: 1}
	trace, err := w.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, f := range trace.Frames {
		if len(f.PerCamera[0]) > 0 && len(f.PerCamera[1]) > 0 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no frame had the object visible from both cameras")
	}
}

func TestSplitTrain(t *testing.T) {
	trace, err := testWorld(1).Run(100)
	if err != nil {
		t.Fatal(err)
	}
	train, test := trace.SplitTrain()
	if len(train.Frames) != 50 || len(test.Frames) != 50 {
		t.Fatalf("split = %d/%d", len(train.Frames), len(test.Frames))
	}
	if test.Frames[0].Index != 50 {
		t.Fatalf("test starts at frame %d", test.Frames[0].Index)
	}
}

func TestObjectCounts(t *testing.T) {
	trace, err := testWorld(2).Run(100)
	if err != nil {
		t.Fatal(err)
	}
	counts := trace.ObjectCounts(20)
	if len(counts) != 2 {
		t.Fatalf("cameras = %d", len(counts))
	}
	if len(counts[0]) != 5 {
		t.Fatalf("samples = %d", len(counts[0]))
	}
	// sampleEvery <= 0 defaults to 1.
	all := trace.ObjectCounts(0)
	if len(all[0]) != 100 {
		t.Fatalf("default sampling = %d", len(all[0]))
	}
}

func TestVisibleObjectIDs(t *testing.T) {
	f := FrameTruth{
		PerCamera: [][]Observation{
			{{ObjectID: 1}, {ObjectID: 2}},
			{{ObjectID: 2}, {ObjectID: 3}},
		},
	}
	ids := f.VisibleObjectIDs()
	if len(ids) != 3 || !ids[1] || !ids[2] || !ids[3] {
		t.Fatalf("ids = %v", ids)
	}
}

func TestHeadwayPreventsStacking(t *testing.T) {
	w := testWorld(9)
	w.Routes[0].Arrivals = Burst{Frame: 0, Count: 5}
	w.Routes[0].HeadwayMin = 8
	trace, err := w.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	// At every frame, vehicles on the route must be >= ~headway apart.
	for _, f := range trace.Frames {
		for i := 0; i < len(f.Objects); i++ {
			for j := i + 1; j < len(f.Objects); j++ {
				d := f.Objects[i].Pos.Dist(f.Objects[j].Pos)
				if d < 4 { // allow some slack for speed jitter catching up
					t.Fatalf("frame %d: vehicles %d apart", f.Index, int(d))
				}
			}
		}
	}
}

func TestOcclusionHidesFartherObject(t *testing.T) {
	w := testWorld(11)
	w.OcclusionFrac = 0.5
	// Two vehicles in single file along the road toward camera A.
	w.Routes[0].Arrivals = Burst{Frame: 0, Count: 2}
	w.Routes[0].HeadwayMin = 7
	w.Routes[0].SpeedJitter = 0.001
	withOcc, err := w.Run(150)
	if err != nil {
		t.Fatal(err)
	}
	w2 := testWorld(11)
	w2.Routes[0].Arrivals = Burst{Frame: 0, Count: 2}
	w2.Routes[0].HeadwayMin = 7
	w2.Routes[0].SpeedJitter = 0.001
	noOcc, err := w2.Run(150)
	if err != nil {
		t.Fatal(err)
	}
	// Camera A looks straight down the road: the trailing vehicle must
	// be hidden in at least some frames that the occlusion-free world
	// shows it in.
	hiddenFrames := 0
	for fi := range withOcc.Frames {
		if len(noOcc.Frames[fi].PerCamera[0]) > len(withOcc.Frames[fi].PerCamera[0]) {
			hiddenFrames++
		}
	}
	if hiddenFrames == 0 {
		t.Fatal("occlusion never hid anything in a single-file convoy")
	}
}

func TestOcclusionDisabledByDefault(t *testing.T) {
	w := testWorld(12)
	if w.OcclusionFrac != 0 {
		t.Fatal("occlusion enabled by default")
	}
}

func TestOcclusionNeverHidesNearest(t *testing.T) {
	w := testWorld(13)
	w.OcclusionFrac = 0.3
	w.Routes[0].Arrivals = Burst{Frame: 0, Count: 3}
	trace, err := w.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	// In every frame where the occlusion-free projection would show
	// something, the nearest visible object must survive occlusion
	// filtering (only strictly closer objects can hide).
	for fi := range trace.Frames {
		f := &trace.Frames[fi]
		if len(f.Objects) == 0 {
			continue
		}
		for ci, cam := range trace.Cameras {
			// Find the nearest object that projects at all.
			nearestID := -1
			nearestDist := 1e18
			for _, s := range f.Objects {
				if _, ok := cam.ProjectBox(s); !ok {
					continue
				}
				if d := s.Pos.Dist(cam.Pos); d < nearestDist {
					nearestDist = d
					nearestID = s.ID
				}
			}
			if nearestID == -1 {
				continue
			}
			found := false
			for _, o := range f.PerCamera[ci] {
				if o.ObjectID == nearestID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("frame %d cam %d: nearest object %d occluded", fi, ci, nearestID)
			}
		}
	}
}
