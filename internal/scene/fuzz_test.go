package scene

import (
	"math"
	"math/rand"
	"testing"

	"mvs/internal/geom"
)

// FuzzUnmarshalCameras feeds arbitrary JSON to the camera-roster decoder
// every run-store open reads a manifest through: it must never panic,
// and anything it accepts must round-trip through MarshalCameras.
func FuzzUnmarshalCameras(f *testing.F) {
	trace, err := testWorld(1).Run(5)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := MarshalCameras(trace.Cameras)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add(`[]`)
	f.Add(`null`)
	f.Add(`garbage`)
	f.Add(`[{"name":"x","height":5,"pitch":0.4,"focal":100,"image_w":10,"image_h":10}]`)

	f.Fuzz(func(t *testing.T, data string) {
		got, err := UnmarshalCameras([]byte(data))
		if err != nil {
			return
		}
		roster, err := MarshalCameras(got)
		if err != nil {
			t.Fatalf("accepted roster failed to encode: %v", err)
		}
		again, err := UnmarshalCameras(roster)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if len(again) != len(got) {
			t.Fatal("round trip changed the roster's length")
		}
	})
}

// FuzzProjectBoxRangeCull holds ProjectBox's leg cull to the plain range
// test it short-cuts: on any object and camera position and any range,
// finite, huge, subnormal, infinite or NaN, the box and visibility equal
// those of "Pos.Dist(c.Pos) > MaxRange, else project with no range".
func FuzzProjectBoxRangeCull(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range [][5]float64{
		// testCamera sees the ground from about 8 to 71 m ahead, so at a
		// 40 m range the cull decides what is visible.
		{30, 0, 0, 0, 40},  // in range and in view
		{45, 0, 0, 0, 40},  // a leg alone exceeds the range
		{38, 15, 0, 0, 40}, // both legs inside, the hypotenuse not
		{40, 0, 0, 0, 40},  // on the circle: still in range
		{130, 0, 0, 0, 120},
		{100, 100, 0, 0, 120},
		{84.85, 84.85, 0, 0, 120},
		{1e300, 1e300, 0, 0, 120},    // Hypot's scaling
		{5e-324, -5e-324, 0, 0, 120}, // subnormal legs
		{inf, 0, 0, 0, 120},
		{-inf, nan, 0, 0, 120},
		// A NaN leg with a culled one: the distance is NaN, so the plain
		// test keeps the object and the leg cull drops it. The results
		// agree because a NaN position projects to nothing visible.
		{nan, 1e300, 0, 0, 120},
		{nan, 0, 0, 0, 120},
		{30, 0, inf, 0, 120},
		{30, 0, 0, 0, inf},
		{30, 0, 0, 0, nan},
		{30, 0, 0, 0, -5},
		{30, 0, 0, 0, 5e-324},
		{1e308, -1e308, -1e308, 1e308, 1e308},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	f.Fuzz(func(t *testing.T, x, y, cx, cy, maxRange float64) {
		c := testCamera()
		c.Pos, c.MaxRange = geom.Point{X: cx, Y: cy}, maxRange
		s := carAt(x, y)
		got, gotOK := c.ProjectBox(s)

		want, wantOK := geom.Rect{}, false
		if !(c.MaxRange > 0 && s.Pos.Dist(c.Pos) > c.MaxRange) {
			open := *c
			open.MaxRange = 0
			want, wantOK = open.ProjectBox(s)
		}
		if gotOK != wantOK || rectBits(got) != rectBits(want) {
			t.Fatalf("object (%v, %v), camera (%v, %v), range %v: culled projection %v %v, plain range test %v %v",
				x, y, cx, cy, maxRange, got, gotOK, want, wantOK)
		}
	})
}

// FuzzCamGrid holds World.Run's camera grid to the tests it stands in
// for: on a roster drawn from the input, the grid's list for a position
// must hold every camera that sees an object there (ProjectBox) and every
// camera whose range test passes, in ascending order and without
// duplicates. Rosters mix unlimited ranges, ranges down to the smallest
// subnormal and up to ones whose square overflows, and cameras placed to
// face the object; positions include the fuzzed one, which may be huge,
// infinite or NaN, and the floats on either side of each range square's
// edges and corners.
func FuzzCamGrid(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range []struct {
		seed int64
		n    uint8
		x, y float64
	}{
		{1, 4, 0, 0},
		{2, 16, 30, -7},
		{3, 1, 1e300, -1e300},
		{4, 8, inf, 0},
		{5, 8, 0, -inf},
		{6, 8, nan, 5},
		{7, 12, 1e15, 3},
		{8, 3, 5e-324, -5e-324},
		{9, 30, 0.1, 0.3},
		{10, 9, -1.7e308, 1.7e308},
	} {
		f.Add(s.seed, s.n, s.x, s.y)
	}
	ranges := []float64{0, 0, 40, 68, 120, 0.3, 1e-300, 5e-324, 1e308, math.MaxFloat64}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, x, y float64) {
		rng := rand.New(rand.NewSource(seed))
		cams := make([]*Camera, 1+int(n)%24)
		for i := range cams {
			c := testCamera()
			c.Yaw = rng.Float64() * 2 * math.Pi
			c.MaxRange = ranges[rng.Intn(len(ranges))]
			switch rng.Intn(4) {
			case 0: // facing the object from 10-70 m, where testCamera sees the ground
				d := 10 + 60*rng.Float64()
				c.Pos = geom.Point{X: x - d*math.Cos(c.Yaw), Y: y - d*math.Sin(c.Yaw)}
			case 1: // near the object
				c.Pos = geom.Point{X: x + 200*(rng.Float64()-0.5), Y: y + 200*(rng.Float64()-0.5)}
			case 2: // near the origin
				c.Pos = geom.Point{X: 500 * (rng.Float64() - 0.5), Y: 500 * (rng.Float64() - 0.5)}
			default: // anywhere, far ones included
				c.Pos = geom.Point{X: math.Ldexp(rng.Float64()-0.5, rng.Intn(2048)-1074), Y: math.Ldexp(rng.Float64()-0.5, rng.Intn(2048)-1074)}
			}
			cams[i] = c
		}
		positions := []geom.Point{{X: x, Y: y}}
		for _, c := range cams {
			r := c.MaxRange
			for _, ex := range []float64{c.Pos.X - r, c.Pos.X, c.Pos.X + r} {
				for _, ey := range []float64{c.Pos.Y - r, c.Pos.Y, c.Pos.Y + r} {
					for _, px := range []float64{math.Nextafter(ex, -inf), ex, math.Nextafter(ex, inf)} {
						for _, py := range []float64{math.Nextafter(ey, -inf), ey, math.Nextafter(ey, inf)} {
							positions = append(positions, geom.Point{X: px, Y: py})
						}
					}
				}
			}
		}
		g := newCamGrid(cams)
		for _, pos := range positions {
			list := g.near(pos)
			for k := 1; k < len(list); k++ {
				if list[k] <= list[k-1] {
					t.Fatalf("position %v: list %v not strictly ascending", pos, list)
				}
			}
			listed := make([]bool, len(cams))
			for _, ci := range list {
				listed[ci] = true
			}
			obj := carAt(pos.X, pos.Y)
			obj.Heading = 2 * math.Pi * rng.Float64()
			for ci, c := range cams {
				if listed[ci] {
					continue
				}
				if _, ok := c.ProjectBox(obj); ok {
					t.Fatalf("position %v: camera %d (at %v, range %v) sees the object but is not listed in %v", pos, ci, c.Pos, c.MaxRange, list)
				}
				dx, dy := pos.X-c.Pos.X, pos.Y-c.Pos.Y
				if r := c.MaxRange; !(r > 0) || !(math.Abs(dx) > r || math.Abs(dy) > r || math.Hypot(dx, dy) > r) {
					t.Fatalf("position %v: camera %d (at %v, range %v) passes the range test but is not listed in %v", pos, ci, c.Pos, c.MaxRange, list)
				}
			}
		}
	})
}

// TestCamGridRangeEdge pins a case the square's pad exists for, which
// random rosters rarely draw: the object sits one float below camera 1's
// rounded edge b−r, yet its offset from the camera rounds to exactly −r,
// so the range test passes; camera 0's square puts a cell boundary
// between the two floats.
func TestCamGridRangeEdge(t *testing.T) {
	const b, r = 0.4377141871869802, 4.0
	cams := []*Camera{testCamera(), testCamera()}
	cams[0].Pos, cams[0].MaxRange = geom.Point{X: b - r}, r
	cams[1].Pos, cams[1].MaxRange = geom.Point{X: b}, r
	x := math.Nextafter(b-r, math.Inf(-1))
	if dx := x - b; math.Abs(dx) > r {
		t.Fatalf("offset %v is out of range: the case no longer tests the edge", dx)
	}
	list := newCamGrid(cams).near(geom.Point{X: x})
	if len(list) != 2 || list[1] != 1 {
		t.Fatalf("position %v: list %v, want camera 1 listed", x, list)
	}
}

// rectBits returns r's coordinates as bit patterns, so that two boxes
// compare equal exactly when they are the same floats, NaN included.
func rectBits(r geom.Rect) [4]uint64 {
	return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
}
