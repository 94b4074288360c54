package scene

import (
	"math"
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

// FuzzProjectBoxRangeCull holds projectBox's leg cull to the plain range
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
		got, gotOK := c.pose().projectBox(s)

		want, wantOK := geom.Rect{}, false
		if !(c.MaxRange > 0 && s.Pos.Dist(c.Pos) > c.MaxRange) {
			open := *c
			open.MaxRange = 0
			want, wantOK = open.pose().projectBox(s)
		}
		if gotOK != wantOK || rectBits(got) != rectBits(want) {
			t.Fatalf("object (%v, %v), camera (%v, %v), range %v: culled projection %v %v, plain range test %v %v",
				x, y, cx, cy, maxRange, got, gotOK, want, wantOK)
		}
	})
}

// rectBits returns r's coordinates as bit patterns, so that two boxes
// compare equal exactly when they are the same floats, NaN included.
func rectBits(r geom.Rect) [4]uint64 {
	return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
}
