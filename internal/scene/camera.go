// Package scene simulates the multi-camera world that stands in for the
// AI City Challenge dataset: vehicles follow road paths through a
// monitored area while statically mounted cameras with partially
// overlapping fields of view project them to per-camera pixel bounding
// boxes.
//
// The camera model is a full pinhole projection of 3D vehicle boxes (not
// a planar map), so the pixel-space mapping of a bounding box between two
// cameras is genuinely non-linear in the box coordinates — the property
// that makes the paper's KNN association outperform homography (Fig. 11).
package scene

import (
	"fmt"
	"math"

	"mvs/internal/geom"
)

// Dims is the physical size of an object in metres.
type Dims struct {
	// W is width (across the heading), L length (along it), H height.
	W, L, H float64
}

// ObjectState is the ground truth for one object at one frame.
type ObjectState struct {
	// ID is a world-unique object identifier.
	ID int
	// Pos is the ground-plane position of the object's centre (metres).
	Pos geom.Point
	// Heading is the travel direction in radians.
	Heading float64
	// Speed is the current speed in metres/second.
	Speed float64
	// Dims is the physical bounding box.
	Dims Dims
}

// Camera is a statically mounted pinhole camera observing the ground
// plane.
type Camera struct {
	// Name labels the camera in experiment output.
	Name string
	// Pos is the ground position of the mount (metres).
	Pos geom.Point
	// Height is the mount height above ground (metres).
	Height float64
	// Yaw is the viewing direction in the ground plane (radians).
	Yaw float64
	// Pitch is the downward tilt (radians, positive = down).
	Pitch float64
	// Focal is the focal length in pixels.
	Focal float64
	// ImageW, ImageH are the image dimensions in pixels.
	ImageW, ImageH float64
	// MaxRange is the furthest ground distance (metres) at which objects
	// are still visible; 0 means unlimited.
	MaxRange float64
	// MinPixelArea is the smallest projected box area still considered
	// visible (objects smaller than this are below detector resolution).
	MinPixelArea float64
}

// Validate checks the camera parameters. Every field that enters the
// projection must be finite: a NaN compares false with everything, so a
// NaN height, pitch, yaw or image size (or an infinite focal length)
// would otherwise pass and leave a camera that silently sees nothing.
// MaxRange and MinPixelArea may be zero (no range limit, the default
// area) but not negative, which project would read as zero.
func (c *Camera) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"position x", c.Pos.X}, {"position y", c.Pos.Y}, {"height", c.Height},
		{"yaw", c.Yaw}, {"pitch", c.Pitch}, {"focal", c.Focal},
		{"image width", c.ImageW}, {"image height", c.ImageH},
		{"max range", c.MaxRange}, {"min pixel area", c.MinPixelArea},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scene: camera %q %s %v must be finite", c.Name, f.name, f.v)
		}
	}
	if c.Height <= 0 {
		return fmt.Errorf("scene: camera %q height %v must be positive", c.Name, c.Height)
	}
	if c.Pitch <= 0 || c.Pitch >= math.Pi/2 {
		return fmt.Errorf("scene: camera %q pitch %v must be in (0, pi/2)", c.Name, c.Pitch)
	}
	if c.Focal <= 0 {
		return fmt.Errorf("scene: camera %q focal %v must be positive", c.Name, c.Focal)
	}
	if c.ImageW <= 0 || c.ImageH <= 0 {
		return fmt.Errorf("scene: camera %q image %vx%v must be positive", c.Name, c.ImageW, c.ImageH)
	}
	if c.MaxRange < 0 {
		return fmt.Errorf("scene: camera %q max range %v must not be negative (0 means unlimited)", c.Name, c.MaxRange)
	}
	if c.MinPixelArea < 0 {
		return fmt.Errorf("scene: camera %q min pixel area %v must not be negative (0 means the default)", c.Name, c.MinPixelArea)
	}
	return nil
}

// Frame returns the camera's image rectangle in pixels.
func (c *Camera) Frame() geom.Rect {
	return geom.Rect{MinX: 0, MinY: 0, MaxX: c.ImageW, MaxY: c.ImageH}
}

// nearPlane is the minimum forward distance (metres) for a point to
// project; anything closer is behind or degenerate.
const nearPlane = 0.5

// pose is a camera with the cosines and sines of its fixed yaw and pitch
// taken once. Every projection goes through one: World.Run builds one per
// camera before its frame loop, and the exported methods build one per
// call. A box is projected from its shape (shape.of), which World.Run
// takes once per object and frame for all the cameras in reach, so a
// (camera, object) pair costs the range test and, in range, the centre
// and the four corners' bottom and top, each corner's ground offsets
// taken once for both.
type pose struct {
	*Camera
	cosT, sinT float64 // yaw
	cosP, sinP float64 // pitch
}

func (c *Camera) pose() pose {
	return pose{
		Camera: c,
		cosT:   math.Cos(c.Yaw),
		sinT:   math.Sin(c.Yaw),
		cosP:   math.Cos(c.Pitch),
		sinP:   math.Sin(c.Pitch),
	}
}

// ground returns a ground point's forward and lateral offsets from the
// camera: the half of its camera coordinates that does not depend on the
// height, which a box corner takes once for its bottom and its top.
//
// An architecture that fuses multiply-adds (arm64) fuses one product of
// each sum here and in lift, and which one would follow the compiler's
// inlining. An explicit conversion rounds the other, so the same product
// fuses wherever these lines are inlined. On amd64, which never fuses,
// the conversions change nothing.
func (p pose) ground(pt geom.Point) (forward, lateral float64) {
	d := pt.Sub(p.Pos)
	forward = d.X*p.cosT + float64(d.Y*p.sinT)
	lateral = float64(-d.X*p.sinT) + d.Y*p.cosT
	return forward, lateral
}

// lift returns the (right, down, forward) camera coordinates of the point
// at height z above ground offsets.
func (p pose) lift(forward, lateral, z float64) (x, y, zc float64) {
	x = lateral
	y = float64((p.Height-z)*p.cosP) - forward*p.sinP
	zc = forward*p.cosP + float64((p.Height-z)*p.sinP)
	return x, y, zc
}

// projectPoint projects a world point at height z to pixel coordinates.
// The boolean is false when the point is behind the near plane.
func (p pose) projectPoint(pt geom.Point, z float64) (geom.Point, bool) {
	forward, lateral := p.ground(pt)
	return p.pixel(p.lift(forward, lateral, z))
}

// pixel maps camera coordinates to pixel coordinates, false behind the
// near plane.
func (p pose) pixel(x, y, zc float64) (geom.Point, bool) {
	if zc < nearPlane {
		return geom.Point{}, false
	}
	return geom.Point{
		X: p.ImageW/2 + p.Focal*x/zc,
		Y: p.ImageH/2 + p.Focal*y/zc,
	}, true
}

// ProjectBox projects the 3D bounding box of an object state to its 2D
// pixel bounding box, clipped to the image. The boolean reports
// visibility: every corner in front of the camera, the ground centre
// within range, and enough projected area inside the frame.
func (c *Camera) ProjectBox(s ObjectState) (geom.Rect, bool) {
	var sh shape
	sh.of(s)
	box, _, ok := c.pose().project(&sh)
	return box, ok
}

// shape is the part of an object's box that no camera changes: its
// ground centre, its height and its four ground corners.
type shape struct {
	pos     geom.Point
	h       float64
	corners [4]geom.Point
}

// of sets sh to the shape of s.
func (sh *shape) of(s ObjectState) {
	cosH, sinH := math.Cos(s.Heading), math.Sin(s.Heading)
	fwd := geom.Point{X: cosH, Y: sinH}
	side := geom.Point{X: -sinH, Y: cosH}
	sh.pos, sh.h = s.Pos, s.Dims.H
	i := 0
	for _, df := range [2]float64{-s.Dims.L / 2, s.Dims.L / 2} {
		for _, ds := range [2]float64{-s.Dims.W / 2, s.Dims.W / 2} {
			sh.corners[i] = s.Pos.Add(fwd.Scale(df)).Add(side.Scale(ds))
			i++
		}
	}
}

// project is ProjectBox of a shape. For a camera with a MaxRange, dist is
// the object's ground distance from it, Pos.Dist of the two, as the
// range test took it; without one it is 0.
func (p pose) project(sh *shape) (box geom.Rect, dist float64, ok bool) {
	if r := p.MaxRange; r > 0 {
		// Most objects are far out of range: cull on either leg before
		// taking the hypotenuse. This is exact, because Hypot returns
		// max·sqrt(1+(min/max)²), never less than the longer leg.
		dx, dy := sh.pos.X-p.Pos.X, sh.pos.Y-p.Pos.Y
		if math.Abs(dx) > r || math.Abs(dy) > r {
			return geom.Rect{}, 0, false
		}
		if dist = math.Hypot(dx, dy); dist > r {
			return geom.Rect{}, 0, false
		}
	}
	// Require the object centre to be within the frame: objects sliced in
	// half at the border are not reliably trackable. Every test is pure,
	// so their order cannot change the result, and this one, a single
	// point, goes before the box's eight.
	centre, ok := p.projectPoint(sh.pos, sh.h/2)
	if !ok || !p.Frame().Contains(centre) {
		return geom.Rect{}, 0, false
	}
	box = geom.Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
	for _, corner := range sh.corners {
		forward, lateral := p.ground(corner)
		for _, z := range [2]float64{0, sh.h} {
			px, ok := p.pixel(p.lift(forward, lateral, z))
			if !ok {
				return geom.Rect{}, 0, false
			}
			box.MinX = min(box.MinX, px.X)
			box.MinY = min(box.MinY, px.Y)
			box.MaxX = max(box.MaxX, px.X)
			box.MaxY = max(box.MaxY, px.Y)
		}
	}
	clipped := box.Clamp(p.Frame())
	minArea := p.MinPixelArea
	if minArea <= 0 {
		minArea = 64 // ~8x8 px, below typical detector resolution
	}
	if clipped.Area() < minArea {
		return geom.Rect{}, 0, false
	}
	return clipped, dist, true
}

// GroundFromPixel inverts the projection for ground-plane points: it
// returns the world point whose z=0 projection is the given pixel. The
// boolean is false for pixels on or above the horizon line, which never
// meet the ground in front of the camera.
//
// Derivation: with normalized coordinates a = (u-cx)/f, b = (v-cy)/f and
// ground points (z=0) at horizontal forward distance zf,
//
//	b = (h cosP − zf sinP) / (zf cosP + h sinP)
//	=> zf = h (cosP − b sinP) / (b cosP + sinP)
//
// where ground pixels satisfy b cosP + sinP > 0 (below the horizon,
// b → −tanP as zf → ∞).
func (c *Camera) GroundFromPixel(px geom.Point) (geom.Point, bool) {
	p := c.pose()
	a := (px.X - c.ImageW/2) / c.Focal
	b := (px.Y - c.ImageH/2) / c.Focal
	den := b*p.cosP + p.sinP
	if den <= 1e-9 {
		return geom.Point{}, false
	}
	forward := c.Height * (p.cosP - b*p.sinP) / den
	if forward <= nearPlane {
		return geom.Point{}, false
	}
	zc := forward*p.cosP + c.Height*p.sinP
	if zc < nearPlane {
		return geom.Point{}, false
	}
	lateral := a * zc
	fwdVec := geom.Point{X: p.cosT, Y: p.sinT}
	sideVec := geom.Point{X: -p.sinT, Y: p.cosT}
	return c.Pos.Add(fwdVec.Scale(forward)).Add(sideVec.Scale(lateral)), true
}

// SeesGround reports whether the camera would see a small reference
// object (a 1.8x4.5x1.5 m car) centred at the given ground point. The
// distributed-stage mask computation uses this to build per-cell coverage
// sets.
func (c *Camera) SeesGround(p geom.Point) bool {
	_, ok := c.ProjectBox(ObjectState{
		Pos:     p,
		Heading: 0,
		Dims:    Dims{W: 1.8, L: 4.5, H: 1.5},
	})
	return ok
}
