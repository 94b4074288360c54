// Package geom provides the 2D geometric primitives used throughout the
// multi-view scheduling framework: points, axis-aligned rectangles
// (bounding boxes), intersection-over-union, target-size quantization,
// convex polygons (camera fields of view), and pixel-cell grids.
//
// All pixel coordinates are float64 so that the same types serve both the
// world plane (metres) and the image plane (pixels). Rectangles are
// half-open in spirit but treated as closed regions for area computations;
// a rectangle with non-positive width or height is empty.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2D point, either in world coordinates (metres) or image
// coordinates (pixels), depending on context.
type Point struct {
	X, Y float64
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle identified by its min (top-left) and
// max (bottom-right) corners. It represents object bounding boxes and
// partial-frame inspection regions.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectFromCenter builds a rectangle of the given width and height centred
// at c.
func RectFromCenter(c Point, w, h float64) Rect {
	return Rect{
		MinX: c.X - w/2, MinY: c.Y - h/2,
		MaxX: c.X + w/2, MaxY: c.Y + h/2,
	}
}

// W returns the rectangle width (0 if empty).
func (r Rect) W() float64 {
	if r.MaxX <= r.MinX {
		return 0
	}
	return r.MaxX - r.MinX
}

// H returns the rectangle height (0 if empty).
func (r Rect) H() float64 {
	if r.MaxY <= r.MinY {
		return 0
	}
	return r.MaxY - r.MinY
}

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.MaxX <= r.MinX || r.MaxY <= r.MinY }

// Area returns the rectangle area (0 if empty).
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the rectangle center.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// LongSide returns the longer of width and height.
func (r Rect) LongSide() float64 { return math.Max(r.W(), r.H()) }

// Translate returns the rectangle shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.MinX + d.X, r.MinY + d.Y, r.MaxX + d.X, r.MaxY + d.Y}
}

// Inflate grows the rectangle by m on every side (shrinks when m < 0).
func (r Rect) Inflate(m float64) Rect {
	return Rect{r.MinX - m, r.MinY - m, r.MaxX + m, r.MaxY + m}
}

// Intersect returns the intersection of r and s (possibly empty). The
// builtin min and max give the NaN and signed-zero results of math.Min
// and math.Max, inline.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: max(r.MinX, s.MinX), MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX), MaxY: min(r.MaxY, s.MaxY),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Contains reports whether p lies inside (or on the boundary of) r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.MinX >= r.MinX && s.MinY >= r.MinY && s.MaxX <= r.MaxX && s.MaxY <= r.MaxY
}

// Clamp returns r clipped to the bounds rectangle.
func (r Rect) Clamp(bounds Rect) Rect { return r.Intersect(bounds) }

// IoU returns the intersection-over-union of r and s in [0, 1]. Two empty
// rectangles have IoU 0.
//
// Most pairs a tracker scores do not overlap, so IoU rejects on each
// axis's clipped extent before it forms an area: an empty overlap on
// either axis is exactly the case in which Intersect is empty. Comparing
// the clipped ends, not the raw edges, keeps the result bit-equal to
// Intersect(s).Area() for NaN and infinite coordinates too.
func (r Rect) IoU(s Rect) float64 {
	x0, x1 := max(r.MinX, s.MinX), min(r.MaxX, s.MaxX)
	if x1 <= x0 {
		return 0
	}
	y0, y1 := max(r.MinY, s.MinY), min(r.MaxY, s.MaxY)
	if y1 <= y0 {
		return 0
	}
	inter := (x1 - x0) * (y1 - y0)
	if inter == 0 {
		return 0
	}
	union := r.Area() + s.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.1f,%.1f %.1fx%.1f]", r.MinX, r.MinY, r.W(), r.H())
}

// MAE returns the mean absolute error between the four coordinates of r
// and s, the metric the paper uses to compare cross-camera regression
// models (Fig. 11).
func (r Rect) MAE(s Rect) float64 {
	return (math.Abs(r.MinX-s.MinX) + math.Abs(r.MinY-s.MinY) +
		math.Abs(r.MaxX-s.MaxX) + math.Abs(r.MaxY-s.MaxY)) / 4
}

// Vec4 returns the rectangle as a coordinate vector
// [MinX, MinY, MaxX, MaxY], the feature layout used by the association
// models.
func (r Rect) Vec4() []float64 { return []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} }

// RectFromVec4 reconstructs a rectangle from a 4-vector as produced by
// Vec4. It panics if v does not have exactly four elements.
func RectFromVec4(v []float64) Rect {
	if len(v) != 4 {
		panic(fmt.Sprintf("geom: RectFromVec4 needs 4 values, got %d", len(v)))
	}
	return Rect{v[0], v[1], v[2], v[3]}
}

// StandardSizes is the quantized target-size set S used by the paper's
// testbed: partial regions are expanded to the nearest of these square
// sizes (pixels) so that same-size regions can share a GPU batch. Regions
// larger than the maximum are downsampled to it.
var StandardSizes = []int{64, 128, 256, 512}

// QuantizeSize returns the smallest standard size that is >= long, or the
// largest standard size when long exceeds it (the paper downsamples very
// large regions, since large objects are easy to detect). sizes must be
// sorted ascending; pass nil to use StandardSizes.
func QuantizeSize(long float64, sizes []int) int {
	if len(sizes) == 0 {
		sizes = StandardSizes
	}
	for _, s := range sizes {
		if long <= float64(s) {
			return s
		}
	}
	return sizes[len(sizes)-1]
}

// QuantizeRect expands r to a square whose side is the quantized target
// size for r's longer side, centred on r's center, clamped to bounds.
// The returned size is the quantized side length.
func QuantizeRect(r Rect, bounds Rect, sizes []int) (Rect, int) {
	s := QuantizeSize(r.LongSide(), sizes)
	return SquareAround(r, s, bounds), s
}

// SquareAround returns the square of the given side centred on r's
// center, shifted (not clipped) into bounds — QuantizeRect for a side
// that is already chosen.
func SquareAround(r Rect, side int, bounds Rect) Rect {
	q := RectFromCenter(r.Center(), float64(side), float64(side))
	// Shift into bounds rather than clipping, so the region keeps its full
	// quantized size whenever the frame is large enough.
	if q.MinX < bounds.MinX {
		q = q.Translate(Point{bounds.MinX - q.MinX, 0})
	}
	if q.MinY < bounds.MinY {
		q = q.Translate(Point{0, bounds.MinY - q.MinY})
	}
	if q.MaxX > bounds.MaxX {
		q = q.Translate(Point{bounds.MaxX - q.MaxX, 0})
	}
	if q.MaxY > bounds.MaxY {
		q = q.Translate(Point{0, bounds.MaxY - q.MaxY})
	}
	return q.Clamp(bounds)
}

// Grid divides a rectangular frame into Cols x Rows equal pixel cells. The
// distributed BALB stage precomputes, for every cell of every camera,
// which camera has responsibility for new objects appearing there
// (Fig. 8 in the paper).
type Grid struct {
	Frame Rect
	Cols  int
	Rows  int
}

// NewGrid builds a grid over frame with the given cell counts. It panics
// if cols or rows is not positive, or the frame is empty — a grid over
// nothing is a programming error, not a runtime condition.
func NewGrid(frame Rect, cols, rows int) Grid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("geom: NewGrid cols=%d rows=%d must be positive", cols, rows))
	}
	if frame.Empty() {
		panic("geom: NewGrid on empty frame")
	}
	return Grid{Frame: frame, Cols: cols, Rows: rows}
}

// NumCells returns Cols*Rows.
func (g Grid) NumCells() int { return g.Cols * g.Rows }

// CellIndex returns the flat index of the cell containing p, clamping
// points on or beyond the frame border into the nearest edge cell, and
// whether p was inside the frame.
func (g Grid) CellIndex(p Point) (int, bool) {
	inside := g.Frame.Contains(p)
	cx := int((p.X - g.Frame.MinX) / g.Frame.W() * float64(g.Cols))
	cy := int((p.Y - g.Frame.MinY) / g.Frame.H() * float64(g.Rows))
	cx = clampInt(cx, 0, g.Cols-1)
	cy = clampInt(cy, 0, g.Rows-1)
	return cy*g.Cols + cx, inside
}

// CellRect returns the rectangle of the cell with flat index idx. It
// panics on an out-of-range index.
func (g Grid) CellRect(idx int) Rect {
	if idx < 0 || idx >= g.NumCells() {
		panic(fmt.Sprintf("geom: cell index %d out of range [0,%d)", idx, g.NumCells()))
	}
	cw := g.Frame.W() / float64(g.Cols)
	ch := g.Frame.H() / float64(g.Rows)
	cx := idx % g.Cols
	cy := idx / g.Cols
	return Rect{
		MinX: g.Frame.MinX + float64(cx)*cw,
		MinY: g.Frame.MinY + float64(cy)*ch,
		MaxX: g.Frame.MinX + float64(cx+1)*cw,
		MaxY: g.Frame.MinY + float64(cy+1)*ch,
	}
}

// CellCenter returns the center point of the cell with flat index idx.
func (g Grid) CellCenter(idx int) Point { return g.CellRect(idx).Center() }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
