package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dist(p); got != 0 {
		t.Errorf("Dist self = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != (Point{2, -1}) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 10, 20}
	if r.W() != 10 || r.H() != 20 || r.Area() != 200 {
		t.Fatalf("dims wrong: %v %v %v", r.W(), r.H(), r.Area())
	}
	if r.Center() != (Point{5, 10}) {
		t.Fatalf("center = %v", r.Center())
	}
	if r.LongSide() != 20 {
		t.Fatalf("long side = %v", r.LongSide())
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !(Rect{5, 5, 5, 9}).Empty() {
		t.Fatal("zero-width rect not empty")
	}
	if (Rect{5, 5, 5, 9}).Area() != 0 {
		t.Fatal("empty rect area != 0")
	}
}

func TestRectFromCenterAndCorners(t *testing.T) {
	r := RectFromCenter(Point{5, 5}, 4, 6)
	want := Rect{3, 2, 7, 8}
	if r != want {
		t.Fatalf("RectFromCenter = %v want %v", r, want)
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	inter := a.Intersect(b)
	if inter != (Rect{5, 5, 10, 10}) {
		t.Fatalf("Intersect = %v", inter)
	}
	disjoint := Rect{20, 20, 30, 30}
	if !a.Intersect(disjoint).Empty() {
		t.Fatal("disjoint intersect not empty")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) || !r.Contains(Point{5, 5}) {
		t.Fatal("boundary/interior containment failed")
	}
	if r.Contains(Point{-0.01, 5}) || r.Contains(Point{5, 10.01}) {
		t.Fatal("exterior point contained")
	}
	if !r.ContainsRect(Rect{1, 1, 9, 9}) {
		t.Fatal("inner rect not contained")
	}
	if r.ContainsRect(Rect{1, 1, 11, 9}) {
		t.Fatal("overhanging rect contained")
	}
	if !r.ContainsRect(Rect{}) {
		t.Fatal("empty rect should be contained everywhere")
	}
}

func TestIoU(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	if got := a.IoU(a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self IoU = %v", got)
	}
	b := Rect{5, 0, 15, 10}
	// inter = 50, union = 150.
	if got := a.IoU(b); math.Abs(got-50.0/150.0) > 1e-12 {
		t.Fatalf("IoU = %v", got)
	}
	if got := a.IoU(Rect{20, 20, 30, 30}); got != 0 {
		t.Fatalf("disjoint IoU = %v", got)
	}
	if got := (Rect{}).IoU(Rect{}); got != 0 {
		t.Fatalf("empty IoU = %v", got)
	}
}

// boundedRect maps arbitrary float inputs into a rectangle with coordinates
// in a pixel-scale range, so property tests exercise realistic geometry
// without floating-point overflow.
func boundedRect(x, y, w, h float64) Rect {
	bx := math.Mod(math.Abs(x), 2000)
	by := math.Mod(math.Abs(y), 2000)
	bw := math.Mod(math.Abs(w), 2000)
	bh := math.Mod(math.Abs(h), 2000)
	if math.IsNaN(bx) || math.IsNaN(by) || math.IsNaN(bw) || math.IsNaN(bh) {
		return Rect{0, 0, 1, 1}
	}
	return Rect{bx, by, bx + bw, by + bh}
}

func TestIoUProperties(t *testing.T) {
	// IoU is symmetric and within [0, 1] for arbitrary rectangles.
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := boundedRect(ax, ay, aw, ah)
		b := boundedRect(bx, by, bw, bh)
		u, v := a.IoU(b), b.IoU(a)
		return u >= 0 && u <= 1+1e-9 && math.Abs(u-v) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectionCommutesAndShrinks(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := boundedRect(ax, ay, aw, ah)
		b := boundedRect(bx, by, bw, bh)
		i1, i2 := a.Intersect(b), b.Intersect(a)
		return i1 == i2 && i1.Area() <= a.Area()+1e-9 && i1.Area() <= b.Area()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceIntersect and referenceIoU are Intersect and IoU as they were
// before IoU rejected on the clipped extents and both switched to the
// builtin min and max, kept as the oracle FuzzIoU holds them to.
func referenceIntersect(r, s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

func referenceIoU(r, s Rect) float64 {
	inter := referenceIntersect(r, s).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + s.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// sameFloat is bit equality, except that any NaN equals any NaN: a NaN's
// payload is not part of the contract.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameRect(a, b Rect) bool {
	return sameFloat(a.MinX, b.MinX) && sameFloat(a.MinY, b.MinY) &&
		sameFloat(a.MaxX, b.MaxX) && sameFloat(a.MaxY, b.MaxY)
}

// FuzzIoU holds IoU and Intersect bit-equal to the math.Max/math.Min
// formula for arbitrary coordinates: NaN, ±Inf, ±0, inverted and
// degenerate boxes, and boxes that only touch.
func FuzzIoU(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	seeds := [][8]float64{
		{0, 0, 10, 10, 5, 0, 15, 10},       // overlap
		{0, 0, 10, 10, 10, 0, 20, 10},      // touching on x
		{0, 0, 10, 10, 0, 10, 10, 20},      // touching on y
		{0, 0, 10, 10, 20, 20, 30, 30},     // disjoint
		{0, 0, 10, 10, 0, 0, 10, 10},       // identical
		{5, 5, 5, 9, 0, 0, 10, 10},         // zero width inside
		{10, 10, 0, 0, 0, 0, 10, 10},       // inverted
		{nan, 0, 10, 10, 0, 0, 10, 10},     // NaN min
		{0, 0, 10, 10, 20, 0, nan, 10},     // NaN max, separated on x
		{nan, 0, 5, 10, 8, 0, 12, 10},      // NaN beside a separating axis
		{0, 0, inf, inf, 1, 1, 2, 2},       // infinite box
		{-inf, -inf, inf, inf, 0, 0, 1, 1}, // the whole plane
		{-inf, 0, inf, 1, -inf, 0, inf, 1}, // infinite width twice
		{negZero, negZero, 1, 1, 0, 0, 1, 1},
		{0, 0, negZero, 1, negZero, 0, 0, 1},
		{1e308, 1e308, math.MaxFloat64, math.MaxFloat64, 0, 0, math.MaxFloat64, math.MaxFloat64},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
	}
	f.Fuzz(func(t *testing.T, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64) {
		a := Rect{ax0, ay0, ax1, ay1}
		b := Rect{bx0, by0, bx1, by1}
		if got, want := a.Intersect(b), referenceIntersect(a, b); !sameRect(got, want) {
			t.Fatalf("%v.Intersect(%v) = %#v, reference %#v", a, b, got, want)
		}
		if got, want := a.IoU(b), referenceIoU(a, b); !sameFloat(got, want) {
			t.Fatalf("%#v.IoU(%#v) = %v, reference %v", a, b, got, want)
		}
	})
}

func TestTranslateInflate(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if got := r.Translate(Point{3, -2}); got != (Rect{3, -2, 13, 8}) {
		t.Fatalf("Translate = %v", got)
	}
	if got := r.Inflate(2); got != (Rect{-2, -2, 12, 12}) {
		t.Fatalf("Inflate = %v", got)
	}
	if got := r.Inflate(-4); got != (Rect{4, 4, 6, 6}) {
		t.Fatalf("deflate = %v", got)
	}
}

func TestMAE(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{1, 1, 11, 11}
	if got := a.MAE(b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MAE = %v", got)
	}
	if got := a.MAE(a); got != 0 {
		t.Fatalf("self MAE = %v", got)
	}
}

func TestVec4RoundTrip(t *testing.T) {
	r := Rect{1.5, 2.5, 3.5, 4.5}
	if got := RectFromVec4(r.Vec4()); got != r {
		t.Fatalf("roundtrip = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RectFromVec4 with wrong length did not panic")
		}
	}()
	RectFromVec4([]float64{1, 2, 3})
}

func TestQuantizeSize(t *testing.T) {
	cases := []struct {
		long float64
		want int
	}{
		{1, 64}, {64, 64}, {64.1, 128}, {128, 128},
		{200, 256}, {256, 256}, {300, 512}, {512, 512},
		{10000, 512}, // oversize regions are downsampled to the max
	}
	for _, c := range cases {
		if got := QuantizeSize(c.long, nil); got != c.want {
			t.Errorf("QuantizeSize(%v) = %d want %d", c.long, got, c.want)
		}
	}
	if got := QuantizeSize(5, []int{8, 16}); got != 8 {
		t.Errorf("custom sizes = %d", got)
	}
}

func TestQuantizeRect(t *testing.T) {
	bounds := Rect{0, 0, 1280, 704}
	r := Rect{100, 100, 180, 140} // long side 80 -> 128
	q, s := QuantizeRect(r, bounds, nil)
	if s != 128 {
		t.Fatalf("size = %d", s)
	}
	if math.Abs(q.W()-128) > 1e-9 || math.Abs(q.H()-128) > 1e-9 {
		t.Fatalf("quantized rect %v not 128x128", q)
	}
	if q.Center() != r.Center() {
		t.Fatalf("center moved: %v vs %v", q.Center(), r.Center())
	}
	if !bounds.ContainsRect(q) {
		t.Fatalf("quantized rect %v escapes bounds", q)
	}
}

func TestQuantizeRectShiftsIntoBounds(t *testing.T) {
	bounds := Rect{0, 0, 1280, 704}
	// A small object at the very corner: expanded region must be shifted,
	// not clipped, preserving the full quantized size.
	r := Rect{0, 0, 30, 30}
	q, s := QuantizeRect(r, bounds, nil)
	if s != 64 {
		t.Fatalf("size = %d", s)
	}
	if math.Abs(q.W()-64) > 1e-9 || math.Abs(q.H()-64) > 1e-9 {
		t.Fatalf("corner region %v lost size", q)
	}
	if !bounds.ContainsRect(q) {
		t.Fatalf("corner region %v escapes bounds", q)
	}
}

func TestQuantizeRectProperty(t *testing.T) {
	bounds := Rect{0, 0, 1280, 704}
	f := func(cx, cy, w, h float64) bool {
		cx = math.Mod(math.Abs(cx), 1280)
		cy = math.Mod(math.Abs(cy), 704)
		w = math.Mod(math.Abs(w), 600) + 1
		h = math.Mod(math.Abs(h), 600) + 1
		r := RectFromCenter(Point{cx, cy}, w, h).Clamp(bounds)
		if r.Empty() {
			return true
		}
		q, s := QuantizeRect(r, bounds, nil)
		if !bounds.ContainsRect(q) {
			return false
		}
		// The quantized side never exceeds the standard maximum and the
		// region never exceeds the quantized square.
		return s <= 512 && q.W() <= float64(s)+1e-9 && q.H() <= float64(s)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGridCells(t *testing.T) {
	g := NewGrid(Rect{0, 0, 100, 50}, 10, 5)
	if g.NumCells() != 50 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	idx, inside := g.CellIndex(Point{5, 15})
	if !inside || idx != 10 { // row 1 (y in [10,20)), col 0
		t.Fatalf("CellIndex(5,15) = %d inside=%v", idx, inside)
	}
	idx, inside = g.CellIndex(Point{99.9, 49.9})
	if !inside || idx != 49 {
		t.Fatalf("CellIndex(99.9,49.9) = %d inside=%v", idx, inside)
	}
	// Outside points clamp to edge cells but report inside=false.
	idx, inside = g.CellIndex(Point{-5, -5})
	if inside || idx != 0 {
		t.Fatalf("CellIndex(-5,-5) = %d inside=%v", idx, inside)
	}
	r := g.CellRect(0)
	if r != (Rect{0, 0, 10, 10}) {
		t.Fatalf("CellRect(0) = %v", r)
	}
	if got := g.CellCenter(0); got != (Point{5, 5}) {
		t.Fatalf("CellCenter(0) = %v", got)
	}
}

func TestGridCellRoundTrip(t *testing.T) {
	g := NewGrid(Rect{0, 0, 1280, 704}, 16, 9)
	for i := 0; i < g.NumCells(); i++ {
		idx, inside := g.CellIndex(g.CellCenter(i))
		if !inside || idx != i {
			t.Fatalf("cell %d center maps to %d inside=%v", i, idx, inside)
		}
	}
}

func TestGridPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero cols", func() { NewGrid(Rect{0, 0, 1, 1}, 0, 1) })
	mustPanic("empty frame", func() { NewGrid(Rect{}, 1, 1) })
	g := NewGrid(Rect{0, 0, 10, 10}, 2, 2)
	mustPanic("bad cell", func() { g.CellRect(4) })
	mustPanic("negative cell", func() { g.CellRect(-1) })
}

func TestClampInt(t *testing.T) {
	if clampInt(5, 0, 3) != 3 || clampInt(-1, 0, 3) != 0 || clampInt(2, 0, 3) != 2 {
		t.Fatal("clampInt wrong")
	}
}
