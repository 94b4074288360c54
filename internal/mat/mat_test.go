package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	if m.rows != 2 || m.cols != 3 {
		t.Fatalf("dims = %dx%d", m.rows, m.cols)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	c := m.Clone()
	c.Set(1, 2, 7)
	if m.At(1, 2) != 5 {
		t.Fatal("Clone not deep")
	}
}

// fromRows builds a test matrix from equal-length rows.
func fromRows(rows [][]float64) *Dense {
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestDensePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dims", func() { NewDense(0, 3) })
	mustPanic("bad index", func() { NewDense(2, 2).At(2, 0) })
	mustPanic("mul mismatch", func() { NewDense(2, 3).Mul(NewDense(2, 3)) })
	mustPanic("mulvec mismatch", func() { NewDense(2, 3).MulVec([]float64{1}) })
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.rows != 3 || mt.cols != 2 {
		t.Fatalf("T dims = %dx%d", mt.rows, mt.cols)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 0) != 1 {
		t.Fatal("T values wrong")
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul[%d][%d] = %v want %v", i, j, c.At(i, j), want.At(i, j))
			}
		}
	}
	if got := fromRows([][]float64{{1, 0}, {0, 1}}).Mul(b); got.At(0, 0) != 5 || got.At(1, 1) != 8 {
		t.Fatal("identity mul wrong")
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	v := a.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestSolveExact(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	// x = [1, 2] -> b = [4, 7]
	x, err := Solve(a, []float64{4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveNeedsPivot(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewDense(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := Solve(NewDense(2, 2), []float64{1}); err == nil {
		t.Fatal("bad rhs accepted")
	}
}

func TestSolveRandomProperty(t *testing.T) {
	// For diagonally dominant random systems, Solve recovers the planted
	// solution.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		n := 2 + int(math.Abs(float64(seed)))%6
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)*3) // dominance => nonsingular
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Overdetermined but consistent: y = 2x + 1.
	a := fromRows([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	b := []float64{1, 3, 5, 7}
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 || math.Abs(x[1]-1) > 1e-8 {
		t.Fatalf("fit = %v", x)
	}
}

func TestLeastSquaresRidge(t *testing.T) {
	// Rank-deficient design: duplicate column. Plain OLS is singular,
	// ridge succeeds.
	a := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := []float64{2, 4, 6}
	if _, err := LeastSquares(a, b, 0); err == nil {
		t.Fatal("rank-deficient OLS should fail")
	}
	x, err := LeastSquares(a, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum-norm-ish solution splits the weight across the two columns.
	if math.Abs(x[0]+x[1]-2) > 1e-3 {
		t.Fatalf("ridge fit = %v", x)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := NewDense(2, 2)
	if _, err := LeastSquares(a, []float64{1}, 0); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := LeastSquares(a, []float64{1, 2}, -1); err == nil {
		t.Fatal("negative ridge accepted")
	}
}

func TestHomographyIdentity(t *testing.T) {
	src := [][2]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}}
	h, err := EstimateHomography(src, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range src {
		u, v := h.Apply(p[0], p[1])
		if math.Abs(u-p[0]) > 1e-6 || math.Abs(v-p[1]) > 1e-6 {
			t.Fatalf("identity maps %v to (%v,%v)", p, u, v)
		}
	}
}

func TestHomographyAffine(t *testing.T) {
	// Known affine map: (x, y) -> (2x + 3, -y + 1).
	src := [][2]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}, {5, 4}}
	dst := make([][2]float64, len(src))
	for i, p := range src {
		dst[i] = [2]float64{2*p[0] + 3, -p[1] + 1}
	}
	h, err := EstimateHomography(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	u, v := h.Apply(10, -2)
	if math.Abs(u-23) > 1e-5 || math.Abs(v-3) > 1e-5 {
		t.Fatalf("affine maps (10,-2) to (%v,%v)", u, v)
	}
}

func TestHomographyProjective(t *testing.T) {
	// A genuinely projective map with nonzero h20/h21.
	truth := Homography{1, 0.2, 3, 0.1, 1.5, -2, 0.001, 0.002, 1}
	rng := rand.New(rand.NewSource(11))
	var src, dst [][2]float64
	for i := 0; i < 20; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		u, v := truth.Apply(x, y)
		src = append(src, [2]float64{x, y})
		dst = append(dst, [2]float64{u, v})
	}
	h, err := EstimateHomography(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		wu, wv := truth.Apply(x, y)
		gu, gv := h.Apply(x, y)
		if math.Abs(gu-wu) > 1e-4 || math.Abs(gv-wv) > 1e-4 {
			t.Fatalf("projective mismatch at (%v,%v): got (%v,%v) want (%v,%v)", x, y, gu, gv, wu, wv)
		}
	}
}

func TestHomographyErrors(t *testing.T) {
	if _, err := EstimateHomography([][2]float64{{0, 0}}, [][2]float64{{0, 0}}); err == nil {
		t.Fatal("too few points accepted")
	}
	if _, err := EstimateHomography([][2]float64{{0, 0}, {1, 1}}, [][2]float64{{0, 0}}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	// Degenerate: all points identical.
	same := [][2]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	if _, err := EstimateHomography(same, same); err == nil {
		t.Fatal("degenerate configuration accepted")
	}
}

func TestHomographyApplyNearInfinity(t *testing.T) {
	h := Homography{1, 0, 0, 0, 1, 0, 1, 0, 0} // w = x
	u, v := h.Apply(0, 5)                      // w == 0 exactly
	if math.IsNaN(u) || math.IsNaN(v) || math.IsInf(u, 0) {
		t.Fatalf("Apply at infinity = (%v,%v)", u, v)
	}
}
