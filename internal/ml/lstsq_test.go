package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// flat packs equal-length rows into a row-major matrix.
func flat(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func TestSolveExact(t *testing.T) {
	a := flat([][]float64{{2, 1}, {1, 3}})
	// x = [1, 2] -> b = [4, 7]
	x, err := solve(a, []float64{4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("solve = %v", x)
	}
}

func TestSolveNeedsPivot(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := flat([][]float64{{0, 1}, {1, 0}})
	x, err := solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := flat([][]float64{{1, 2}, {2, 4}})
	if _, err := solve(a, []float64{1, 2}); !errors.Is(err, errSingular) {
		t.Fatalf("err = %v, want errSingular", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := solve(make([]float64, 6), []float64{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := solve(make([]float64, 4), []float64{1}); err == nil {
		t.Fatal("bad rhs accepted")
	}
}

func TestSolveRandomProperty(t *testing.T) {
	// For diagonally dominant random systems, solve recovers the planted
	// solution.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		n := 2 + int(math.Abs(float64(seed)))%6
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i*n+j] = rng.NormFloat64()
			}
			a[i*n+i] += float64(n) * 3 // dominance => nonsingular
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			for j, v := range want {
				b[i] += a[i*n+j] * v
			}
		}
		got, err := solve(a, b)
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
	a := flat([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	b := []float64{1, 3, 5, 7}
	x, err := leastSquares(a, 2, b, 0)
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
	a := flat([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := []float64{2, 4, 6}
	if _, err := leastSquares(a, 2, b, 0); !errors.Is(err, errSingular) {
		t.Fatalf("rank-deficient OLS: err = %v, want errSingular", err)
	}
	x, err := leastSquares(a, 2, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum-norm-ish solution splits the weight across the two columns.
	if math.Abs(x[0]+x[1]-2) > 1e-3 {
		t.Fatalf("ridge fit = %v", x)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := make([]float64, 4)
	if _, err := leastSquares(a, 2, []float64{1}, 0); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := leastSquares(a, 2, []float64{1, 2}, -1); err == nil {
		t.Fatal("negative ridge accepted")
	}
}

func TestHomographyIdentity(t *testing.T) {
	src := [][2]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}}
	h, err := estimateHomography(src, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range src {
		u, v := h.apply(p[0], p[1])
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
	h, err := estimateHomography(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	u, v := h.apply(10, -2)
	if math.Abs(u-23) > 1e-5 || math.Abs(v-3) > 1e-5 {
		t.Fatalf("affine maps (10,-2) to (%v,%v)", u, v)
	}
}

func TestHomographyProjective(t *testing.T) {
	// A genuinely projective map with nonzero h20/h21.
	truth := homography{1, 0.2, 3, 0.1, 1.5, -2, 0.001, 0.002, 1}
	rng := rand.New(rand.NewSource(11))
	var src, dst [][2]float64
	for i := 0; i < 20; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		u, v := truth.apply(x, y)
		src = append(src, [2]float64{x, y})
		dst = append(dst, [2]float64{u, v})
	}
	h, err := estimateHomography(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		wu, wv := truth.apply(x, y)
		gu, gv := h.apply(x, y)
		if math.Abs(gu-wu) > 1e-4 || math.Abs(gv-wv) > 1e-4 {
			t.Fatalf("projective mismatch at (%v,%v): got (%v,%v) want (%v,%v)", x, y, gu, gv, wu, wv)
		}
	}
}

func TestHomographyErrors(t *testing.T) {
	if _, err := estimateHomography([][2]float64{{0, 0}}, [][2]float64{{0, 0}}); err == nil {
		t.Fatal("too few points accepted")
	}
	if _, err := estimateHomography([][2]float64{{0, 0}, {1, 1}}, [][2]float64{{0, 0}}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	// Degenerate: all points identical.
	same := [][2]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	if _, err := estimateHomography(same, same); err == nil {
		t.Fatal("degenerate configuration accepted")
	}
}

func TestHomographyApplyNearInfinity(t *testing.T) {
	h := homography{1, 0, 0, 0, 1, 0, 1, 0, 0} // w = x
	for _, x := range []float64{0, -1e-15} {   // w == 0 exactly, and just below
		u, v := h.apply(x, 5)
		if math.IsNaN(u) || math.IsNaN(v) || math.IsInf(u, 0) || math.IsInf(v, 0) {
			t.Fatalf("apply(%v, 5) near infinity = (%v,%v)", x, u, v)
		}
	}
}
