// Package mat implements the small amount of dense linear algebra the
// framework needs: Gaussian elimination with partial pivoting, linear
// least squares via normal equations with ridge damping, and 3x3
// homography estimation by the direct linear transform (DLT). It is not a
// general-purpose matrix library; dimensions are small (tens of rows) and
// clarity is preferred over blocking or vectorization tricks.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mat: singular matrix")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows x cols zero matrix. It panics on non-positive
// dimensions.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: NewDense(%d, %d) with non-positive dims", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m * b as a new matrix. It panics on dimension mismatch.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.data[k*b.cols+j]
			}
		}
	}
	return out
}

// MulVec returns m * v as a new vector. It panics on dimension mismatch.
func (m *Dense) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec %dx%d by %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var sum float64
		for j := 0; j < m.cols; j++ {
			sum += m.data[i*m.cols+j] * v[j]
		}
		out[i] = sum
	}
	return out
}

// Solve solves the square linear system a*x = b by Gaussian elimination
// with partial pivoting. a and b are not modified. It returns ErrSingular
// when a has no (numerically) unique solution.
func Solve(a *Dense, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: Solve on non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: Solve rhs length %d != %d", len(b), n)
	}
	// Augmented working copy.
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot: largest |value| in this column at or below the
		// diagonal.
		pivot := col
		best := math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				w.data[col*n+j], w.data[pivot*n+j] = w.data[pivot*n+j], w.data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		// Eliminate below.
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				w.data[r*n+j] -= f * w.data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= w.At(i, j) * x[j]
		}
		x[i] = sum / w.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min ||A*x - b||^2 via the normal equations
// (A'A + ridge*I) x = A'b. A small positive ridge keeps the system
// well-conditioned when A is rank-deficient; pass 0 for plain OLS.
func LeastSquares(a *Dense, b []float64, ridge float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: LeastSquares %d rows vs %d rhs", a.rows, len(b))
	}
	if ridge < 0 {
		return nil, fmt.Errorf("mat: negative ridge %v", ridge)
	}
	at := a.T()
	ata := at.Mul(a)
	for i := 0; i < ata.rows; i++ {
		ata.Set(i, i, ata.At(i, i)+ridge)
	}
	atb := at.MulVec(b)
	x, err := Solve(ata, atb)
	if err != nil {
		return nil, fmt.Errorf("mat: normal equations: %w", err)
	}
	return x, nil
}

// Homography is a 3x3 projective transform of the plane, stored row-major
// with H[8] normalized to 1 where possible.
type Homography [9]float64

// Apply maps the point (x, y) through the homography and returns the
// dehomogenized image. Points near the line at infinity map to large but
// finite coordinates (the denominator is clamped away from zero).
func (h Homography) Apply(x, y float64) (float64, float64) {
	w := h[6]*x + h[7]*y + h[8]
	if math.Abs(w) < 1e-12 {
		w = math.Copysign(1e-12, w)
		if w == 0 {
			w = 1e-12
		}
	}
	return (h[0]*x + h[1]*y + h[2]) / w, (h[3]*x + h[4]*y + h[5]) / w
}

// EstimateHomography fits a homography mapping src[i] -> dst[i] using the
// direct linear transform with h22 fixed to 1 (a valid normalization for
// the camera geometries in this system, where the plane at infinity does
// not pass through the image origin). At least four point pairs are
// required.
func EstimateHomography(src, dst [][2]float64) (Homography, error) {
	var h Homography
	if len(src) != len(dst) {
		return h, fmt.Errorf("mat: homography %d src vs %d dst points", len(src), len(dst))
	}
	if len(src) < 4 {
		return h, fmt.Errorf("mat: homography needs >= 4 point pairs, got %d", len(src))
	}
	// Each correspondence yields two rows in A x = b with
	// x = [h00 h01 h02 h10 h11 h12 h20 h21] and h22 = 1:
	//   u = (h00 x + h01 y + h02) / (h20 x + h21 y + 1)
	//   v = (h10 x + h11 y + h12) / (h20 x + h21 y + 1)
	n := len(src)
	a := NewDense(2*n, 8)
	b := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		x, y := src[i][0], src[i][1]
		u, v := dst[i][0], dst[i][1]
		r := 2 * i
		a.Set(r, 0, x)
		a.Set(r, 1, y)
		a.Set(r, 2, 1)
		a.Set(r, 6, -u*x)
		a.Set(r, 7, -u*y)
		b[r] = u
		a.Set(r+1, 3, x)
		a.Set(r+1, 4, y)
		a.Set(r+1, 5, 1)
		a.Set(r+1, 6, -v*x)
		a.Set(r+1, 7, -v*y)
		b[r+1] = v
	}
	sol, err := LeastSquares(a, b, 0)
	if err != nil {
		return h, fmt.Errorf("mat: homography fit: %w", err)
	}
	copy(h[:8], sol)
	h[8] = 1
	return h, nil
}
