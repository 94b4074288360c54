package ml

import (
	"errors"
	"fmt"
	"math"
)

// This file holds the dense linear algebra the least-squares baselines
// need: Gaussian elimination with partial pivoting, ridge least squares
// via the normal equations, and the DLT homography fit. Matrices are flat
// row-major slices; dimensions are small (tens of rows) and clarity is
// preferred over blocking or vectorization tricks.

// errSingular is returned when a linear system has no unique solution.
var errSingular = errors.New("singular matrix")

// solve solves the square linear system a*x = b, with a the n×n row-major
// matrix for n = len(b), by Gaussian elimination with partial pivoting.
// a and b are not modified. It returns errSingular when a has no
// (numerically) unique solution.
func solve(a, b []float64) ([]float64, error) {
	n := len(b)
	if len(a) != n*n {
		return nil, fmt.Errorf("solve: %d matrix elements for %d unknowns", len(a), n)
	}
	w := append([]float64(nil), a...)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot: largest |value| in this column at or below the
		// diagonal.
		pivot := col
		best := math.Abs(w[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, errSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				w[col*n+j], w[pivot*n+j] = w[pivot*n+j], w[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		// Eliminate below.
		inv := 1 / w[col*n+col]
		for r := col + 1; r < n; r++ {
			f := w[r*n+col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				w[r*n+j] -= f * w[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= w[i*n+j] * x[j]
		}
		x[i] = sum / w[i*n+i]
	}
	return x, nil
}

// leastSquares solves min ||A*x - b||^2, with A the len(b)×cols
// row-major design matrix a, via the normal equations
// (A'A + ridge*I) x = A'b. A small positive ridge keeps the system
// well-conditioned when A is rank-deficient; pass 0 for plain OLS.
func leastSquares(a []float64, cols int, b []float64, ridge float64) ([]float64, error) {
	rows := len(b)
	if len(a) != rows*cols {
		return nil, fmt.Errorf("least squares: %d matrix elements for %d rows of %d", len(a), rows, cols)
	}
	if ridge < 0 {
		return nil, fmt.Errorf("least squares: negative ridge %v", ridge)
	}
	// A'A accumulates over the rows k in order and skips zero entries of
	// A' (the design matrices are sparse); A'b adds every term.
	ata := make([]float64, cols*cols)
	for i := 0; i < cols; i++ {
		for k := 0; k < rows; k++ {
			aki := a[k*cols+i]
			if aki == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				ata[i*cols+j] += aki * a[k*cols+j]
			}
		}
		ata[i*cols+i] += ridge
	}
	atb := make([]float64, cols)
	for i := range atb {
		var sum float64
		for k := 0; k < rows; k++ {
			sum += a[k*cols+i] * b[k]
		}
		atb[i] = sum
	}
	x, err := solve(ata, atb)
	if err != nil {
		return nil, fmt.Errorf("normal equations: %w", err)
	}
	return x, nil
}

// homography is a 3x3 projective transform of the plane, stored row-major
// with h[8] normalized to 1.
type homography [9]float64

// apply maps the point (x, y) through the homography and returns the
// dehomogenized image. Points near the line at infinity map to large but
// finite coordinates (the denominator is clamped away from zero).
func (h homography) apply(x, y float64) (float64, float64) {
	w := h[6]*x + h[7]*y + h[8]
	if math.Abs(w) < 1e-12 {
		w = math.Copysign(1e-12, w)
	}
	return (h[0]*x + h[1]*y + h[2]) / w, (h[3]*x + h[4]*y + h[5]) / w
}

// estimateHomography fits a homography mapping src[i] -> dst[i] using the
// direct linear transform with h22 fixed to 1 (a valid normalization for
// the camera geometries in this system, where the plane at infinity does
// not pass through the image origin). At least four point pairs are
// required.
func estimateHomography(src, dst [][2]float64) (homography, error) {
	var h homography
	if len(src) != len(dst) {
		return h, fmt.Errorf("%d src vs %d dst points", len(src), len(dst))
	}
	if len(src) < 4 {
		return h, fmt.Errorf("needs >= 4 point pairs, got %d", len(src))
	}
	// Each correspondence yields two rows in A x = b with
	// x = [h00 h01 h02 h10 h11 h12 h20 h21] and h22 = 1:
	//   u = (h00 x + h01 y + h02) / (h20 x + h21 y + 1)
	//   v = (h10 x + h11 y + h12) / (h20 x + h21 y + 1)
	const cols = 8
	n := len(src)
	a := make([]float64, 2*n*cols)
	b := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		x, y := src[i][0], src[i][1]
		u, v := dst[i][0], dst[i][1]
		r := a[2*i*cols : (2*i+1)*cols]
		r[0], r[1], r[2], r[6], r[7] = x, y, 1, -u*x, -u*y
		b[2*i] = u
		r = a[(2*i+1)*cols : (2*i+2)*cols]
		r[3], r[4], r[5], r[6], r[7] = x, y, 1, -v*x, -v*y
		b[2*i+1] = v
	}
	sol, err := leastSquares(a, cols, b, 0)
	if err != nil {
		return h, fmt.Errorf("fit: %w", err)
	}
	copy(h[:8], sol)
	h[8] = 1
	return h, nil
}
