package ml

import (
	"fmt"
	"math/rand"
)

// RANSACRegressor wraps a linear regressor in the random-sample-consensus
// loop of Fischler & Bolles, one of the paper's regression baselines
// ("a robust regression model in the presence of many data outliers").
type RANSACRegressor struct {
	// Iterations is the number of random minimal samples tried
	// (default 100).
	Iterations int
	// SampleSize is the size of each minimal sample (default dim+2).
	SampleSize int
	// InlierThreshold is the max mean-absolute residual for a point to
	// count as an inlier (default 50, in pixels).
	InlierThreshold float64
	// Seed drives the deterministic sampling sequence.
	Seed int64

	inner LinearRegressor
	dim   int
	ready bool
}

// Name implements Regressor.
func (r *RANSACRegressor) Name() string { return "ransac" }

// Fit runs the RANSAC loop: sample a minimal subset, fit, count inliers,
// keep the consensus-maximizing model, then refit on its inlier set.
func (r *RANSACRegressor) Fit(x [][]float64, y [][]float64) error {
	dim, _, err := checkXYReg(x, y)
	if err != nil {
		return fmt.Errorf("ransac: %w", err)
	}
	r.dim = dim

	iters := r.Iterations
	if iters <= 0 {
		iters = 100
	}
	sample := r.SampleSize
	if sample <= 0 {
		sample = dim + 2
	}
	if sample > len(x) {
		sample = len(x)
	}
	thresh := r.InlierThreshold
	if thresh <= 0 {
		thresh = 50
	}

	rng := rand.New(rand.NewSource(r.Seed + 1))
	bestInliers := []int(nil)
	for it := 0; it < iters; it++ {
		idx := rng.Perm(len(x))[:sample]
		var cand LinearRegressor
		if err := cand.Fit(gather(x, idx), gather(y, idx)); err != nil {
			continue // degenerate sample
		}
		var inliers []int
		var pred []float64
		for i := range x {
			pred, err = cand.Predict(pred[:0], x[i])
			if err != nil {
				continue
			}
			if meanAbsResidual(pred, y[i]) <= thresh {
				inliers = append(inliers, i)
			}
		}
		if len(inliers) > len(bestInliers) {
			bestInliers = inliers
		}
	}
	if len(bestInliers) < sample {
		// No consensus found; fall back to fitting everything.
		if err := r.inner.Fit(x, y); err != nil {
			return fmt.Errorf("ransac fallback: %w", err)
		}
		r.ready = true
		return nil
	}
	if err := r.inner.Fit(gather(x, bestInliers), gather(y, bestInliers)); err != nil {
		return fmt.Errorf("ransac refit: %w", err)
	}
	r.ready = true
	return nil
}

// Predict implements Regressor.
func (r *RANSACRegressor) Predict(dst, x []float64) ([]float64, error) {
	if !r.ready {
		return dst, ErrNotFitted
	}
	return r.inner.Predict(dst, x)
}

func gather[T any](rows []T, idx []int) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = rows[i]
	}
	return out
}

func meanAbsResidual(pred, want []float64) float64 {
	var sum float64
	for i := range pred {
		sum += abs(pred[i] - want[i])
	}
	return sum / float64(len(pred))
}
