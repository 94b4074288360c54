package ml

import (
	"fmt"
	"math/rand"
)

// RANSACRegressor wraps a linear regressor in the random-sample-consensus
// loop of Fischler & Bolles, one of the paper's regression baselines
// ("a robust regression model in the presence of many data outliers").
type RANSACRegressor struct {
	// Seed drives the deterministic sampling sequence.
	Seed int64

	inner LinearRegressor
	dim   int
	ready bool
}

// Name implements Regressor.
func (r *RANSACRegressor) Name() string { return "ransac" }

// The RANSAC loop: random minimal samples tried, and the largest mean
// absolute residual, in pixels, at which a point counts as an inlier.
// A minimal sample holds dim+2 points.
const (
	ransacIterations      = 100
	ransacInlierThreshold = 50
)

// Fit runs the RANSAC loop: sample a minimal subset, fit, count inliers,
// keep the consensus-maximizing model, then refit on its inlier set.
func (r *RANSACRegressor) Fit(x [][]float64, y [][]float64) error {
	dim, _, err := checkXYReg(x, y)
	if err != nil {
		return fmt.Errorf("ransac: %w", err)
	}
	r.dim = dim

	sample := min(dim+2, len(x))

	rng := rand.New(rand.NewSource(r.Seed + 1))
	bestInliers := []int(nil)
	for it := 0; it < ransacIterations; it++ {
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
			if meanAbsResidual(pred, y[i]) <= ransacInlierThreshold {
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
