package ml

import (
	"fmt"
	"math"
)

// featureScaler standardizes features to zero mean and unit variance,
// which the gradient-trained linear models need for stable convergence on
// pixel-scale inputs.
type featureScaler struct {
	mean  []float64
	scale []float64
}

func fitScaler(x [][]float64) featureScaler {
	dim := len(x[0])
	s := featureScaler{mean: make([]float64, dim), scale: make([]float64, dim)}
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.scale[j] += d * d
		}
	}
	for j := range s.scale {
		s.scale[j] = math.Sqrt(s.scale[j] / n)
		if s.scale[j] < 1e-9 {
			s.scale[j] = 1 // constant feature: leave centred only
		}
	}
	return s
}

func (s featureScaler) apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) / s.scale[j]
	}
	return out
}

// LogisticClassifier is L2-regularized logistic regression trained by
// batch gradient descent, one of the paper's classification baselines.
type LogisticClassifier struct {
	dim     int
	weights []float64 // last element is the bias
	scaler  featureScaler
}

// Name implements Classifier.
func (l *LogisticClassifier) Name() string { return "logistic" }

// The logistic baseline's training: full-batch gradient steps, their
// step size, and the L2 regularization strength.
const (
	logisticEpochs       = 500
	logisticLearningRate = 0.1
	logisticL2           = 1e-4
)

// Fit trains the model with full-batch gradient descent on the logistic
// loss.
func (l *LogisticClassifier) Fit(x [][]float64, y []bool) error {
	dim, err := checkXY(x, y)
	if err != nil {
		return fmt.Errorf("logistic: %w", err)
	}
	l.dim = dim
	l.scaler = fitScaler(x)
	scaled := make([][]float64, len(x))
	for i, row := range x {
		scaled[i] = l.scaler.apply(row)
	}

	w := make([]float64, dim+1)
	grad := make([]float64, dim+1)
	n := float64(len(x))
	for e := 0; e < logisticEpochs; e++ {
		for j := range grad {
			grad[j] = 0
		}
		for i, row := range scaled {
			p := sigmoid(dotBias(w, row))
			t := 0.0
			if y[i] {
				t = 1
			}
			g := p - t
			for j, v := range row {
				grad[j] += g * v
			}
			grad[dim] += g
		}
		for j := 0; j < dim; j++ {
			w[j] -= logisticLearningRate * (grad[j]/n + logisticL2*w[j])
		}
		w[dim] -= logisticLearningRate * grad[dim] / n
	}
	l.weights = w
	return nil
}

// Predict implements Classifier using the 0.5 probability threshold.
func (l *LogisticClassifier) Predict(x []float64) (bool, error) {
	if l.weights == nil {
		return false, ErrNotFitted
	}
	if len(x) != l.dim {
		return false, fmt.Errorf("logistic: feature dim %d, want %d", len(x), l.dim)
	}
	return sigmoid(dotBias(l.weights, l.scaler.apply(x))) >= 0.5, nil
}

// SVMClassifier is a linear soft-margin SVM trained with the Pegasos
// stochastic sub-gradient method, one of the paper's classification
// baselines.
type SVMClassifier struct {
	dim     int
	weights []float64 // last element is the bias
	scaler  featureScaler
}

// Name implements Classifier.
func (s *SVMClassifier) Name() string { return "svm" }

// The SVM baseline's training: passes over the data and the
// regularization strength.
const (
	svmEpochs = 200
	svmLambda = 1e-3
)

// Fit trains the model with the deterministic-order Pegasos schedule
// (cycling through examples), which keeps training reproducible without
// a seed parameter.
func (s *SVMClassifier) Fit(x [][]float64, y []bool) error {
	dim, err := checkXY(x, y)
	if err != nil {
		return fmt.Errorf("svm: %w", err)
	}
	s.dim = dim
	s.scaler = fitScaler(x)
	scaled := make([][]float64, len(x))
	for i, row := range x {
		scaled[i] = s.scaler.apply(row)
	}

	w := make([]float64, dim+1)
	t := 1
	for e := 0; e < svmEpochs; e++ {
		for i, row := range scaled {
			eta := 1 / (svmLambda * float64(t))
			t++
			yi := -1.0
			if y[i] {
				yi = 1
			}
			margin := yi * dotBias(w, row)
			for j := 0; j < dim; j++ {
				w[j] *= 1 - eta*svmLambda
			}
			if margin < 1 {
				for j, v := range row {
					w[j] += eta * yi * v
				}
				w[dim] += eta * yi
			}
		}
	}
	s.weights = w
	return nil
}

// Predict implements Classifier via the sign of the decision value.
func (s *SVMClassifier) Predict(x []float64) (bool, error) {
	if s.weights == nil {
		return false, ErrNotFitted
	}
	if len(x) != s.dim {
		return false, fmt.Errorf("svm: feature dim %d, want %d", len(x), s.dim)
	}
	return dotBias(s.weights, s.scaler.apply(x)) >= 0, nil
}

// LinearRegressor fits an independent ordinary-least-squares model (with
// intercept and a tiny ridge term for conditioning) per output dimension.
// For cross-camera box mapping this is the paper's "learnable homography"
// baseline.
type LinearRegressor struct {
	dim, out int
	coef     [][]float64 // out rows of dim+1 coefficients (bias last)
}

// Name implements Regressor.
func (l *LinearRegressor) Name() string { return "linear" }

// linearRidge is the L2 damping on the normal equations.
const linearRidge = 1e-8

// Fit solves one least-squares problem per output coordinate.
func (l *LinearRegressor) Fit(x [][]float64, y [][]float64) error {
	dim, out, err := checkXYReg(x, y)
	if err != nil {
		return fmt.Errorf("linear regressor: %w", err)
	}
	cols := dim + 1
	design := make([]float64, len(x)*cols)
	for i, row := range x {
		copy(design[i*cols:], row)
		design[i*cols+dim] = 1
	}
	coef := make([][]float64, out)
	rhs := make([]float64, len(x))
	for k := 0; k < out; k++ {
		for i := range y {
			rhs[i] = y[i][k]
		}
		c, err := leastSquares(design, cols, rhs, linearRidge)
		if err != nil {
			return fmt.Errorf("linear regressor output %d: %w", k, err)
		}
		coef[k] = c
	}
	l.dim, l.out, l.coef = dim, out, coef
	return nil
}

// Predict implements Regressor.
func (l *LinearRegressor) Predict(dst, x []float64) ([]float64, error) {
	if l.coef == nil {
		return dst, ErrNotFitted
	}
	if len(x) != l.dim {
		return dst, fmt.Errorf("linear regressor: feature dim %d, want %d", len(x), l.dim)
	}
	for _, c := range l.coef {
		dst = append(dst, dotBias(c, x))
	}
	return dst, nil
}

// dotBias computes w[:len(x)] . x + w[len(x)] (the bias term).
func dotBias(w, x []float64) float64 {
	var sum float64
	for i, v := range x {
		sum += w[i] * v
	}
	return sum + w[len(x)]
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
