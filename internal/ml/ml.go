// Package ml implements the lightweight, CPU-friendly learning models the
// paper's cross-camera association module is built from, plus every
// baseline its evaluation compares against (Figs. 10 and 11):
//
//   - classification (does this object appear on camera i'?): KNN (the
//     paper's choice), logistic regression, linear SVM, CART decision tree;
//   - regression (where does it appear?): KNN, ordinary least squares,
//     RANSAC, and homography mapping.
//
// All models are deliberately simple: the paper's point is that
// location-based association must run in real time on resource-starved
// cameras, so semantic/deep models are out of scope.
package ml

import (
	"errors"
	"fmt"
)

// ErrNotFitted is returned by Predict when the model has not been fitted.
var ErrNotFitted = errors.New("ml: model not fitted")

// Classifier is a binary classifier over float feature vectors.
type Classifier interface {
	// Fit trains on feature rows X with boolean labels y.
	Fit(x [][]float64, y []bool) error
	// Predict returns the predicted label for one feature vector.
	Predict(x []float64) (bool, error)
	// Name identifies the model in experiment output.
	Name() string
}

// Regressor predicts a multi-output real vector (here: the 4 bounding-box
// coordinates on the target camera) from a feature vector.
type Regressor interface {
	// Fit trains on feature rows X with target rows Y.
	Fit(x [][]float64, y [][]float64) error
	// Predict appends the predicted target vector for one feature vector
	// to dst and returns the extended slice, the way strconv's Append
	// functions do: with room in dst it allocates nothing, and
	// Predict(nil, x) returns a fresh vector the caller owns.
	Predict(dst, x []float64) ([]float64, error)
	// Name identifies the model in experiment output.
	Name() string
}

// checkXY validates a classification training set.
func checkXY(x [][]float64, y []bool) (dim int, err error) {
	if len(x) == 0 {
		return 0, errors.New("ml: empty training set")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("ml: %d feature rows vs %d labels", len(x), len(y))
	}
	dim = len(x[0])
	if dim == 0 {
		return 0, errors.New("ml: zero-dimensional features")
	}
	for i, row := range x {
		if len(row) != dim {
			return 0, fmt.Errorf("ml: ragged feature row %d (%d vs %d)", i, len(row), dim)
		}
	}
	return dim, nil
}

// checkXYReg validates a regression training set and returns feature and
// target dimensions.
func checkXYReg(x [][]float64, y [][]float64) (dim, out int, err error) {
	if len(x) == 0 {
		return 0, 0, errors.New("ml: empty training set")
	}
	if len(x) != len(y) {
		return 0, 0, fmt.Errorf("ml: %d feature rows vs %d target rows", len(x), len(y))
	}
	dim = len(x[0])
	out = len(y[0])
	if dim == 0 || out == 0 {
		return 0, 0, errors.New("ml: zero-dimensional features or targets")
	}
	for i := range x {
		if len(x[i]) != dim {
			return 0, 0, fmt.Errorf("ml: ragged feature row %d", i)
		}
		if len(y[i]) != out {
			return 0, 0, fmt.Errorf("ml: ragged target row %d", i)
		}
	}
	return dim, out, nil
}

// ClassificationMetrics holds the precision/recall pair the paper reports
// for the association classifier (Fig. 10).
type ClassificationMetrics struct {
	Precision float64
	Recall    float64
	Accuracy  float64
	TP        int
	FP        int
	FN        int
	TN        int
}

// EvaluateClassifier computes precision/recall of a fitted classifier on
// a held-out test set.
func EvaluateClassifier(c Classifier, x [][]float64, y []bool) (ClassificationMetrics, error) {
	var m ClassificationMetrics
	if len(x) != len(y) {
		return m, fmt.Errorf("ml: %d test rows vs %d labels", len(x), len(y))
	}
	for i, row := range x {
		pred, err := c.Predict(row)
		if err != nil {
			return m, fmt.Errorf("ml: evaluating %s: %w", c.Name(), err)
		}
		switch {
		case pred && y[i]:
			m.TP++
		case pred && !y[i]:
			m.FP++
		case !pred && y[i]:
			m.FN++
		default:
			m.TN++
		}
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if n := m.TP + m.FP + m.FN + m.TN; n > 0 {
		m.Accuracy = float64(m.TP+m.TN) / float64(n)
	}
	return m, nil
}

// EvaluateRegressor computes the mean absolute error across all outputs
// of a fitted regressor on a held-out test set (the paper's Fig. 11
// metric).
func EvaluateRegressor(r Regressor, x [][]float64, y [][]float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("ml: %d test rows vs %d targets", len(x), len(y))
	}
	if len(x) == 0 {
		return 0, errors.New("ml: empty test set")
	}
	var sum float64
	var count int
	var pred []float64
	for i, row := range x {
		var err error
		pred, err = r.Predict(pred[:0], row)
		if err != nil {
			return 0, fmt.Errorf("ml: evaluating %s: %w", r.Name(), err)
		}
		if len(pred) != len(y[i]) {
			return 0, fmt.Errorf("ml: %s predicted %d outputs, want %d", r.Name(), len(pred), len(y[i]))
		}
		for k := range pred {
			sum += abs(pred[k] - y[i][k])
			count++
		}
	}
	return sum / float64(count), nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
