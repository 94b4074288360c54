package assoc

import (
	"mvs/internal/geom"
	"mvs/internal/ml"
)

// Hooks for the external-package tests in this directory, which run the
// engine (an import package assoc cannot make).

// ObserveAssociate makes every association on m call fn with its boxes
// first. The boxes are the caller's, valid only during the call.
func (m *Model) ObserveAssociate(fn func(boxes [][]geom.Rect)) { m.observe = fn }

// PairIndex returns the joint KNN index of the trained pair (src, dst),
// or nil for an untrained pair.
func (m *Model) PairIndex(src, dst int) *ml.KNNMap {
	if pm := m.pairs[[2]int{src, dst}]; pm != nil {
		return pm.knn
	}
	return nil
}
