package ml

// Hooks for the external-package tests in this directory, which train
// through assoc and run the engine (imports package ml cannot make).

// Neighbors returns the index's neighbour list for x, as training-set
// row numbers.
func (k *KNNClassifier) Neighbors(x []float64) []int { return nearestIdx(k.m.tree, x, k.m.k) }

// Neighbors returns the index's neighbour list for x, as training-set
// row numbers.
func (k *KNNRegressor) Neighbors(x []float64) []int { return nearestIdx(k.m.tree, x, k.m.k) }

// ReferenceNearest is the brute-force oracle.
var ReferenceNearest = referenceNearest
