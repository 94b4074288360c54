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

// SearchLeaves returns the leaves the index scans to answer x: Map's
// searches with regress, Visible's without.
func (m *KNNMap) SearchLeaves(x []float64, regress bool) int {
	_, _, leaves := m.query(nil, x, regress)
	return leaves
}
