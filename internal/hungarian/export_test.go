package hungarian

// ReferenceMaximizeProfit exposes the oracle to the external test package,
// which can import the packages that build the system's real matrices.
var ReferenceMaximizeProfit = referenceMaximizeProfit
