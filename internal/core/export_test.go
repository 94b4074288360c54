package core

// The specification's scheduling, for the external test package, which
// can import the packages that run the system's real rounds.
var SpecSolve = specSolve
