package core

// The reference solver and the comparison, for the external test package,
// which can import the packages that build the system's real rounds.
var (
	OracleSolve  = oracleSolve
	SameSolution = sameSolution
)
