package energy

import "fmt"

// An extension beyond the paper's EP ratio: the energy-delay product
// commonly used alongside it. The paper's EP = EAvg/T weights power
// against runtime; EDP weights total energy against runtime,
// penalizing slow-but-frugal configurations.

// EDP returns the energy-delay product J·s (lower is better).
func EDP(joules, seconds float64) float64 {
	if seconds < 0 {
		panic(fmt.Sprintf("energy: negative runtime %v", seconds))
	}
	return joules * seconds
}
