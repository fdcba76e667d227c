package blas

import (
	"fmt"
	"math"
)

// Level-1 routines. The paper's study is level-3, but the CG solver
// needs the vector layer too; it follows reference-BLAS semantics with
// Go slices.

// Daxpy computes y += alpha·x. Lengths must match.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: daxpy lengths %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Ddot returns xᵀy.
func Ddot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: ddot lengths %d vs %d", len(x), len(y)))
	}
	sum := 0.0
	for i, v := range x {
		sum += v * y[i]
	}
	return sum
}

// Dscal scales x by alpha in place.
func Dscal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dcopy copies x into y. Lengths must match.
func Dcopy(x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: dcopy lengths %d vs %d", len(x), len(y)))
	}
	copy(y, x)
}

// Dnrm2 returns ‖x‖₂ with scaling against overflow, as reference BLAS
// does.
func Dnrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
