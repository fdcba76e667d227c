package matrix_test

import (
	"fmt"

	"capscale/internal/matrix"
)

// Dense matrices are row-major with cheap sub-matrix views; quadrant
// views are the building block of the Strassen-family recursions.
func Example() {
	a := matrix.NewFromSlice(4, 4, []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	a11, _, _, a22 := a.Quadrants()
	sum := matrix.New(2, 2)
	matrix.AddTo(sum, a11, a22)
	fmt.Print(sum)
	// Output:
	// [12 14]
	// [20 22]
}

// SolveDense solves a linear system through pivoted LU factorization.
func ExampleSolveDense() {
	a := matrix.NewFromSlice(2, 2, []float64{2, 1, 1, 3})
	x, err := matrix.SolveDense(a, []float64{5, 10})
	if err != nil {
		panic(err)
	}
	fmt.Printf("x = [%.0f %.0f]\n", x[0], x[1])
	// Output:
	// x = [1 3]
}
