package sparse_test

import (
	"fmt"

	"capscale/internal/sparse"
)

// Build a matrix from triples, convert between storage formats, and
// multiply — every format computes the same product.
func Example() {
	coo, err := sparse.NewCOO(3, 3,
		[]int32{0, 1, 1, 2},
		[]int32{0, 0, 2, 1},
		[]float64{2, 3, 4, 5})
	if err != nil {
		panic(err)
	}
	x := []float64{1, 1, 1}
	y := make([]float64, 3)

	csr := coo.ToCSR()
	csr.MulVec(y, x)
	fmt.Printf("CSR: %v\n", y)

	ell := csr.ToELL()
	ell.MulVec(y, x)
	fmt.Printf("ELL: %v (width %d, waste %.0f%%)\n", y, ell.Width, 100*ell.PaddingWaste())
	// Output:
	// CSR: [2 7 5]
	// ELL: [2 7 5] (width 2, waste 33%)
}
