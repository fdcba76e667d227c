// Conjugate gradients end to end: solve a sparse SPD system for real,
// recompute its residual independently (exiting 1 if the solve did not
// converge or the residual is off), then project the solve's energy on
// the simulated platform for each storage format — the iterative-
// application context where the paper's future-work sparse study
// matters: format overheads multiply across every iteration.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"capscale/internal/blas"
	"capscale/internal/cg"
	"capscale/internal/hw"
	"capscale/internal/sim"
	"capscale/internal/sparse"
)

func main() {
	const n = 4000
	const halfBand = 4
	rng := rand.New(rand.NewSource(11))
	a := sparse.SPDBanded(rng, n, halfBand).ToCSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}

	const tol = 1e-10
	res := cg.Solve(a, b, cg.Options{Tol: tol})
	fmt.Printf("CG on a %d×%d SPD band matrix (%d nnz): converged=%v in %d iterations, residual %.2e\n",
		n, n, a.NNZ(), res.Converged, res.Iterations, res.Residual)

	// Independent residual check. CG's recurrence tracks the residual
	// it updates, which drifts from the true one in floating point;
	// allow it a factor of 10.
	y := make([]float64, n)
	a.MulVec(y, res.X)
	blas.Daxpy(-1, b, y)
	verified := blas.Dnrm2(y) / blas.Dnrm2(b)
	fmt.Printf("verified ‖Ax−b‖/‖b‖ = %.2e\n\n", verified)
	if !res.Converged || verified > 10*tol {
		fmt.Fprintln(os.Stderr, "cg-solver: the solve failed its check")
		os.Exit(1)
	}

	m := hw.HaswellE31225()
	fmt.Printf("projected energy for those %d iterations on %q, 4 threads:\n", res.Iterations, m.Name)
	fmt.Printf("  %-6s %12s %10s %14s\n", "format", "time (s)", "watts", "energy (J)")
	for _, f := range sparse.Formats() {
		root := cg.BuildEnergyTree(m, a, f, 4, res.Iterations)
		r := sim.Run(m, root, sim.Config{Workers: 4})
		fmt.Printf("  %-6v %12.4f %10.2f %14.3f\n", f, r.Makespan, r.AvgPowerTotal(), r.EnergyTotal())
	}
	fmt.Println("\nSame arithmetic, same iteration count — the storage format alone")
	fmt.Println("decides the joules. CSR wins; COO's scatter pays per iteration.")
}
