// Package cg implements the conjugate-gradient solver — the iterative
// application context the sparse energy study feeds: a CG iteration is
// one SpMV plus a handful of level-1 operations, so the storage
// format's energy profile multiplies across hundreds of iterations.
//
// The solver computes for real (internal/sparse kernels and
// internal/blas level-1); BuildEnergyTree expresses the same iteration
// count as a task tree for the simulator, and the package's tests pin
// the two to identical operation counts.
package cg

import (
	"fmt"
	"math"

	"capscale/internal/blas"
	"capscale/internal/hw"
	"capscale/internal/sparse"
	"capscale/internal/task"
)

// Options controls the solve.
type Options struct {
	// Tol is the relative residual target ‖r‖/‖b‖ (default 1e-10).
	Tol float64
	// MaxIter bounds iterations (default 10·n).
	MaxIter int
}

// Result reports a solve.
type Result struct {
	X          []float64
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
}

// Solve runs conjugate gradients on the symmetric positive definite
// system A·x = b in CSR storage. It panics on shape mismatch; lack of
// convergence is reported, not an error.
func Solve(a *sparse.CSR, b []float64, opt Options) *Result {
	n := a.RowsN
	if a.ColsN != n {
		panic(fmt.Sprintf("cg: non-square system %dx%d", n, a.ColsN))
	}
	if len(b) != n {
		panic(fmt.Sprintf("cg: rhs length %d for n=%d", len(b), n))
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}

	x := make([]float64, n)
	r := make([]float64, n)
	blas.Dcopy(b, r) // r = b − A·0 = b
	p := make([]float64, n)
	blas.Dcopy(r, p)
	ap := make([]float64, n)

	bNorm := blas.Dnrm2(b)
	if bNorm == 0 {
		return &Result{X: x, Converged: true}
	}
	rsOld := blas.Ddot(r, r)

	res := &Result{X: x}
	for k := 0; k < maxIter; k++ {
		a.MulVec(ap, p)
		pap := blas.Ddot(p, ap)
		if pap <= 0 {
			// Not positive definite along p; stop with what we have.
			res.Residual = math.Sqrt(rsOld) / bNorm
			return res
		}
		alpha := rsOld / pap
		blas.Daxpy(alpha, p, x)
		blas.Daxpy(-alpha, ap, r)
		rsNew := blas.Ddot(r, r)
		res.Iterations = k + 1
		if math.Sqrt(rsNew)/bNorm < tol {
			res.Residual = math.Sqrt(rsNew) / bNorm
			res.Converged = true
			return res
		}
		beta := rsNew / rsOld
		// p = r + beta·p
		blas.Dscal(beta, p)
		blas.Daxpy(1, r, p)
		rsOld = rsNew
	}
	res.Residual = math.Sqrt(rsOld) / bNorm
	return res
}

// FlopsPerIteration returns the double-precision operations one CG
// iteration performs on an n-dimensional system with nnz stored
// non-zeros: the SpMV (2·nnz) plus two dots (2n each), three axpys
// (2n each) and one scal (n).
func FlopsPerIteration(n, nnz int) float64 {
	return 2*float64(nnz) + float64(11*n)
}

// BuildEnergyTree expresses `iterations` CG iterations over the matrix
// in the given storage format as a task tree: each iteration is the
// format's parallel SpMV followed by the work-shared vector operations.
// The tree is accounting-only (CG's scalar recurrences do not decompose
// into independent leaf closures); Solve is the real-math counterpart.
func BuildEnergyTree(m *hw.Machine, a *sparse.CSR, format sparse.Format, workers, iterations int) *task.Node {
	if iterations < 1 {
		panic(fmt.Sprintf("cg: iterations %d", iterations))
	}
	n := a.RowsN
	// Every iteration runs the same SpMV: its subtree is stored once and
	// shared by all of them.
	var ar task.Arena
	src := sparse.BuildSpMV(m, a, format, sparse.Options{Workers: workers}).Root
	spmv := ar.Import(src)
	src.Tree().Release() // the import is a copy
	iters := make([]task.Ref, 0, iterations)
	for it := 0; it < iterations; it++ {
		// Vector phase: 11n flops, all streaming, split across workers.
		chunks := make([]task.Ref, 0, workers)
		for w := 0; w < workers; w++ {
			share := float64(n) / float64(workers)
			chunks = append(chunks, ar.WithAffinityMask(ar.Leaf(task.Work{
				Label: fmt.Sprintf("cg vecops it%d w%d", it, w),
				Kind:  task.KindAdd,
				Flops: 11 * share,
				// Five vector sweeps read+write ~2 vectors each.
				DRAMBytes: 11 * 2 * 8 * share,
			}), task.SingleWorker(w)))
		}
		iters = append(iters, ar.Seq(spmv, ar.Par(chunks...)))
	}
	return ar.Node(ar.Seq(iters...))
}
