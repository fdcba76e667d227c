// Quickstart: multiply two matrices with all three of the paper's
// algorithms — once for real (checking the results agree) and once on
// the simulated Haswell platform (reporting time, power and the Eq. 1
// energy-performance ratio).
package main

import (
	"fmt"
	"math/rand"
	"os"

	"capscale/internal/blas"
	"capscale/internal/caps"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/sched"
	"capscale/internal/sim"
	"capscale/internal/strassen"
	"capscale/internal/task"
	"capscale/internal/workload"
)

func main() {
	const n = 256
	const threads = 4
	m := hw.HaswellE31225()
	rng := rand.New(rand.NewSource(1))
	a := matrix.Rand(rng, n, n)
	b := matrix.Rand(rng, n, n)

	// Reference product.
	want := matrix.New(n, n)
	matrix.MulNaive(want, a, b)

	// 1. Real execution: build each algorithm's task tree with math
	// attached and run it on the goroutine pool.
	builders := []struct {
		name  string
		build func(c *matrix.Dense) *task.Node
	}{
		{"OpenBLAS-style blocked", func(c *matrix.Dense) *task.Node {
			return blas.Build(m, c, a, b, blas.Options{Workers: threads, WithMath: true})
		}},
		{"parallel Strassen", func(c *matrix.Dense) *task.Node {
			return strassen.Build(m, c, a, b, threads, strassen.Options{WithMath: true})
		}},
		{"CAPS", func(c *matrix.Dense) *task.Node {
			return caps.Build(m, c, a, b, threads, caps.Options{WithMath: true})
		}},
	}
	pool := sched.New(threads)
	fmt.Printf("real execution of a %dx%d multiply on %d workers:\n", n, n, threads)
	wrong := false
	for _, bld := range builders {
		c := matrix.New(n, n)
		metrics := pool.Run(bld.build(c))
		status := "OK"
		if !matrix.AlmostEqual(c, want, 1e-10) {
			status = fmt.Sprintf("WRONG (max diff %g)", matrix.MaxAbsDiff(c, want))
			wrong = true
		}
		fmt.Printf("  %-24s %8v wall, %5d leaves, result %s\n",
			bld.name, metrics.Wall.Round(1000), metrics.Leaves, status)
	}

	// 2. Simulated execution on the paper's platform: deterministic
	// time, power and energy-performance figures.
	fmt.Printf("\nsimulated on %q:\n", m.Name)
	fmt.Printf("  %-10s %12s %10s %12s\n", "algorithm", "time (s)", "power (W)", "EP (Eq. 1)")
	for _, alg := range workload.PaperAlgorithms() {
		root := workload.BuildTree(m, alg, 1024, threads)
		res := sim.Run(m, root, sim.Config{Workers: threads})
		ep := res.AvgPowerTotal() / res.Makespan
		fmt.Printf("  %-10s %12.4f %10.2f %12.1f\n", alg, res.Makespan, res.AvgPowerTotal(), ep)
	}
	fmt.Println("\nOpenBLAS is fastest; the Strassen-derived algorithms draw far less")
	fmt.Println("power per added thread — the tradeoff the EP model quantifies.")
	if wrong {
		os.Exit(1)
	}
}
