package capscale

import (
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/obs"
	"capscale/internal/strassen"
	"capscale/internal/workload"
)

// BenchmarkExecuteMatrix measures the experiment driver itself on the
// smoke matrix (12 cells through build, simulate, measure):
//
//   - sequential: one worker, memoization off — the baseline sweep.
//   - parallel: GOMAXPROCS workers, memoization off — the concurrent
//     driver, bit-identical results in the same order.
//   - memoized: cache on — what repeat consumers (the table benches,
//     the CLIs) pay after the first sweep.
//   - observed: sequential again but with span tracing enabled — the
//     price of watching a run. The sequential case doubles as the
//     guard that the disabled observability hooks cost nothing.
//
// This is the perf-trajectory benchmark `make bench-driver` records in
// BENCH_driver.json.
func BenchmarkExecuteMatrix(b *testing.B) {
	base := workload.SmokeConfig()
	b.Run("sequential", func(b *testing.B) {
		cfg := base
		cfg.NoCache = true
		cfg.Parallelism = 1
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = workload.Execute(cfg)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		cfg := base
		cfg.NoCache = true
		cfg.Parallelism = 0 // GOMAXPROCS
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = workload.Execute(cfg)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		cfg := base
		cfg.Cache = workload.NewRunCache(workload.DefaultRunCacheCap)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = workload.Execute(cfg)
		}
	})
	b.Run("observed", func(b *testing.B) {
		cfg := base
		cfg.NoCache = true
		cfg.Parallelism = 1
		obs.Enable()
		defer obs.Disable()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = workload.Execute(cfg)
		}
	})
}

// BenchmarkExecuteDistributed measures one distributed cell end to
// end — rank-program simulation through the MPI layer, cluster power
// timeline merge, and the polled five-plane monitor — for the two
// comm-gate algorithms on a 16-node GigE cluster. Joins
// BenchmarkExecuteMatrix in BENCH_driver.json via `make bench-driver`.
func BenchmarkExecuteDistributed(b *testing.B) {
	spec, err := cluster.ParseSpec("16x1GbE")
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []workload.Algorithm{workload.AlgSUMMA, workload.AlgDistCAPS} {
		b.Run(alg.String(), func(b *testing.B) {
			cfg := workload.SmokeConfig()
			cfg.NoCache = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := workload.ExecuteOneCluster(cfg, alg, 256, spec)
				if run.Failed() {
					b.Fatal(run.Err)
				}
			}
		})
	}
}

// BenchmarkBuildTree measures tree construction at n = 2048, the cost
// each simulated cell pays before the simulator runs:
//
//   - dense: strassen.Build over three freshly allocated n×n operands,
//     the operand allocation included;
//   - shape: workload.BuildTree for Strassen over shape-only operands,
//     as every sweep cell builds it;
//   - caps: workload.BuildTree for CAPS, the paper sweep's heaviest
//     builder (staging copies and gathers on top of Strassen's leaves).
//
// The builders draw nodes, region lists and labels from a per-build
// task.Arena, so allocs/op counts arena blocks, not leaves.
func BenchmarkBuildTree(b *testing.B) {
	m := hw.HaswellE31225()
	const n = 2048
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, bb, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
			_ = strassen.Build(m, c, a, bb, 4, strassen.Options{})
		}
	})
	b.Run("shape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = workload.BuildTree(m, workload.AlgStrassen, n, 4)
		}
	})
	b.Run("caps", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = workload.BuildTree(m, workload.AlgCAPS, n, 4)
		}
	})
}
