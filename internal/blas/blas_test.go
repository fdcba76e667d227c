package blas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"capscale/internal/hw"
	"capscale/internal/kernel"
	"capscale/internal/matrix"
	"capscale/internal/sim"
	"capscale/internal/task"
)

func machine() *hw.Machine { return hw.HaswellE31225() }

func TestPlanForRespectsCaches(t *testing.T) {
	m := machine()
	p := PlanFor(m, 4096, 4096, 4096)
	if p.NC != 4096 {
		t.Fatalf("NC %d", p.NC)
	}
	if bytes := 8 * p.KC * p.NC; bytes > m.L3.SizeBytes/2 {
		t.Fatalf("B panel %d bytes exceeds half L3", bytes)
	}
	if bytes := 8 * p.MC * p.KC; bytes > m.L2.SizeBytes/2 {
		t.Fatalf("A block %d bytes exceeds half L2", bytes)
	}
	if p.MC < 16 || p.KC < 16 {
		t.Fatalf("degenerate plan %+v", p)
	}
}

func TestPlanForSmallProblem(t *testing.T) {
	p := PlanFor(machine(), 32, 32, 32)
	if p.KC > 32 || p.MC > 32 {
		t.Fatalf("plan exceeds problem: %+v", p)
	}
}

func TestBuildPanicsOnBadShapes(t *testing.T) {
	m := machine()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	Build(m, matrix.New(4, 4), matrix.New(4, 8), matrix.New(4, 4), Options{Workers: 1})
}

func TestBuildPanicsOnZeroWorkers(t *testing.T) {
	m := machine()
	n := 8
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero workers")
		}
	}()
	Build(m, matrix.New(n, n), matrix.New(n, n), matrix.New(n, n), Options{})
}

func TestNumericsMatchNaive(t *testing.T) {
	m := machine()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 31, 64, 100, 128} {
		a := matrix.Rand(rng, n, n)
		b := matrix.Rand(rng, n, n)
		c := matrix.New(n, n)
		root := Build(m, c, a, b, Options{Workers: 3, WithMath: true})
		sim.Run(m, root, sim.Config{Workers: 3, VerifyNumerics: true})
		want := matrix.New(n, n)
		matrix.MulNaive(want, a, b)
		if !matrix.AlmostEqual(c, want, 1e-11) {
			t.Fatalf("n=%d: blocked result differs by %v", n, matrix.MaxAbsDiff(c, want))
		}
	}
}

func TestNumericsSerialExecutor(t *testing.T) {
	m := machine()
	rng := rand.New(rand.NewSource(2))
	n := 96
	a := matrix.Rand(rng, n, n)
	b := matrix.Rand(rng, n, n)
	c := matrix.New(n, n)
	root := Build(m, c, a, b, Options{Workers: 2, WithMath: true})
	task.RunSerial(root)
	want := matrix.New(n, n)
	matrix.MulNaive(want, a, b)
	if !matrix.AlmostEqual(c, want, 1e-11) {
		t.Fatal("serial execution differs from naive")
	}
}

func TestFlopAccountingExact(t *testing.T) {
	m := machine()
	n := 256
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	root := Build(m, c, a, b, Options{Workers: 4})
	stats := task.Collect(root)
	wantGEMM := kernel.MulFlops(n, n, n)
	if got := stats.FlopsByKind[task.KindGEMM]; got != wantGEMM {
		t.Fatalf("gemm flops %v want %v", got, wantGEMM)
	}
}

func TestTreeIsComputeDominated(t *testing.T) {
	// Blocked DGEMM's whole point: flops per DRAM byte should be high.
	m := machine()
	n := 1024
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	stats := task.Collect(Build(m, c, a, b, Options{Workers: 4}))
	intensity := stats.Flops / stats.DRAMBytes
	if intensity < 8 {
		t.Fatalf("arithmetic intensity %v too low for a blocked algorithm", intensity)
	}
}

func TestSimulatedSpeedupNearLinear(t *testing.T) {
	m := machine()
	n := 1024
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	mk := func(workers int) *sim.Result {
		root := Build(m, c, a, b, Options{Workers: workers})
		return sim.Run(m, root, sim.Config{Workers: workers})
	}
	t1 := mk(1).Makespan
	t4 := mk(4).Makespan
	speedup := t1 / t4
	if speedup < 3.2 || speedup > 4.05 {
		t.Fatalf("4-thread speedup %v, want near 4 (compute bound)", speedup)
	}
}

func TestSimulatedTimeNearModelPrediction(t *testing.T) {
	// 4096³ at 4 threads should take on the order of 2·n³ / (4 cores ·
	// 25.6 GF · 0.92) ≈ 1.46 s. Allow packing and C-traffic slack.
	m := machine()
	n := 2048
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	root := Build(m, c, a, b, Options{Workers: 4})
	res := sim.Run(m, root, sim.Config{Workers: 4})
	ideal := kernel.MulFlops(n, n, n) / (4 * m.PeakFlopsPerCore() * 0.92)
	if res.Makespan < ideal {
		t.Fatalf("makespan %v beats ideal %v", res.Makespan, ideal)
	}
	if res.Makespan > ideal*1.5 {
		t.Fatalf("makespan %v more than 1.5x ideal %v", res.Makespan, ideal)
	}
}

func TestStaticPartitionAvoidsCommunication(t *testing.T) {
	m := machine()
	n := 512
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	root := Build(m, c, a, b, Options{Workers: 4})
	res := sim.Run(m, root, sim.Config{Workers: 4})
	if res.RemoteBytes != 0 {
		t.Fatalf("statically partitioned DGEMM charged %v remote bytes", res.RemoteBytes)
	}
}

func TestHighUtilizationAtFourThreads(t *testing.T) {
	m := machine()
	n := 1024
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	root := Build(m, c, a, b, Options{Workers: 4})
	res := sim.Run(m, root, sim.Config{Workers: 4})
	if u := res.Utilization(); u < 0.85 {
		t.Fatalf("worker utilization %v, expected high for static DGEMM", u)
	}
	// Power should be near the compute-saturated calibration point.
	if p := res.AvgPowerTotal(); p < 40 || p > 56 {
		t.Fatalf("4-thread power %v W outside OpenBLAS-like range", p)
	}
}

func TestPropertyNumericsRandomSizes(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		workers := 1 + rng.Intn(4)
		a := matrix.Rand(rng, n, n)
		b := matrix.Rand(rng, n, n)
		c := matrix.New(n, n)
		root := Build(m, c, a, b, Options{Workers: workers, WithMath: true})
		sim.Run(m, root, sim.Config{Workers: workers, VerifyNumerics: true})
		want := matrix.New(n, n)
		matrix.MulNaive(want, a, b)
		return matrix.AlmostEqual(c, want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFlopAccountingRandomShapes(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		M, K, N := 1+rng.Intn(200), 1+rng.Intn(200), 1+rng.Intn(200)
		a, b, c := matrix.New(M, K), matrix.New(K, N), matrix.New(M, N)
		stats := task.Collect(Build(m, c, a, b, Options{Workers: 1 + rng.Intn(4)}))
		return stats.FlopsByKind[task.KindGEMM] == kernel.MulFlops(M, N, K)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
