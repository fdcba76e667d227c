package strassen

import (
	"math"
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

func mulVia(t *testing.T, n, workers int, opt Options) (*matrix.Dense, *matrix.Dense) {
	t.Helper()
	m := machine()
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(workers)))
	a := matrix.Rand(rng, n, n)
	b := matrix.Rand(rng, n, n)
	c := matrix.New(n, n)
	opt.WithMath = true
	root := Build(m, c, a, b, workers, opt)
	sim.Run(m, root, sim.Config{Workers: workers, VerifyNumerics: true})
	want := matrix.New(n, n)
	matrix.MulNaive(want, a, b)
	return c, want
}

func TestClassicMatchesNaive(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64, 128, 256} {
		got, want := mulVia(t, n, 3, Options{Cutover: 8})
		if !matrix.AlmostEqual(got, want, 1e-10) {
			t.Fatalf("n=%d: classic Strassen differs by %v", n, matrix.MaxAbsDiff(got, want))
		}
	}
}

func TestWinogradMatchesNaive(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64, 128, 256} {
		got, want := mulVia(t, n, 3, Options{Cutover: 8, Winograd: true})
		if !matrix.AlmostEqual(got, want, 1e-10) {
			t.Fatalf("n=%d: Winograd differs by %v", n, matrix.MaxAbsDiff(got, want))
		}
	}
}

func TestDefaultCutoverUsed(t *testing.T) {
	// At n = 64 the default options must produce a single dense leaf.
	m := machine()
	n := 64
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	root := Build(m, c, a, b, 4, Options{})
	stats := task.Collect(root)
	if stats.Leaves != 1 {
		t.Fatalf("n=64 built %d leaves, want 1 (cutover)", stats.Leaves)
	}
	if stats.FlopsByKind[task.KindBaseMul] != kernel.MulFlops(n, n, n) {
		t.Fatal("base case flops wrong")
	}
}

func TestOddSizeFallsBackToDense(t *testing.T) {
	got, want := mulVia(t, 63, 2, Options{Cutover: 8})
	if !matrix.AlmostEqual(got, want, 1e-10) {
		t.Fatal("odd dimension result wrong")
	}
	// 126 = 2·63: one split then odd base cases.
	got, want = mulVia(t, 126, 2, Options{Cutover: 8})
	if !matrix.AlmostEqual(got, want, 1e-10) {
		t.Fatal("半-odd dimension result wrong")
	}
}

func TestBuildPanics(t *testing.T) {
	m := machine()
	if err := catchPanic(func() {
		Build(m, matrix.New(4, 4), matrix.New(4, 4), matrix.New(4, 8), 2, Options{})
	}); err == false {
		t.Fatal("non-square operand accepted")
	}
	if err := catchPanic(func() {
		Build(m, matrix.New(4, 4), matrix.New(4, 4), matrix.New(4, 4), 0, Options{})
	}); err == false {
		t.Fatal("zero workers accepted")
	}
}

func catchPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return
}

func TestMulFlopAccountingMatchesClosedForm(t *testing.T) {
	m := machine()
	for _, n := range []int{64, 128, 256, 512} {
		a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
		stats := task.Collect(Build(m, c, a, b, 4, Options{}))
		if got, want := stats.FlopsByKind[task.KindBaseMul], MulFlopsTotal(n, DefaultCutover); got != want {
			t.Fatalf("n=%d mul flops %v want %v", n, got, want)
		}
		if got, want := stats.FlopsByKind[task.KindAdd], AddFlopsTotal(n, DefaultCutover, false); got != want {
			t.Fatalf("n=%d add flops %v want %v", n, got, want)
		}
	}
}

func TestWinogradFlopAccounting(t *testing.T) {
	m := machine()
	n := 256
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	stats := task.Collect(Build(m, c, a, b, 4, Options{Winograd: true}))
	if got, want := stats.FlopsByKind[task.KindAdd], AddFlopsTotal(n, DefaultCutover, true); got != want {
		t.Fatalf("winograd add flops %v want %v", got, want)
	}
	classic := task.Collect(Build(m, c, a, b, 4, Options{}))
	if stats.FlopsByKind[task.KindAdd] >= classic.FlopsByKind[task.KindAdd] {
		t.Fatal("Winograd should perform fewer additions than classic")
	}
}

func TestStrassenBeatsCubicFlopCount(t *testing.T) {
	// The whole point: fewer multiply flops than 2n³ for n well above
	// the cutover.
	n := 4096
	if MulFlopsTotal(n, 64) >= kernel.MulFlops(n, n, n) {
		t.Fatal("Strassen did not reduce multiplication count")
	}
	// 7/8 per level, 6 levels: (7/8)^6 ≈ 0.4488.
	ratio := MulFlopsTotal(n, 64) / kernel.MulFlops(n, n, n)
	if math.Abs(ratio-math.Pow(7.0/8.0, 6)) > 1e-12 {
		t.Fatalf("mul ratio %v want %v", ratio, math.Pow(7.0/8.0, 6))
	}
}

func TestLeafCountClosedForm(t *testing.T) {
	// Levels k: base muls 7^k; add leaves: classic has 14 per internal
	// node (10 pre + 4 post).
	m := machine()
	n := 512
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	stats := task.Collect(Build(m, c, a, b, 4, Options{}))
	k := 3 // 512 -> 256 -> 128 -> 64
	muls := int(math.Pow(7, float64(k)))
	internal := (muls - 1) / 6 // 1 + 7 + 49
	wantLeaves := muls + internal*14
	if stats.Leaves != wantLeaves {
		t.Fatalf("leaves %d want %d", stats.Leaves, wantLeaves)
	}
}

func TestAllocPeakGrowsWithProblem(t *testing.T) {
	m := machine()
	build := func(n int) task.Stats {
		a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
		return task.Collect(Build(m, c, a, b, 4, Options{}))
	}
	s512, s1024 := build(512), build(1024)
	if s1024.AllocPeak <= s512.AllocPeak {
		t.Fatal("alloc peak should grow with problem size")
	}
	// Top level alone needs 17·(n/2)²·8 bytes.
	if min := 17 * kernel.Bytes(512, 512); s1024.AllocPeak < min {
		t.Fatalf("1024 alloc peak %v below single-level need %v", s1024.AllocPeak, min)
	}
}

func TestSimulatedSpeedupReasonable(t *testing.T) {
	m := machine()
	n := 1024
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	mk := func(workers int) *sim.Result {
		root := Build(m, c, a, b, workers, Options{})
		return sim.Run(m, root, sim.Config{Workers: workers})
	}
	t1, t4 := mk(1).Makespan, mk(4).Makespan
	speedup := t1 / t4
	if speedup < 1.8 || speedup > 4.05 {
		t.Fatalf("4-thread Strassen speedup %v outside plausible range", speedup)
	}
}

func TestSimulatedPowerFlatterThanBLASLike(t *testing.T) {
	// Strassen's power should grow much less from 1 to 4 threads than a
	// compute-saturated workload's (the paper's central contrast).
	m := machine()
	n := 2048
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	p1 := sim.Run(m, Build(m, c, a, b, 1, Options{}), sim.Config{Workers: 1}).AvgPowerTotal()
	p4 := sim.Run(m, Build(m, c, a, b, 4, Options{}), sim.Config{Workers: 4}).AvgPowerTotal()
	growth := p4 / p1
	if growth > 2.0 {
		t.Fatalf("Strassen power grew %vx from 1 to 4 threads; expected sublinear", growth)
	}
	if p4 <= p1 {
		t.Fatalf("more threads should still draw more power: %v -> %v", p1, p4)
	}
}

func TestCommunicationChargedWithManyWorkers(t *testing.T) {
	m := machine()
	n := 512
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	res4 := sim.Run(m, Build(m, c, a, b, 4, Options{}), sim.Config{Workers: 4})
	res1 := sim.Run(m, Build(m, c, a, b, 1, Options{}), sim.Config{Workers: 1})
	if res1.RemoteBytes != 0 {
		t.Fatalf("single worker charged %v remote bytes", res1.RemoteBytes)
	}
	if res4.RemoteBytes == 0 {
		t.Fatal("task-parallel Strassen on 4 workers charged no communication")
	}
}

func TestPropertyClassicMatchesNaiveExactInts(t *testing.T) {
	// With small integer matrices Strassen is exact, so equality is
	// strict.
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(5)) // 2..32
		workers := 1 + rng.Intn(4)
		a := matrix.RandInts(rng, n, n, 3)
		b := matrix.RandInts(rng, n, n, 3)
		c := matrix.New(n, n)
		root := Build(m, c, a, b, workers, Options{Cutover: 2, WithMath: true})
		sim.Run(m, root, sim.Config{Workers: workers, VerifyNumerics: true})
		want := matrix.New(n, n)
		matrix.MulNaive(want, a, b)
		return matrix.Equal(c, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWinogradMatchesNaiveExactInts(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(5))
		workers := 1 + rng.Intn(4)
		a := matrix.RandInts(rng, n, n, 3)
		b := matrix.RandInts(rng, n, n, 3)
		c := matrix.New(n, n)
		root := Build(m, c, a, b, workers, Options{Cutover: 2, Winograd: true, WithMath: true})
		sim.Run(m, root, sim.Config{Workers: workers, VerifyNumerics: true})
		want := matrix.New(n, n)
		matrix.MulNaive(want, a, b)
		return matrix.Equal(c, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFlopClosedFormsConsistent(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (6 + rng.Intn(4)) // 64..512
		cut := []int{16, 32, 64}[rng.Intn(3)]
		a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
		stats := task.Collect(Build(m, c, a, b, 2, Options{Cutover: cut}))
		return stats.FlopsByKind[task.KindBaseMul] == MulFlopsTotal(n, cut) &&
			stats.FlopsByKind[task.KindAdd] == AddFlopsTotal(n, cut, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// A shape-only build draws its nodes, region lists and labels from a
// per-build arena: at most one allocation per four leaves (a node, a
// label and two region lists per leaf cost ~4.7 before the arena).
func TestShapeBuildAllocationBudget(t *testing.T) {
	m := machine()
	const n = 1024
	a, b, c := matrix.Shape(n, n), matrix.Shape(n, n), matrix.Shape(n, n)
	for _, opt := range []Options{{}, {Winograd: true}} {
		leaves := task.Collect(Build(m, c, a, b, 4, opt)).Leaves
		allocs := testing.AllocsPerRun(3, func() { Build(m, c, a, b, 4, opt) })
		if allocs > float64(leaves)/4 {
			t.Errorf("winograd=%t: %.0f allocations for %d leaves, budget %d", opt.Winograd, allocs, leaves, leaves/4)
		}
	}
}
