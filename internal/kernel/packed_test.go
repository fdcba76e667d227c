package kernel

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"capscale/internal/matrix"
)

func TestPackAUnpacksCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := matrix.Rand(rng, 10, 6)
	mc, kc := 6, 5
	dst := make([]float64, ((mc+MR-1)/MR)*MR*kc)
	PackA(dst, a, 2, 1, mc, kc)
	// Element (row r of block, k) lives at panel(r/MR), k, r%MR.
	for r := 0; r < mc; r++ {
		for k := 0; k < kc; k++ {
			idx := (r/MR)*MR*kc + k*MR + r%MR
			if dst[idx] != a.At(2+r, 1+k) {
				t.Fatalf("PackA misplaced (%d,%d)", r, k)
			}
		}
	}
	// Zero-padding past mc.
	if pad := dst[(mc/MR)*MR*kc+0*MR+(mc%MR)]; pad != 0 {
		t.Fatalf("padding not zero: %v", pad)
	}
}

func TestPackBUnpacksCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := matrix.Rand(rng, 7, 11)
	kc, nc := 5, 7
	dst := make([]float64, ((nc+NR-1)/NR)*NR*kc)
	PackB(dst, b, 1, 3, kc, nc)
	for k := 0; k < kc; k++ {
		for c := 0; c < nc; c++ {
			idx := (c/NR)*NR*kc + k*NR + c%NR
			if dst[idx] != b.At(1+k, 3+c) {
				t.Fatalf("PackB misplaced (%d,%d)", k, c)
			}
		}
	}
}

func TestPackTooSmallPanics(t *testing.T) {
	a := matrix.New(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PackA(make([]float64, 3), a, 0, 0, 8, 8)
}

// The shapes are mostly not multiples of MR/NR, so every edge path of
// the micro-kernel and both packers is exercised.
func TestMulPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {5, 7, 3}, {16, 16, 16}, {17, 13, 19}, {33, 19, 27},
		{63, 65, 62}, {100, 64, 80}, {129, 127, 131}, {130, 131, 129}, {257, 129, 255},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a := matrix.Rand(rng, m, k)
		b := matrix.Rand(rng, k, n)
		got := matrix.New(m, n)
		MulPacked(got, a, b)
		want := matrix.New(m, n)
		matrix.MulNaive(want, a, b)
		if !matrix.AlmostEqual(got, want, 1e-11) {
			t.Fatalf("%v: packed gemm differs by %v", dims, matrix.MaxAbsDiff(got, want))
		}
	}
}

func TestGemmPackedAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := matrix.Rand(rng, 8, 8)
	b := matrix.Rand(rng, 8, 8)
	dst := matrix.Rand(rng, 8, 8)
	before := dst.Clone()
	GemmPacked(dst, a, b, 0, 0, 0)
	prod := matrix.New(8, 8)
	matrix.MulNaive(prod, a, b)
	want := matrix.New(8, 8)
	matrix.AddTo(want, before, prod)
	if !matrix.AlmostEqual(dst, want, 1e-12) {
		t.Fatal("GemmPacked did not accumulate")
	}
}

func TestGemmPackedTinyBlocks(t *testing.T) {
	// Pathological blocking parameters must still be correct.
	rng := rand.New(rand.NewSource(5))
	a := matrix.Rand(rng, 23, 17)
	b := matrix.Rand(rng, 17, 29)
	got := matrix.New(23, 29)
	GemmPacked(got, a, b, 5, 3, 7)
	want := matrix.New(23, 29)
	matrix.MulNaive(want, a, b)
	if !matrix.AlmostEqual(got, want, 1e-11) {
		t.Fatalf("tiny blocks wrong by %v", matrix.MaxAbsDiff(got, want))
	}
}

func TestGemmPackedOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	big := matrix.Rand(rng, 32, 32)
	a11, _, _, a22 := big.Quadrants()
	got := matrix.New(16, 16)
	MulPacked(got, a11, a22)
	want := matrix.New(16, 16)
	matrix.MulNaive(want, a11.Clone(), a22.Clone())
	if !matrix.AlmostEqual(got, want, 1e-12) {
		t.Fatal("strided packed multiply wrong")
	}
}

func TestPropertyPackedMatchesMulAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := matrix.Rand(rng, m, k)
		b := matrix.Rand(rng, k, n)
		p := matrix.New(m, n)
		MulPacked(p, a, b)
		q := matrix.New(m, n)
		Mul(q, a, b)
		return matrix.AlmostEqual(p, q, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sched workers run blas leaves concurrently, and every GemmPacked
// call draws its packing buffers from one shared pool: concurrent
// callers must not see each other's panels.
func TestGemmPackedConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 150
	a := matrix.Rand(rng, n, n)
	b := matrix.Rand(rng, n, n)
	want := matrix.New(n, n)
	GemmPacked(want, a, b, 32, 24, 40)

	results := make([]*matrix.Dense, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = matrix.New(n, n)
			GemmPacked(results[i], a, b, 32, 24, 40)
		}()
	}
	wg.Wait()
	for i, c := range results {
		if !matrix.Equal(c, want) {
			t.Errorf("caller %d: concurrent result differs by %v", i, matrix.MaxAbsDiff(c, want))
		}
	}
}

// The register-block constants are load-bearing for micro's hand
// unrolled accumulator file; a compile-time guard in packed.go pins
// them, and this test documents the invariant where a human will see
// it fail first.
func TestMicroKernelBlockConstants(t *testing.T) {
	if MR != 4 || NR != 4 {
		t.Fatalf("MR=%d NR=%d: micro's accumulators are hand-unrolled for 4x4; "+
			"rewrite kernel.micro before changing the block constants", MR, NR)
	}
}

func BenchmarkMulAdd256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := matrix.Rand(rng, 256, 256)
	y := matrix.Rand(rng, 256, 256)
	dst := matrix.New(256, 256)
	flops := MulFlops(256, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAdd(dst, x, y)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
