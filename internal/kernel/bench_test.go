package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"capscale/internal/matrix"
)

// BenchmarkGemmPacked reports achieved GFLOP/s. Steady-state
// iterations must not allocate: the kernel draws its packing buffers
// from the shared pool.
func BenchmarkGemmPacked(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			x := matrix.Rand(rng, n, n)
			y := matrix.Rand(rng, n, n)
			dst := matrix.New(n, n)
			MulPacked(dst, x, y) // warm the buffer pool before counting allocs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulPacked(dst, x, y)
			}
			gflops := MulFlops(n, n, n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gflops, "GFLOP/s")
		})
	}
}
