package sched

import (
	"runtime"
	"testing"

	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

// BenchmarkSchedDispatch measures per-leaf dispatch overhead of the
// persistent-worker engine on trees whose leaves do no work, so the
// engine itself is the entire cost.
func BenchmarkSchedDispatch(b *testing.B) {
	p := New(runtime.GOMAXPROCS(0))
	defer p.Close()

	b.Run("flat4096", func(b *testing.B) {
		var a task.Arena
		leaves := make([]task.Ref, 4096)
		for i := range leaves {
			leaves[i] = a.Leaf(task.Work{Run: func() {}})
		}
		root := a.Node(a.Par(leaves...))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Run(root)
		}
		b.ReportMetric(float64(4096*b.N)/b.Elapsed().Seconds(), "leaves/s")
	})

	// The shape the cutover-64 recursion actually produces: deep
	// Seq/Par nesting with thousands of fine-grained leaves.
	b.Run("strassen-cutover64", func(b *testing.B) {
		m := hw.HaswellE31225()
		n := 512
		a, bb, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
		root := strassen.Build(m, c, a, bb, 4, strassen.Options{Cutover: 64})
		leaves := task.Collect(root).Leaves
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Run(root)
		}
		b.ReportMetric(float64(leaves*b.N)/b.Elapsed().Seconds(), "leaves/s")
	})
}
