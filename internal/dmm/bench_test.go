package dmm

import (
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/mpi"
)

// BenchmarkRunTraced times the traced MPI layer on the distributed
// sweep's heaviest communication patterns: DStrassen at n=2048 on a
// 64-node FDR cluster, and dCAPS at n=2048 on the 49 ranks it fits
// there. ns/message is what scheduling the ranks and folding their
// power deltas into the timeline costs per message.
func BenchmarkRunTraced(b *testing.B) {
	cl := fdrCluster(b)
	for _, bc := range []struct {
		name  string
		ranks int
		prog  func(*mpi.Rank)
	}{
		{"alg=DStrassen,ranks=64", cl.Nodes, Strassen(2048, 0)},
		{"alg=dCAPS,ranks=49", FitCAPS(2048, cl.Nodes), CAPS(2048, 0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			msgs := 0
			for i := 0; i < b.N; i++ {
				res, _ := mpi.RunTraced(cl, bc.ranks, bc.prog)
				msgs += res.Messages
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/message")
		})
	}
}

// fdrCluster is the 64-node FDR cluster of scale-sweep's cells
// ("64xFDR").
func fdrCluster(tb testing.TB) *cluster.Cluster {
	spec, err := cluster.ParseSpec("64xFDR")
	if err != nil {
		tb.Fatal(err)
	}
	fabric, err := spec.Comms.Fabric()
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := cluster.New(hw.HaswellE31225(), spec.Nodes, fabric)
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}
