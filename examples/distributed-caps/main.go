// Distributed CAPS: the paper's Section VIII future work — the same
// energy-performance scaling methodology applied to a simulated
// cluster of the paper's Haswell nodes, with the interconnect's
// transfer power in the account. Compares distributed CAPS against a
// classic SUMMA baseline and distributed classic Strassen on two
// fabrics, each cell an ordinary measured sweep cell on the cluster
// axis.
package main

import (
	"fmt"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/report"
	"capscale/internal/workload"
)

func main() {
	const n = 8192
	fmt.Printf("distributed %dx%d multiply on clusters of the paper's TS140 node\n\n", n, n)

	// SUMMA runs on square process grids; distributed Strassen and
	// CAPS on 7^k ranks.
	groups := []struct {
		algs  []workload.Algorithm
		nodes []int
	}{
		{[]workload.Algorithm{workload.AlgSUMMA}, []int{1, 4, 16}},
		{[]workload.Algorithm{workload.AlgDStrassen, workload.AlgDistCAPS}, []int{1, 7, 49}},
	}
	for _, fabric := range []string{"1GbE", "FDR"} {
		for _, g := range groups {
			cfg := workload.Config{
				Machine:    hw.HaswellE31225(),
				Algorithms: g.algs,
				Sizes:      []int{n},
				Threads:    []int{1},
			}
			for _, nodes := range g.nodes {
				spec, err := cluster.ParseSpec(fmt.Sprintf("%dx%s", nodes, fabric))
				if err != nil {
					panic(err)
				}
				cfg.Clusters = append(cfg.Clusters, spec)
			}
			fmt.Println(report.DistributedStudyTable(workload.Execute(cfg)))
		}
	}
	fmt.Println("CAPS's per-rank communication falls like P^(-0.71) versus SUMMA's")
	fmt.Println("P^(-0.5): on the slow fabric that difference decides whether adding")
	fmt.Println("nodes saves or wastes energy — the multifaceted power model the")
	fmt.Println("paper's future work calls for.")
}
