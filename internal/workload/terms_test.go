package workload

import (
	"math"
	"testing"

	"capscale/internal/sim"
)

// TestModelTermsBoundSimMakespan: the model's closed-form work W
// (BusySeconds) and span S (SpanSeconds) bound the simulator's
// makespan T on p workers as Graham's greedy-scheduling bounds do,
// max(W/p, S) ≤ T ≤ W/p + S, for every dense node family with
// contention and affinity off. No tree is walked for the bounds, so
// the model and the simulator vouch for each other.
func TestModelTermsBoundSimMakespan(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 64 cells up to n = 4096")
	}
	cfg := PaperConfig()
	m := cfg.Machine
	cells, strict, worst := 0, 0, 0.0
	for _, alg := range []Algorithm{AlgOpenBLAS, AlgStrassen, AlgWinograd, AlgCAPS} {
		for _, n := range []int{512, 1024, 2048, 4096} {
			for p := 1; p <= 4; p++ {
				terms, err := cellTerms(&cfg, cell{alg: alg, n: n, threads: p, spec: -1})
				if err != nil {
					t.Fatal(err)
				}
				res := sim.Run(m, BuildTree(m, alg, n, p), sim.Config{Workers: p, DisableAffinity: true, DisableContention: true})
				w, s := terms.BusySeconds/float64(p), terms.SpanSeconds
				lo, hi := math.Max(w, s), w+s
				tol := 1e-9 * hi
				if res.Makespan < lo-tol || res.Makespan > hi+tol {
					t.Errorf("%s n=%d on %d workers: makespan %v outside the model's [%v, %v]", alg, n, p, res.Makespan, lo, hi)
				}
				cells++
				if res.Makespan > lo+tol {
					strict++
				}
				worst = math.Max(worst, (res.Makespan-lo)/lo)
			}
		}
	}
	// Some makespans must sit strictly above the lower bound, or the
	// lower bound alone would be doing the checking.
	if strict == 0 {
		t.Fatalf("all %d makespans equal the model's lower bound", cells)
	}
	t.Logf("%d cells, %d strictly above the lower bound, worst (T-lower)/lower %.1f%%", cells, strict, 100*worst)
}
