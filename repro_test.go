package capscale

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/energy"
	"capscale/internal/model"
	"capscale/internal/report"
	"capscale/internal/stats"
	"capscale/internal/workload"
)

// The integration tests assert the paper's qualitative findings on a
// real execution of the experiment matrix. Under -short a reduced
// matrix (without the 4096 column) keeps the suite fast; the full
// matrix is shared with the benchmark harness.
var (
	shortOnce sync.Once
	shortMx   *workload.Matrix
)

func testMatrix(t *testing.T) *workload.Matrix {
	t.Helper()
	if testing.Short() {
		shortOnce.Do(func() {
			cfg := workload.PaperConfig()
			cfg.Sizes = []int{512, 1024, 2048}
			shortMx = workload.Execute(cfg)
		})
		return shortMx
	}
	matrixOnce.Do(func() {
		paperMx = workload.Execute(workload.PaperConfig())
	})
	return paperMx
}

func TestReproOpenBLASFastestEverywhere(t *testing.T) {
	mx := testMatrix(t)
	for _, n := range mx.Cfg.Sizes {
		for _, p := range mx.Cfg.Threads {
			base := mx.Get(workload.AlgOpenBLAS, n, p).Seconds
			for _, alg := range []workload.Algorithm{workload.AlgStrassen, workload.AlgCAPS} {
				if mx.Get(alg, n, p).Seconds <= base {
					t.Errorf("n=%d p=%d: %v not slower than OpenBLAS", n, p, alg)
				}
			}
		}
	}
}

func TestReproSlowdownMagnitudes(t *testing.T) {
	// Paper: Strassen ≈ 2.97×, CAPS ≈ 2.79× on average; require the
	// same order and a ±25% band around the published averages.
	mx := testMatrix(t)
	str, caps := 0.0, 0.0
	for _, n := range mx.Cfg.Sizes {
		str += mx.AvgSlowdownAtSize(workload.AlgStrassen, n)
		caps += mx.AvgSlowdownAtSize(workload.AlgCAPS, n)
	}
	str /= float64(len(mx.Cfg.Sizes))
	caps /= float64(len(mx.Cfg.Sizes))
	if stats.RelErr(str, 2.965) > 0.25 {
		t.Errorf("Strassen avg slowdown %.3f outside ±25%% of paper's 2.965", str)
	}
	if stats.RelErr(caps, 2.788) > 0.25 {
		t.Errorf("CAPS avg slowdown %.3f outside ±25%% of paper's 2.788", caps)
	}
	if caps >= str {
		t.Errorf("CAPS (%.3f) not faster than Strassen (%.3f) on average", caps, str)
	}
	// CAPS's edge should be in single-digit percent, as the paper's
	// 5.97% is.
	if gain := str/caps - 1; gain < 0.01 || gain > 0.15 {
		t.Errorf("CAPS performance gain %.1f%% implausible vs paper's 5.97%%", gain*100)
	}
}

func TestReproPowerOrderingAtScale(t *testing.T) {
	mx := testMatrix(t)
	top := mx.Cfg.Threads[len(mx.Cfg.Threads)-1]
	// OpenBLAS draws the most at full threads (paper Figs. 4–6).
	for _, n := range mx.Cfg.Sizes {
		pb := mx.Get(workload.AlgOpenBLAS, n, top).WattsTotal()
		for _, alg := range []workload.Algorithm{workload.AlgStrassen, workload.AlgCAPS} {
			if mx.Get(alg, n, top).WattsTotal() >= pb {
				t.Errorf("n=%d: %v power not under OpenBLAS at %d threads", n, alg, top)
			}
		}
	}
	// CAPS above Strassen at the top thread counts (paper Table III).
	for _, n := range mx.Cfg.Sizes {
		if mx.Get(workload.AlgCAPS, n, top).WattsTotal() <= mx.Get(workload.AlgStrassen, n, top).WattsTotal() {
			t.Errorf("n=%d: CAPS power not above Strassen at %d threads", n, top)
		}
	}
}

func TestReproPowerGrowthContrast(t *testing.T) {
	// The central contrast: OpenBLAS's 1→4-thread power growth far
	// exceeds the Strassen-derived algorithms'.
	mx := testMatrix(t)
	growth := func(alg workload.Algorithm) float64 {
		return mx.AvgPowerAtThreads(alg, 4) / mx.AvgPowerAtThreads(alg, 1)
	}
	gb, gs, gc := growth(workload.AlgOpenBLAS), growth(workload.AlgStrassen), growth(workload.AlgCAPS)
	if gb < 2.0 {
		t.Errorf("OpenBLAS power growth %.2fx too flat", gb)
	}
	if gs > 1.8 || gc > 1.9 {
		t.Errorf("Strassen/CAPS power growth %.2fx/%.2fx not sublinear", gs, gc)
	}
}

func TestReproFigure7Classification(t *testing.T) {
	mx := testMatrix(t)
	maxP := mx.Cfg.Threads[len(mx.Cfg.Threads)-1]
	for _, n := range mx.Cfg.Sizes {
		// OpenBLAS superlinear by a wide margin.
		sb := mx.ScalingSeries(workload.AlgOpenBLAS, n)
		if sb.WorstClass() != energy.Superlinear {
			t.Errorf("n=%d: OpenBLAS not superlinear", n)
		}
		if sb.MaxExcess() < 2 {
			t.Errorf("n=%d: OpenBLAS excess %.2f too small", n, sb.MaxExcess())
		}
		// Strassen-derived: on or near the line (excess well under 1).
		for _, alg := range []workload.Algorithm{workload.AlgStrassen, workload.AlgCAPS} {
			s := mx.ScalingSeries(alg, n)
			if s.MaxExcess() > 0.6 {
				t.Errorf("n=%d: %v excess %.2f not near-ideal", n, alg, s.MaxExcess())
			}
			if s.S[len(s.S)-1] > float64(maxP)+0.5 {
				t.Errorf("n=%d: %v S(%d)=%.2f far above linear", n, alg, maxP, s.S[len(s.S)-1])
			}
		}
	}
}

func TestReproCAPSCloserToLinearThanStrassen(t *testing.T) {
	// The paper's claim is about the whole Fig. 7: across the figure,
	// CAPS sits closer to the linear scale than classic Strassen. (At
	// the smallest size the two are within noise of each other, so the
	// comparison is made over the figure, not per cell.)
	mx := testMatrix(t)
	dc, ds := 0.0, 0.0
	for _, n := range mx.Cfg.Sizes {
		dc += mx.ScalingSeries(workload.AlgCAPS, n).MeanDistanceToLinear()
		ds += mx.ScalingSeries(workload.AlgStrassen, n).MeanDistanceToLinear()
	}
	if dc >= ds {
		t.Errorf("CAPS mean distance to linear %.3f not under Strassen's %.3f", dc, ds)
	}
}

func TestReproCommunicationMechanism(t *testing.T) {
	// CAPS must charge dramatically less remote traffic than Strassen
	// at full threads — the paper's causal mechanism.
	mx := testMatrix(t)
	top := mx.Cfg.Threads[len(mx.Cfg.Threads)-1]
	for _, n := range mx.Cfg.Sizes {
		rs := mx.Get(workload.AlgStrassen, n, top).RemoteBytes
		rc := mx.Get(workload.AlgCAPS, n, top).RemoteBytes
		if rc >= rs/2 {
			t.Errorf("n=%d: CAPS remote bytes %.0f not well under Strassen's %.0f", n, rc, rs)
		}
	}
}

func TestReproStrassenBufferPressure(t *testing.T) {
	// The paper could not run beyond 4096 because of Strassen-derived
	// intermediate buffers; verify the simulated buffer high-water for
	// Strassen/CAPS dwarfs OpenBLAS's.
	mx := testMatrix(t)
	n := mx.Cfg.Sizes[len(mx.Cfg.Sizes)-1]
	top := mx.Cfg.Threads[len(mx.Cfg.Threads)-1]
	base := mx.Get(workload.AlgOpenBLAS, n, top).AllocHighWater
	for _, alg := range []workload.Algorithm{workload.AlgStrassen, workload.AlgCAPS} {
		if mx.Get(alg, n, top).AllocHighWater <= 10*base {
			t.Errorf("%v buffer high-water not far above OpenBLAS", alg)
		}
	}
}

func TestReproEnergyPerformanceOrdering(t *testing.T) {
	// Table IV ordering: OpenBLAS ≫ CAPS > Strassen at every size.
	mx := testMatrix(t)
	for _, n := range mx.Cfg.Sizes {
		eb := mx.AvgEPAtSize(workload.AlgOpenBLAS, n)
		es := mx.AvgEPAtSize(workload.AlgStrassen, n)
		ec := mx.AvgEPAtSize(workload.AlgCAPS, n)
		if !(eb > ec && ec > es) {
			t.Errorf("n=%d: EP ordering broken: OpenBLAS %.2f, CAPS %.2f, Strassen %.2f", n, eb, ec, es)
		}
	}
}

func TestReproStrassenAddTimeShareGrowsWithThreads(t *testing.T) {
	// The mechanism behind the flat power curves: Strassen's additions
	// are bandwidth-bound, so under contention their share of busy time
	// grows with thread count while the compute-bound base multiplies
	// shrink relatively.
	mx := testMatrix(t)
	n := mx.Cfg.Sizes[len(mx.Cfg.Sizes)-1]
	share := func(threads int) float64 {
		r := mx.Get(workload.AlgStrassen, n, threads)
		total := 0.0
		for _, v := range r.BusyByKind {
			total += v
		}
		return r.BusyByKind["add"] / total
	}
	s1, s4 := share(1), share(mx.Cfg.Threads[len(mx.Cfg.Threads)-1])
	if s4 <= s1 {
		t.Fatalf("add-time share did not grow under contention: %v -> %v", s1, s4)
	}
}

func TestReproCAPSCopyOverheadVisible(t *testing.T) {
	// CAPS pays staging copies Strassen does not — the BFS memory
	// tradeoff the paper describes.
	mx := testMatrix(t)
	n := mx.Cfg.Sizes[len(mx.Cfg.Sizes)-1]
	caps := mx.Get(workload.AlgCAPS, n, 4)
	str := mx.Get(workload.AlgStrassen, n, 4)
	if caps.BusyByKind["copy"] <= 0 {
		t.Fatal("CAPS shows no copy time")
	}
	if str.BusyByKind["copy"] > 0 {
		t.Fatal("Strassen unexpectedly shows copy time")
	}
}

func TestReproMeasurementReconciles(t *testing.T) {
	// Every run's energy figures now come from the polling monitor, not
	// the simulator's oracle. The two must agree: at the default poll
	// interval no 32-bit counter wrap can be missed, so the residual
	// per-plane error is counter quantization plus float accumulation
	// noise — a few 15 µJ quanta, with 1 mJ as a generous ceiling. A
	// larger error means wrap loss (~65 kJ per missed wrap) or a broken
	// sampling path.
	mx := testMatrix(t)
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if r.TruthPKGJoules <= 0 {
			t.Errorf("%v n=%d p=%d: no ground truth recorded", r.Alg, r.N, r.Threads)
			continue
		}
		if e := r.MeasurementAbsErr(); e > 1e-3 {
			t.Errorf("%v n=%d p=%d: measurement abs.err %.3e J vs ground truth (PKG %.6f/%.6f J)",
				r.Alg, r.N, r.Threads, e, r.PKGJoules, r.TruthPKGJoules)
		}
		// Runs longer than the poll interval must have been sampled
		// mid-run, not just at Stop.
		if r.Seconds > workload.DefaultPollInterval && r.MeasSamples < 2 {
			t.Errorf("%v n=%d p=%d: %.4f s run but only %d monitor samples — poller not firing",
				r.Alg, r.N, r.Threads, r.Seconds, r.MeasSamples)
		}
	}
}

func TestReproCommVolumeWithinBound(t *testing.T) {
	// The communication gate: every distributed run that puts traffic
	// on the wire must move at least the family-matching lower bound —
	// Ballard–Demmel for the classic algorithms, the paper's Eq. 8 for
	// the Strassen-like ones — and stay within a fixed constant factor
	// of it at the tested coordinates. The constants are analytic, not
	// tuned: SUMMA moves ~2n²/√P words per rank (2·P^(1/6) over the
	// memory-independent classic term, ≈3.2 at P=16); CAPS sums
	// (18/4)·(7/4)^(l-1)·n²/P per BFS level, ≤6× the Eq. 8 term at any
	// P = 7^k (≈4.0 at P=49). A ratio under 1 means the rank program
	// under-charges communication (the bug this gate was built to
	// catch); one above the ceiling means it stopped being
	// communication-avoiding.
	const maxRatio = 6.0
	var specs []cluster.Spec
	for _, s := range []string{"16x1GbE", "49xFDR"} {
		spec, err := cluster.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	cfg := workload.PaperConfig()
	cfg.Algorithms = []workload.Algorithm{workload.AlgSUMMA, workload.AlgDistCAPS}
	cfg.Sizes = []int{512, 1024}
	cfg.Clusters = specs
	mx := workload.Execute(cfg)

	bounded := 0
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if r.Failed() {
			t.Fatalf("%v n=%d on %s failed: %s", r.Alg, r.N, r.Cluster, r.Err)
		}
		if r.Ranks <= 1 || r.WireBytes <= 0 {
			continue // node-local: the distributed-data bounds do not apply
		}
		spec, err := cluster.ParseSpec(r.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		words := report.CommWordsPerRank(r)
		bound := report.CommLowerBound(r.Alg, r.N, r.Ranks, spec.MemPerNode/8)
		ratio := words / bound
		if ratio < 1 {
			t.Errorf("%v n=%d P=%d on %s: measured %.0f words/rank BELOW the lower bound %.0f (ratio %.2f)",
				r.Alg, r.N, r.Ranks, r.Cluster, words, bound, ratio)
		}
		if ratio > maxRatio {
			t.Errorf("%v n=%d P=%d on %s: measured %.0f words/rank is %.2f× the bound %.0f (ceiling %g)",
				r.Alg, r.N, r.Ranks, r.Cluster, words, ratio, bound, maxRatio)
		}
		bounded++
	}
	if bounded < 4 {
		t.Fatalf("only %d distributed runs put traffic on the wire — the gate is vacuous", bounded)
	}
}

// TestReproModelPredictsSweep: the energy-complexity model fitted on
// the paper matrix's grid corners — at most a quarter of the full
// 48-cell matrix — predicts every held-out cell's energy within 15%
// and reproduces the paper's EP crossover ordering (Table IV:
// OpenBLAS > CAPS > Strassen) from predictions alone.
func TestReproModelPredictsSweep(t *testing.T) {
	mx := testMatrix(t)
	obs := mx.ModelObservations()
	sizes := mx.Cfg.Sizes
	minN, maxN := sizes[0], sizes[len(sizes)-1]
	threads := mx.Cfg.Threads
	minP, maxP := threads[0], threads[len(threads)-1]

	cornerKeys := map[string]bool{}
	for _, a := range mx.Cfg.Algorithms {
		for _, n := range []int{minN, maxN} {
			for _, p := range []int{minP, maxP} {
				cornerKeys[fmt.Sprintf("%v/%d/%d", a, n, p)] = true
			}
		}
	}
	corner := func(o model.Obs) bool { return cornerKeys[o.Key] }
	var train []model.Obs
	for _, o := range obs {
		if corner(o) {
			train = append(train, o)
		}
	}
	// The budget is a quarter of the FULL paper matrix (48 cells), even
	// when -short trims a size column from the measured one.
	paper := workload.PaperConfig()
	if full := len(paper.Algorithms) * len(paper.Sizes) * len(paper.Threads); 4*len(train) > full {
		t.Fatalf("training set %d exceeds 25%% of the %d-cell paper matrix", len(train), full)
	}
	mo, err := model.Fit(mx.Cfg.Machine, train)
	if err != nil {
		t.Fatal(err)
	}

	// Every held-out cell's energy within 15% of the measurement.
	predEP := map[string]float64{}
	measEP := map[string]float64{}
	for _, o := range obs {
		p, err := mo.Predict(o.Terms)
		if err != nil {
			t.Fatalf("%s: %v", o.Key, err)
		}
		predEP[o.Key] = (p.PKGJ + p.DRAMJ) / (p.Seconds * p.Seconds)
		measEP[o.Key] = (o.PKGJ + o.DRAMJ) / (o.Seconds * o.Seconds)
		if corner(o) {
			continue
		}
		gotE, wantE := p.PKGJ+p.DRAMJ, o.PKGJ+o.DRAMJ
		if rel := math.Abs(gotE-wantE) / wantE; rel > 0.15 {
			t.Errorf("%s: predicted %.3f J vs measured %.3f J (%.1f%% off)", o.Key, gotE, wantE, 100*rel)
		}
	}

	// Table IV's EP ordering must fall out of the predictions wherever
	// the measurement is decisive. EP = E/T² compounds the energy and
	// time errors, so a measured gap inside that band proves nothing
	// either way — each pairwise order is enforced only where the
	// measured ratio clears a 20% margin.
	key := func(a workload.Algorithm, n, p int) string { return fmt.Sprintf("%v/%d/%d", a, n, p) }
	pairs := [][2]workload.Algorithm{
		{workload.AlgOpenBLAS, workload.AlgCAPS},
		{workload.AlgOpenBLAS, workload.AlgStrassen},
		{workload.AlgCAPS, workload.AlgStrassen},
	}
	enforced := 0
	for _, n := range sizes {
		for _, p := range threads {
			for _, pr := range pairs {
				hi, lo := key(pr[0], n, p), key(pr[1], n, p)
				if measEP[hi] <= 1.20*measEP[lo] {
					continue
				}
				enforced++
				if predEP[hi] <= predEP[lo] {
					t.Errorf("n=%d p=%d: predicted EP puts %v (%.2f) at or below %v (%.2f) against the measured order",
						n, p, pr[0], predEP[hi], pr[1], predEP[lo])
				}
			}
		}
	}
	if enforced < len(sizes)*len(threads) {
		t.Fatalf("only %d decisive EP orderings — the crossover gate is vacuous", enforced)
	}

	// The CAPS/Strassen crossover itself: measured, Strassen wins EP at
	// one thread and CAPS wins from two threads up. The predictions
	// must move the EP ratio in the same direction at every size even
	// where the endpoints are too close to call individually.
	for _, n := range sizes {
		measTrend := measEP[key(workload.AlgCAPS, n, maxP)]/measEP[key(workload.AlgStrassen, n, maxP)] -
			measEP[key(workload.AlgCAPS, n, minP)]/measEP[key(workload.AlgStrassen, n, minP)]
		predTrend := predEP[key(workload.AlgCAPS, n, maxP)]/predEP[key(workload.AlgStrassen, n, maxP)] -
			predEP[key(workload.AlgCAPS, n, minP)]/predEP[key(workload.AlgStrassen, n, minP)]
		if measTrend <= 0 {
			t.Errorf("n=%d: measured CAPS/Strassen EP ratio does not rise with threads (%.3f)", n, measTrend)
		}
		if predTrend <= 0 {
			t.Errorf("n=%d: predicted CAPS/Strassen EP ratio trend %.3f contradicts the measured crossover", n, predTrend)
		}
	}
}

// TestReproRecordsByteStable pins the record bytes of the full paper
// matrix: sha256 over each run's journal record line (the line the
// sweep service streams), newline-terminated, in Runs order. It is
// capbench's paper-sweep golden digest (bench/capbench/golden.json),
// so a change to Run's wire form, the measurement or the simulator
// fails here, not only in the benchmark.
func TestReproRecordsByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("the pinned digest covers the full paper matrix")
	}
	mx := testMatrix(t)
	h := sha256.New()
	for i := range mx.Runs {
		r := &mx.Runs[i]
		line, err := workload.MarshalRunRecord(fmt.Sprintf("%v/%d/%d", r.Alg, r.N, r.Threads), r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	const want = "9eb3489f2fbd9b8120f4583c97bb95c566612563e2724a2f284f920e28c95bd8"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("paper-matrix record digest %s, want %s", got, want)
	}
}

func TestReproDeterminism(t *testing.T) {
	// The virtual-time pipeline is bit-for-bit deterministic.
	cfg := workload.SmokeConfig()
	a := workload.ExecuteOne(cfg, workload.AlgCAPS, 256, 2)
	b := workload.ExecuteOne(cfg, workload.AlgCAPS, 256, 2)
	if a.Seconds != b.Seconds || a.PKGJoules != b.PKGJoules || a.RemoteBytes != b.RemoteBytes {
		t.Fatal("two identical runs differ")
	}
}
