package workload

import (
	"math"
	"strings"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/energy"
	"capscale/internal/hw"
)

// smoke is computed once; the full matrix of the smoke config is still
// 12 runs through the whole stack.
var smoke *Matrix

func getSmoke(t *testing.T) *Matrix {
	t.Helper()
	if smoke == nil {
		cfg := SmokeConfig()
		cfg.RecordTraces = true
		cfg.TraceSampleInterval = 1e-4
		smoke = Execute(cfg)
	}
	return smoke
}

func TestAlgorithmNames(t *testing.T) {
	if AlgOpenBLAS.String() != "OpenBLAS" || AlgCAPS.String() != "CAPS" ||
		AlgStrassen.String() != "Strassen" || AlgWinograd.String() != "Winograd" {
		t.Fatal("names")
	}
	if Algorithm(99).String() != "Algorithm(99)" {
		t.Fatal("out of range name")
	}
	if len(PaperAlgorithms()) != 3 {
		t.Fatal("paper algorithms")
	}
}

func TestPaperConfigShape(t *testing.T) {
	cfg := PaperConfig()
	if len(cfg.Sizes) != 4 || len(cfg.Threads) != 4 || len(cfg.Algorithms) != 3 {
		t.Fatalf("config %+v", cfg)
	}
	if cfg.QuiesceSeconds != 60 {
		t.Fatal("quiesce")
	}
	// 3 × 4 × 4 = the paper's 48 result sets.
	if n := len(cfg.Algorithms) * len(cfg.Sizes) * len(cfg.Threads); n != 48 {
		t.Fatalf("matrix size %d", n)
	}
}

func TestExecuteProducesFullMatrix(t *testing.T) {
	mx := getSmoke(t)
	want := len(mx.Cfg.Algorithms) * len(mx.Cfg.Sizes) * len(mx.Cfg.Threads)
	if len(mx.Runs) != want {
		t.Fatalf("%d runs want %d", len(mx.Runs), want)
	}
	for _, alg := range mx.Cfg.Algorithms {
		for _, n := range mx.Cfg.Sizes {
			for _, p := range mx.Cfg.Threads {
				r := mx.Get(alg, n, p)
				if r == nil {
					t.Fatalf("missing %v n=%d p=%d", alg, n, p)
				}
				if r.Seconds <= 0 || r.PKGJoules <= 0 || r.DRAMJoules <= 0 {
					t.Fatalf("degenerate run %+v", r)
				}
			}
		}
	}
	if mx.Get(AlgOpenBLAS, 9999, 1) != nil {
		t.Fatal("phantom run")
	}
}

func TestRunDerivedQuantities(t *testing.T) {
	mx := getSmoke(t)
	r := mx.Get(AlgOpenBLAS, 256, 2)
	if r.WattsPKG() <= 0 || r.WattsDRAM() <= 0 || r.WattsPP0() <= 0 {
		t.Fatal("watts")
	}
	if r.WattsTotal() <= r.WattsPKG() {
		t.Fatal("total should add DRAM")
	}
	if got := r.EP(); math.Abs(got-r.WattsTotal()/1.0*1.0/1.0) > 1e9 {
		_ = got // EP is watts/seconds; sanity below
	}
	want := r.WattsTotal() / r.Seconds * r.Seconds // = WattsTotal
	if math.Abs(energy.EAvg(r.Planes())-want) > 1e-9 {
		t.Fatal("planes should encapsulate PKG+DRAM")
	}
}

func TestMeasuredEnergyMatchesPowerTimesTime(t *testing.T) {
	mx := getSmoke(t)
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if r.WattsPKG() < 9 || r.WattsPKG() > 60 {
			t.Fatalf("%v n=%d p=%d: implausible PKG watts %v", r.Alg, r.N, r.Threads, r.WattsPKG())
		}
		// PP0 under PKG always.
		if r.PP0Joules >= r.PKGJoules {
			t.Fatalf("PP0 %v >= PKG %v", r.PP0Joules, r.PKGJoules)
		}
	}
}

func TestPaperOrderingsHoldOnSmokeMatrix(t *testing.T) {
	mx := getSmoke(t)
	for _, n := range mx.Cfg.Sizes {
		for _, p := range mx.Cfg.Threads {
			blasT := mx.Get(AlgOpenBLAS, n, p).Seconds
			strT := mx.Get(AlgStrassen, n, p).Seconds
			if blasT >= strT {
				t.Fatalf("n=%d p=%d: OpenBLAS (%v) not faster than Strassen (%v)", n, p, blasT, strT)
			}
		}
	}
	// OpenBLAS draws the most power at the top thread count, at sizes
	// big enough for its static row partition to fill the workers (at
	// n=128 the MC blocking leaves threads idle — the paper's smallest
	// size is 512).
	top := mx.Cfg.Threads[len(mx.Cfg.Threads)-1]
	for _, n := range mx.Cfg.Sizes {
		if n < 256 {
			continue
		}
		pb := mx.Get(AlgOpenBLAS, n, top).WattsTotal()
		ps := mx.Get(AlgStrassen, n, top).WattsTotal()
		if pb <= ps {
			t.Fatalf("n=%d: OpenBLAS power %v not above Strassen %v", n, pb, ps)
		}
	}
}

func TestSlowdownAggregation(t *testing.T) {
	mx := getSmoke(t)
	n := mx.Cfg.Sizes[0]
	man := 0.0
	for _, p := range mx.Cfg.Threads {
		man += mx.Get(AlgStrassen, n, p).Seconds / mx.Get(AlgOpenBLAS, n, p).Seconds
	}
	man /= float64(len(mx.Cfg.Threads))
	if got := mx.AvgSlowdownAtSize(AlgStrassen, n); math.Abs(got-man) > 1e-12 {
		t.Fatalf("avg slowdown %v want %v", got, man)
	}
	if mx.Slowdown(AlgOpenBLAS, n, 1) != 1 {
		t.Fatal("self-slowdown should be 1")
	}
}

func TestPowerAggregation(t *testing.T) {
	mx := getSmoke(t)
	p := mx.Cfg.Threads[len(mx.Cfg.Threads)-1]
	got := mx.AvgPowerAtThreads(AlgOpenBLAS, p)
	one := mx.AvgPowerAtThreads(AlgOpenBLAS, 1)
	if got <= one {
		t.Fatal("power should grow with threads for OpenBLAS")
	}
}

func TestEPAggregationAndScalingSeries(t *testing.T) {
	mx := getSmoke(t)
	n := mx.Cfg.Sizes[len(mx.Cfg.Sizes)-1]
	if mx.AvgEPAtSize(AlgOpenBLAS, n) <= mx.AvgEPAtSize(AlgStrassen, n) {
		t.Fatal("OpenBLAS should have the higher EP (faster at same order of power)")
	}
	s := mx.ScalingSeries(AlgOpenBLAS, n)
	if len(s.P) != len(mx.Cfg.Threads) {
		t.Fatal("series length")
	}
	if s.S[0] != 1 {
		t.Fatalf("S at base parallelism should be 1, got %v", s.S[0])
	}
	for i := 1; i < len(s.S); i++ {
		if s.S[i] <= s.S[i-1] {
			t.Fatalf("scaling not increasing: %v", s.S)
		}
	}
}

func TestPowerCurveMonotone(t *testing.T) {
	mx := getSmoke(t)
	curve := mx.PowerCurve(AlgOpenBLAS, mx.Cfg.Sizes[0])
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] {
			t.Fatalf("OpenBLAS power curve not increasing: %v", curve)
		}
	}
}

func TestSessionTrace(t *testing.T) {
	mx := getSmoke(t)
	tr := mx.SessionTrace()
	// Total duration = Σ run durations + (runs−1) quiesce gaps.
	want := 0.0
	for i := range mx.Runs {
		want += mx.Runs[i].Trace.Duration()
	}
	want += float64(len(mx.Runs)-1) * mx.Cfg.QuiesceSeconds
	if math.Abs(tr.Duration()-want)/want > 0.01 {
		t.Fatalf("session duration %v want %v", tr.Duration(), want)
	}
	// Energy must exceed the idle baseline over the same span.
	pkg, _, _ := tr.Energy()
	if pkg <= mx.Cfg.Machine.IdlePower().PKG*tr.Duration()*0.99 {
		t.Fatal("session energy at or below idle")
	}
}

func TestBuildTreeUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BuildTree(SmokeConfig().Machine, Algorithm(42), 64, 1)
}

func TestWinogradVariantRuns(t *testing.T) {
	cfg := SmokeConfig()
	r := ExecuteOne(cfg, AlgWinograd, 256, 1)
	if r.Seconds <= 0 {
		t.Fatal("winograd run degenerate")
	}
	// At one thread, runtime is the serial sum of leaf costs, so
	// Winograd's fewer additions must show up directly. (At higher
	// thread counts its longer pre-add dependency chains can mask the
	// saving on small problems.)
	rs := ExecuteOne(cfg, AlgStrassen, 256, 1)
	if r.Seconds >= rs.Seconds {
		t.Fatalf("Winograd (%v) not faster than classic (%v) at one thread", r.Seconds, rs.Seconds)
	}
}

func TestConfigValidate(t *testing.T) {
	good := SmokeConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"nil machine":      func(c *Config) { c.Machine = nil },
		"no sizes":         func(c *Config) { c.Sizes = nil },
		"no threads":       func(c *Config) { c.Threads = nil },
		"no algorithms":    func(c *Config) { c.Algorithms = nil },
		"bad size":         func(c *Config) { c.Sizes = []int{0} },
		"threads > core":   func(c *Config) { c.Threads = []int{99} },
		"neg quiesce":      func(c *Config) { c.QuiesceSeconds = -1 },
		"repeated size":    func(c *Config) { c.Sizes = []int{64, 128, 64} },
		"repeated threads": func(c *Config) { c.Threads = []int{2, 2} },
		"repeated algorithm": func(c *Config) {
			c.Algorithms = []Algorithm{AlgCAPS, AlgOpenBLAS, AlgCAPS}
		},
		"repeated cluster spec": func(c *Config) {
			// Specs are compared by the string that keys their cells:
			// the default memory spelled out is the same spec.
			a, _ := cluster.ParseSpec("4x1GbE")
			b, _ := cluster.ParseSpec("4x1GbE@8GiB")
			c.Algorithms = []Algorithm{AlgSUMMA}
			c.Clusters = []cluster.Spec{a, b}
		},
	}
	for name, mutate := range cases {
		cfg := SmokeConfig()
		mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if strings.HasPrefix(name, "repeated") && !strings.Contains(err.Error(), "repeated") {
			t.Errorf("%s refused for another reason: %v", name, err)
		}
	}
}

func TestExecutePanicsOnInvalidConfig(t *testing.T) {
	cfg := SmokeConfig()
	cfg.Threads = []int{0}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Execute(cfg)
}

// The whole pipeline on a 12-core machine: exercises the scheduler,
// the CAPS ownership partition and the static BLAS split well past the
// paper's 4 threads.
func TestTwelveCoreMachineMatrix(t *testing.T) {
	cfg := Config{
		Machine:    hw.XeonE52690v3(),
		Algorithms: PaperAlgorithms(),
		Sizes:      []int{512},
		Threads:    []int{1, 6, 12},
	}
	mx := Execute(cfg)
	for _, alg := range cfg.Algorithms {
		t1 := mx.Get(alg, 512, 1).Seconds
		t12 := mx.Get(alg, 512, 12).Seconds
		if t12 >= t1 {
			t.Errorf("%v did not speed up on 12 cores: %v -> %v", alg, t1, t12)
		}
	}
	// Power grows with threads on the big part too.
	if mx.Get(AlgOpenBLAS, 512, 12).WattsTotal() <= mx.Get(AlgOpenBLAS, 512, 1).WattsTotal() {
		t.Error("12-thread power not above 1-thread")
	}
}
