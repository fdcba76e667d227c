package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestDisabledSpansAreNoOps(t *testing.T) {
	Disable()
	tr := NewTrack("ignored")
	sp := StartOn(tr, "x")
	if sp.Live() {
		t.Fatal("span live while tracing disabled")
	}
	sp.ArgInt("n", 4096)
	sp.End()
	sp2 := StartOn(Track{}, "y")
	sp2.End()
}

// TestDisabledPathAllocatesNothing pins the hot-path contract: with
// tracing off, starting/ending spans and annotating them performs zero
// allocations, so instrumented code costs nothing by default.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartOn(Track{}, "cell")
		sp.Arg("alg", "CAPS")
		sp.ArgInt("n", 4096)
		sp.End()
		sp2 := StartOn(Track{}, "sim.run")
		sp2.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

func TestSpansRecordOnNamedTracks(t *testing.T) {
	c := Enable()
	defer Disable()

	tr := NewTrack("worker 0")
	outer := StartOn(tr, "cell")
	outer.Arg("alg", "CAPS")
	outer.ArgInt("n", 128)
	inner := StartOn(tr, "simulate")
	inner.End()
	outer.End()

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// End order: inner first.
	if spans[0].Name != "simulate" || spans[1].Name != "cell" {
		t.Fatalf("span order %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[1].Args["alg"] != "CAPS" || spans[1].Args["n"] != "128" {
		t.Fatalf("args not recorded: %v", spans[1].Args)
	}
	if spans[0].Start < spans[1].Start {
		t.Fatal("inner span starts before its parent")
	}
	names := c.TrackNames()
	if len(names) != 2 || names[0] != "main" || names[1] != "worker 0" {
		t.Fatalf("tracks %v", names)
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	c := Enable()
	defer Disable()
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := NewTrack("w")
			for i := 0; i < per; i++ {
				sp := StartOn(tr, "op")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(c.Spans()); got != workers*per {
		t.Fatalf("recorded %d spans, want %d", got, workers*per)
	}
}

func TestMetricsRegistry(t *testing.T) {
	ResetMetrics()
	c := GetCounter("test.counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := GetCounter("test.counter"); again != c {
		t.Fatal("GetCounter is not idempotent")
	}

	g := GetGauge("test.gauge")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 || g.Max() != 5 {
		t.Fatalf("gauge = %d (max %d), want 1 (max 5)", g.Value(), g.Max())
	}

	h := GetHistogramUnit("test.hist", "")
	for _, v := range []float64{0.001, 0.002, 0.004, 1.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count %d, want 4", h.Count())
	}
	if h.MaxValue() != 1.5 {
		t.Fatalf("histogram max %v, want 1.5", h.MaxValue())
	}
	if m := h.Mean(); m < 0.37 || m > 0.38 {
		t.Fatalf("histogram mean %v, want ~0.377", m)
	}
	if bs := h.Buckets(); len(bs) == 0 {
		t.Fatal("histogram has no buckets")
	}

	found := map[string]bool{}
	for _, m := range Metrics() {
		found[m.Name] = true
	}
	for _, want := range []string{"test.counter", "test.gauge", "test.hist"} {
		if !found[want] {
			t.Fatalf("Metrics() misses %q (have %v)", want, found)
		}
	}

	ResetMetrics()
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Fatal("ResetMetrics left residue")
	}
}

func TestHistogramExtremes(t *testing.T) {
	ResetMetrics()
	h := GetHistogramUnit("test.extremes", "")
	h.Observe(0)    // lowest bucket
	h.Observe(-5)   // lowest bucket, no panic
	h.Observe(1e30) // clamps to top bucket
	if h.Count() != 3 {
		t.Fatalf("count %d, want 3", h.Count())
	}
	if h.MaxValue() != 1e30 {
		t.Fatalf("max %v, want 1e30", h.MaxValue())
	}
}

// TestHistogramNonDurationValues pins the unit fix: the old
// implementation kept sum/max as nanosecond-scaled int64s, so a
// byte-count observation like 3.5e12 overflowed the scaling and
// MaxValue returned garbage. Values of any unit must round-trip
// exactly now.
func TestHistogramNonDurationValues(t *testing.T) {
	ResetMetrics()
	h := GetHistogramUnit("test.bytes", "B")
	for _, v := range []float64{1024, 3.5e12, 2e15} {
		h.Observe(v)
	}
	if got := h.MaxValue(); got != 2e15 {
		t.Fatalf("max %v, want 2e15", got)
	}
	if got, want := h.Mean(), (1024+3.5e12+2e15)/3; math.Abs(got-want) > 1e-3*want {
		t.Fatalf("mean %v, want %v", got, want)
	}
	if h.Unit() != "B" {
		t.Fatalf("unit %q, want B", h.Unit())
	}
	// The unit renders as a suffix in the metrics table.
	for _, m := range Metrics() {
		if m.Name == "test.bytes" && !strings.Contains(m.Value, "B") {
			t.Fatalf("metrics row %q lacks the B unit suffix", m.Value)
		}
	}
}

// TestHistogramConcurrentObserve: the float-bits CAS loops must be
// race-free and lose no observations.
func TestHistogramConcurrentObserve(t *testing.T) {
	ResetMetrics()
	h := GetHistogramUnit("test.concurrent", "")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
	if got := math.Float64frombits(h.sumBits.Load()); got != workers*per {
		t.Fatalf("sum %v, want %d (CAS add lost updates)", got, workers*per)
	}
}
