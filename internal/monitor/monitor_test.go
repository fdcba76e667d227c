package monitor

import (
	"math"
	"strings"
	"testing"

	"capscale/internal/hw"
	"capscale/internal/rapl"
	"capscale/internal/sim"
)

// segsFor builds a synthetic timeline: count segments of dt seconds
// cycling through three power levels.
func segsFor(count int, dt float64) []sim.Segment {
	powers := []hw.PlanePower{
		{PKG: 20, PP0: 12, DRAM: 2},
		{PKG: 35, PP0: 25, DRAM: 3},
		{PKG: 50, PP0: 38, DRAM: 4},
	}
	segs := make([]sim.Segment, count)
	t := 0.0
	for i := range segs {
		segs[i] = sim.Segment{Start: t, End: t + dt, Power: powers[i%len(powers)]}
		t += dt
	}
	return segs
}

func TestReplayReconcilesAtSaneInterval(t *testing.T) {
	// 300 s mixed-power run, polled at 100 Hz: measured must match the
	// device's exact totals to within one counter quantum per plane.
	rep, err := Replay(segsFor(300, 1), Config{PollInterval: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	unit := 1.0 / 65536
	for _, pr := range rep.Planes {
		if pr.TruthJ <= 0 {
			t.Fatalf("%v: no ground truth energy", pr.Plane)
		}
		// Quantization bounds the error at one counter quantum; float
		// accumulation across ~30k integration splits adds noise of the
		// same order.
		if math.Abs(pr.AbsErr) > 2*unit {
			t.Errorf("%v: abs err %v J exceeds two quanta", pr.Plane, pr.AbsErr)
		}
		if pr.LostWraps != 0 {
			t.Errorf("%v: %d wraps reported on a sane run", pr.Plane, pr.LostWraps)
		}
	}
	if !rep.Reconciled(1e-6) {
		t.Fatalf("not reconciled: %v", rep)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", rep.Warnings)
	}
	if rep.Duration != 300 {
		t.Fatalf("duration %v", rep.Duration)
	}
	if rep.Samples < 30000 {
		t.Fatalf("samples %d, expected ~30001", rep.Samples)
	}
}

func TestReplayFlagsInjectedWrapLoss(t *testing.T) {
	// One 10000 s segment at 10 W PKG accumulates 100 kJ — past the
	// 65.5 kJ wrap period. A poll interval longer than the run leaves
	// only the Stop sample, so the wrap is lost; the monitor must
	// detect it, report the lost energy, and warn about the interval.
	segs := []sim.Segment{{Start: 0, End: 10000, Power: hw.PlanePower{PKG: 10, PP0: 1, DRAM: 1}}}
	rep, err := Replay(segs, Config{PollInterval: 20000})
	if err != nil {
		t.Fatal(err)
	}
	pkg := rep.Plane(rapl.PlanePKG)
	if pkg.LostWraps != 1 {
		t.Fatalf("lost wraps %d want 1 (report: %v)", pkg.LostWraps, rep)
	}
	if !rep.WrapLoss() || rep.Reconciled(1e-6) {
		t.Fatal("wrap loss not flagged")
	}
	wrapJ := math.Pow(2, 32) / 65536
	if math.Abs(pkg.MeasuredJ-(100000-wrapJ)) > 0.001 {
		t.Fatalf("measured %v J want %v", pkg.MeasuredJ, 100000-wrapJ)
	}
	if math.Abs(pkg.TruthJ-100000) > 1e-6 {
		t.Fatalf("truth %v J", pkg.TruthJ)
	}
	// PP0/DRAM stayed inside one wrap: no false positives.
	if rep.Plane(rapl.PlanePP0).LostWraps != 0 || rep.Plane(rapl.PlaneDRAM).LostWraps != 0 {
		t.Fatal("false wrap loss on low-energy planes")
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "wrap period") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no undersampling warning: %v", rep.Warnings)
	}
	if !strings.Contains(rep.String(), "LOST") {
		t.Fatalf("summary hides wrap loss: %s", rep.String())
	}
}

func TestReplaySameRunReconciledWhenSampledFastEnough(t *testing.T) {
	// The same 100 kJ run is fully recovered when the poll interval
	// stays inside the wrap period (60 s × 10 W = 600 J ≪ 65.5 kJ).
	segs := []sim.Segment{{Start: 0, End: 10000, Power: hw.PlanePower{PKG: 10, PP0: 1, DRAM: 1}}}
	rep, err := Replay(segs, Config{PollInterval: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WrapLoss() {
		t.Fatalf("wrap loss at a sane interval: %v", rep)
	}
	if !rep.Reconciled(1e-6) {
		t.Fatalf("not reconciled: %v", rep)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("warnings at a sane interval: %v", rep.Warnings)
	}
}

func TestReplayWarnsOnSingleSample(t *testing.T) {
	segs := segsFor(3, 1)
	rep, err := Replay(segs, Config{PollInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 1 {
		t.Fatalf("samples %d", rep.Samples)
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "undersamples") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sample-count warning: %v", rep.Warnings)
	}
}

func TestReplayCustomDeviceAndESU(t *testing.T) {
	// A coarser unit (ESU 10: ~0.98 mJ, wrap ≈ 4.2 MJ) still
	// reconciles; the report's wrap period follows the device.
	dev, err := rapl.NewDeviceWithESU(10)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(segsFor(50, 1), Config{PollInterval: 0.5, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(2, 32) / 1024; rep.WrapJoules != want {
		t.Fatalf("wrap joules %v want %v", rep.WrapJoules, want)
	}
	if !rep.Reconciled(1e-3) {
		t.Fatalf("not reconciled at coarse unit: %v", rep)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := Replay(segsFor(1, 1), Config{}); err == nil {
		t.Fatal("zero interval accepted")
	}
	bad := []sim.Segment{{Start: 5, End: 1}}
	if _, err := Replay(bad, Config{PollInterval: 1}); err == nil {
		t.Fatal("non-monotone segment accepted")
	}
}

func TestReportPlanePanicsOnUnknown(t *testing.T) {
	rep := &Report{}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rep.Plane(rapl.PlanePKG)
}

func TestReplayEmptyTimeline(t *testing.T) {
	rep, err := Replay(nil, Config{PollInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration != 0 || rep.MaxAbsErr() != 0 {
		t.Fatalf("empty replay %v", rep)
	}
	if !rep.Reconciled(0) {
		t.Fatal("empty replay not reconciled")
	}
}
