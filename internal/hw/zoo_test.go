package hw

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestZooAllValid(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 4 {
		t.Fatalf("zoo size %d", len(zoo))
	}
	names := map[string]bool{}
	for _, m := range zoo {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if names[m.Name] {
			t.Errorf("duplicate machine name %q", m.Name)
		}
		names[m.Name] = true
	}
	// The paper's machine comes first.
	if zoo[0].Cores != 4 || zoo[0].FlopsPerCycle != 8 {
		t.Fatal("paper machine not first")
	}
}

func TestZooBalancesDiffer(t *testing.T) {
	// Flops-per-byte balance: the HBM node is far below every other
	// machine, and the paper's single-DIMM node is the most
	// compute-heavy of all (which is why it could not reach the
	// Strassen crossover).
	balance := func(m *Machine) float64 { return m.PeakFlops() / m.DRAMBandwidth }
	paper := balance(HaswellE31225())
	for _, m := range Zoo()[1:] {
		if b := balance(m); b >= paper {
			t.Errorf("%s balance %v not below the paper machine's %v", m.Name, b, paper)
		}
	}
	if hbm := balance(BandwidthRichNode()); hbm > 1 {
		t.Errorf("HBM node balance %v should be under 1 flop/byte", hbm)
	}
}

func TestMaxPower(t *testing.T) {
	m := HaswellE31225()
	max := m.MaxPower()
	idle := m.IdlePower().Total()
	if max <= idle {
		t.Fatal("max not above idle")
	}
	// 4 cores at ~9.5 W each over ~12 W of base: roughly 50 W.
	if max < 40 || max > 60 {
		t.Fatalf("paper machine max power %v implausible", max)
	}
}

func TestDeratedForCapNotBinding(t *testing.T) {
	m := HaswellE31225()
	out, err := m.DeratedForCap(m.MaxPower() + 10)
	if err != nil {
		t.Fatal(err)
	}
	if out != m {
		t.Fatal("non-binding cap should return the machine unchanged")
	}
}

func TestDeratedForCapBinding(t *testing.T) {
	m := HaswellE31225()
	cap := 35.0
	out, err := m.DeratedForCap(cap)
	if err != nil {
		t.Fatal(err)
	}
	if out.FreqHz >= m.FreqHz {
		t.Fatalf("frequency not reduced: %v", out.FreqHz)
	}
	if got := out.MaxPower(); got > cap+1e-9 {
		t.Fatalf("derated max power %v exceeds cap %v", got, cap)
	}
	if math.Abs(out.MaxPower()-cap) > 0.01 {
		t.Fatalf("derated max power %v not at the cap %v", out.MaxPower(), cap)
	}
	// Original machine untouched (deep-copied efficiency map too).
	if m.FreqHz != 3.2e9 {
		t.Fatal("original mutated")
	}
	out.KernelEff[0] = 0.1
	if m.KernelEff[0] == 0.1 {
		t.Fatal("efficiency map aliased")
	}
}

func TestDeratedForCapBelowFloor(t *testing.T) {
	m := HaswellE31225()
	if _, err := m.DeratedForCap(5); err == nil {
		t.Fatal("cap below static floor accepted")
	}
}

func TestDeratedForCapBelowDVFSFloor(t *testing.T) {
	// A cap just above the static floor requires a frequency below the
	// DVFS range: infeasible by frequency scaling, only an algorithm
	// change can fit it.
	m := HaswellE31225()
	static := m.MaxPower() - float64(m.Cores)*m.Power.CoreDyn
	if _, err := m.DeratedForCap(static + 0.2); err == nil {
		t.Fatal("cap below the DVFS floor accepted")
	}
}

func TestPropertyDeratedMonotone(t *testing.T) {
	m := HaswellE31225()
	floor := m.MaxPower() - float64(m.Cores)*m.Power.CoreDyn
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := floor + 2 + rng.Float64()*(m.MaxPower()-floor-3)
		c2 := c1 + rng.Float64()*(m.MaxPower()-c1)
		m1, err1 := m.DeratedForCap(c1)
		m2, err2 := m.DeratedForCap(c2)
		if err1 != nil || err2 != nil {
			return false
		}
		// Looser cap → at least as much frequency.
		return m2.FreqHz >= m1.FreqHz-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeratedSlowsCompute(t *testing.T) {
	m := HaswellE31225()
	capped, err := m.DeratedForCap(30)
	if err != nil {
		t.Fatal(err)
	}
	if capped.PeakFlops() >= m.PeakFlops() {
		t.Fatal("derated machine not slower")
	}
	// Memory system untouched: bandwidth-bound work is unaffected.
	if capped.DRAMBandwidth != m.DRAMBandwidth {
		t.Fatal("derating should not change memory bandwidth")
	}
}

// TestLookup: every zoo machine, and every flat cluster of one,
// resolves from the name it carries to an equal machine; anything
// else is refused without a panic.
func TestLookup(t *testing.T) {
	for _, m := range Zoo() {
		for _, want := range []*Machine{m, Cluster(m, 1), Cluster(m, 2), Cluster(m, MaxCores/m.Cores)} {
			got, err := Lookup(want.Name)
			if err != nil {
				t.Fatalf("Lookup(%q): %v", want.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Lookup(%q) resolved a different machine", want.Name)
			}
		}
	}
	base := HaswellE31225().Name
	for _, name := range []string{
		"", "Cray-1", base + " ", "Cray-1 × 2 nodes",
		base + " × 0 nodes", base + " × -1 nodes", base + " × x nodes",
		base + " × 2 node", base + " × 262145 nodes", base + " × 9223372036854775808 nodes",
		base + " × 2 nodes × 2 nodes",
	} {
		if m, err := Lookup(name); err == nil {
			t.Fatalf("Lookup(%q) resolved %q", name, m.Name)
		}
	}
}
