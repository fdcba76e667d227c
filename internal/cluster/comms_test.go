package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestCommsFabricCompilation(t *testing.T) {
	cc := Comms{
		Name:                  "toy",
		LinkLatencySec:        10e-6,
		LinkBandwidth:         1e9,
		LinkEfficiency:        0.5,
		PerMessageOverheadSec: 1e-6,
		SwitchLatencySec:      5e-6,
		SwitchTiers:           2,
		NICIdleWatts:          1,
		NICPerGBs:             2,
		SwitchIdleWattsTier:   4,
	}
	f, err := cc.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	// 3 link hops + 2 switch traversals.
	if want := 3*10e-6 + 2*5e-6; math.Abs(f.LatencySec-want) > 1e-15 {
		t.Fatalf("α %v want %v", f.LatencySec, want)
	}
	if want := 0.5e9; f.Bandwidth != want {
		t.Fatalf("bandwidth %v want %v", f.Bandwidth, want)
	}
	if want := 8.0; f.SwitchIdleWatts != want {
		t.Fatalf("switch idle %v want %v", f.SwitchIdleWatts, want)
	}
}

func TestCommsDefaults(t *testing.T) {
	// Zero efficiency and zero tiers mean "unset": full rate, one tier.
	cc := Comms{Name: "min", LinkBandwidth: 1e8}
	f, err := cc.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	if f.Bandwidth != 1e8 {
		t.Fatalf("default efficiency scaled bandwidth to %v", f.Bandwidth)
	}
	if f.LatencySec != 2*cc.LinkLatencySec+cc.SwitchLatencySec {
		t.Fatalf("default tiers gave α %v", f.LatencySec)
	}
}

func TestCommsValidate(t *testing.T) {
	bad := []Comms{
		{Name: "nobw"},
		{Name: "negα", LinkBandwidth: 1, LinkLatencySec: -1},
		{Name: "eff", LinkBandwidth: 1, LinkEfficiency: 1.5},
		{Name: "tiers", LinkBandwidth: 1, SwitchTiers: -1},
		{Name: "coll", LinkBandwidth: 1, Allreduce: AllreduceAlgo(9)},
		{Name: "pow", LinkBandwidth: 1, NICPerGBs: -1},
	}
	for _, cc := range bad {
		if _, err := cc.Fabric(); err == nil {
			t.Errorf("comms %q accepted", cc.Name)
		}
	}
}

func TestPresetsCompileFromComms(t *testing.T) {
	g := GigE()
	if math.Abs(g.LatencySec-50e-6) > 1e-12 {
		t.Fatalf("GigE α %v want 50µs", g.LatencySec)
	}
	if math.Abs(g.Bandwidth-118e6) > 1e6 {
		t.Fatalf("GigE bandwidth %v want ~118 MB/s", g.Bandwidth)
	}
	if g.Allreduce != AllreduceBinomial {
		t.Fatal("GigE should use binomial collectives")
	}
	f := InfiniBandFDR()
	if f.Allreduce != AllreduceRing {
		t.Fatal("FDR should use ring collectives")
	}
	if f.SwitchIdleWatts != 30 {
		t.Fatalf("FDR switch idle %v want 30 (2 tiers × 15)", f.SwitchIdleWatts)
	}
}

func TestCommsByName(t *testing.T) {
	for _, alias := range []string{"1GbE", "gige", "ETHERNET"} {
		cc, err := CommsByName(alias)
		if err != nil || cc.Name != "1GbE" {
			t.Errorf("alias %q: %v %v", alias, cc.Name, err)
		}
	}
	for _, alias := range []string{"FDR", "ib", "infiniband"} {
		cc, err := CommsByName(alias)
		if err != nil || cc.Name != "FDR" {
			t.Errorf("alias %q: %v %v", alias, cc.Name, err)
		}
	}
	if _, err := CommsByName("token-ring"); err == nil {
		t.Fatal("unknown fabric accepted")
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("16x1GbE")
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 16 || s.Comms.Name != "1GbE" || s.MemPerNode != DefaultMemPerNode {
		t.Fatalf("parsed %+v", s)
	}
	s, err = ParseSpec("49xFDR@16GiB")
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 49 || s.Comms.Name != "FDR" || s.MemPerNode != 16*(1<<30) {
		t.Fatalf("parsed %+v", s)
	}
	if got := s.String(); got != "49xFDR@16GiB" {
		t.Fatalf("round trip %q", got)
	}
	for _, bad := range []string{"", "x1GbE", "0x1GbE", "-4x1GbE", "4xWiFi", "4x1GbE@zeroGiB", "4x1GbE@-2GiB",
		// Non-finite memory: NaN passes every `<= 0` check, and 1e308
		// GiB overflows to +Inf bytes.
		"16x1GbE@NaN", "16x1GbE@nanGiB", "16x1GbE@Inf", "16x1GbE@1e308"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		} else if !strings.Contains(err.Error(), "cluster:") {
			t.Errorf("spec %q: undiagnostic error %v", bad, err)
		}
	}
}

// FuzzParseSpec: no input panics the parser, and every accepted spec
// has a positive node count and finite positive memory, and survives a
// String round trip unchanged.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{"16x1GbE", "49xFDR@16GiB", "4xib@0.5", " 7 X gige @ 2GiB ",
		"16x1GbE@NaN", "16x1GbE@Inf", "16x1GbE@1e308", "4x1GbE@5e-324GiB", "x@", "@"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if spec.Nodes <= 0 || !(spec.MemPerNode > 0) || math.IsInf(spec.MemPerNode, 0) {
			t.Fatalf("ParseSpec(%q) accepted %+v", s, spec)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not parse: %v", s, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q parses to %+v", s, spec, spec.String(), again)
		}
	})
}
