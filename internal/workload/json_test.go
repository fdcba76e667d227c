package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"capscale/internal/hw"
)

func TestJSONRoundTrip(t *testing.T) {
	mx := getSmoke(t)
	var buf bytes.Buffer
	if err := mx.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != len(mx.Runs) {
		t.Fatalf("runs %d vs %d", len(back.Runs), len(mx.Runs))
	}
	if back.Cfg.Machine.Name != mx.Cfg.Machine.Name {
		t.Fatal("machine lost")
	}
	// Spot-check a cell and the aggregations still working.
	a := mx.Get(AlgStrassen, 256, 2)
	b := back.Get(AlgStrassen, 256, 2)
	if b == nil || b.Seconds != a.Seconds || b.PKGJoules != a.PKGJoules {
		t.Fatalf("cell mismatch: %+v vs %+v", b, a)
	}
	if got, want := back.AvgSlowdownAtSize(AlgStrassen, 256), mx.AvgSlowdownAtSize(AlgStrassen, 256); got != want {
		t.Fatalf("aggregation %v vs %v", got, want)
	}
	if len(b.BusyByKind) == 0 {
		t.Fatal("busy breakdown lost")
	}

	// A flat cluster's machine carries the name hw.Cluster gives it,
	// and loads back as the same machine.
	cfg := SmokeConfig()
	cfg.Machine = hw.Cluster(hw.HaswellE31225(), 2)
	cfg.Algorithms, cfg.Sizes, cfg.Threads = []Algorithm{AlgOpenBLAS}, []int{128}, []int{8}
	buf.Reset()
	if err := Execute(cfg).SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err = LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Cfg.Machine, cfg.Machine) {
		t.Fatalf("cluster machine %q loaded as %q", cfg.Machine.Name, back.Cfg.Machine.Name)
	}
}

func TestLoadJSONUnknownMachine(t *testing.T) {
	in := `{"machine":"Not A Machine","algorithms":[],"sizes":[],"threads":[],"runs":[]}`
	if _, err := LoadJSON(strings.NewReader(in)); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestLoadJSONGarbage(t *testing.T) {
	if _, err := LoadJSON(strings.NewReader("not json at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBusyByKindRecorded(t *testing.T) {
	mx := getSmoke(t)
	r := mx.Get(AlgStrassen, 256, 2)
	if r.BusyByKind["basemul"] <= 0 || r.BusyByKind["add"] <= 0 {
		t.Fatalf("breakdown %v", r.BusyByKind)
	}
	// The base multiplies dominate Strassen's busy time.
	if r.BusyByKind["basemul"] <= r.BusyByKind["add"] {
		t.Fatalf("basemul %v not above add %v", r.BusyByKind["basemul"], r.BusyByKind["add"])
	}
}

// The degradation fields survive a save/load round trip — a chaos
// sweep's partial results are faithfully archived.
func TestJSONRoundTripDegradationFields(t *testing.T) {
	mx := &Matrix{
		Cfg: Config{Machine: hw.HaswellE31225()},
		Runs: []Run{
			{Alg: AlgOpenBLAS, N: 128, Threads: 1, Seconds: 1, Attempts: 1},
			{
				Alg: AlgStrassen, N: 256, Threads: 2, Seconds: 2,
				Degraded:          true,
				QuarantinedPlanes: []string{"PKG", "DRAM"},
				MeasRetries:       3,
				MeasReadErrors:    5,
				MeasDrops:         2,
				Attempts:          2,
			},
			{Alg: AlgCAPS, N: 512, Threads: 4, Attempts: 2, Err: "cell aborted"},
		},
	}
	var buf bytes.Buffer
	if err := mx.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Runs, mx.Runs) {
		t.Fatalf("degradation fields lost:\n%+v\n%+v", back.Runs, mx.Runs)
	}
	if !back.Runs[2].Failed() {
		t.Fatal("failed cell not failed after round trip")
	}
}

// TestSaveJSONByteStable pins the bytes SaveJSON writes for a small
// sweep of node, sparse and cluster cells, so a change to Run's wire
// form or to the saved layout shows here.
func TestSaveJSONByteStable(t *testing.T) {
	cfg := distConfig(t, "4x1GbE", "7xFDR")
	cfg.Algorithms = []Algorithm{AlgOpenBLAS, AlgStrassen, AlgCAPS, AlgSpMV, AlgSUMMA, AlgDistCAPS}
	cfg.Sizes = []int{128, 256}
	cfg.Threads = []int{1, 2}
	cfg.QuiesceSeconds = 1
	var buf bytes.Buffer
	if err := Execute(cfg).SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "d09ad696953cdce8b6770904cdd70847ad766a23e3f8671dd949091903993767"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("saved matrix digest %s, want %s", got, want)
	}
}
