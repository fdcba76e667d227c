package workload

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/hw"
)

func distConfig(t *testing.T, specs ...string) Config {
	t.Helper()
	cfg := Config{
		Machine:    hw.HaswellE31225(),
		Algorithms: []Algorithm{AlgSUMMA, AlgDistCAPS},
		Sizes:      []int{256},
		Threads:    []int{1},
	}
	for _, s := range specs {
		spec, err := cluster.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clusters = append(cfg.Clusters, spec)
	}
	return cfg
}

func TestDistributedCellsThroughDriver(t *testing.T) {
	cfg := distConfig(t, "7x1GbE", "16xFDR")
	mx := Execute(cfg)
	// 2 algorithms × 1 size × 2 clusters.
	if len(mx.Runs) != 4 {
		t.Fatalf("got %d runs", len(mx.Runs))
	}
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if r.Failed() {
			t.Fatalf("cell %s/%d@%s failed: %s", r.Alg, r.N, r.Cluster, r.Err)
		}
		if r.Cluster == "" || r.Ranks < 1 {
			t.Fatalf("distributed run missing coordinates: %+v", r)
		}
		if r.Seconds <= 0 || r.PKGJoules <= 0 {
			t.Fatalf("empty measurement: %+v", r)
		}
		if r.Ranks > 1 {
			if r.WireBytes <= 0 || r.Messages <= 0 || r.CritAlphaTerms <= 0 {
				t.Fatalf("no communication recorded: %+v", r)
			}
			if r.NICJoules <= 0 || r.SwitchJoules <= 0 {
				t.Fatalf("interconnect planes empty: %+v", r)
			}
		}
		// The monitor's measurement reconciles against the device truth
		// on every plane, including NIC and switch.
		for _, pair := range [][2]float64{
			{r.PKGJoules, r.TruthPKGJoules},
			{r.DRAMJoules, r.TruthDRAMJoules},
			{r.NICJoules, r.TruthNICJoules},
			{r.SwitchJoules, r.TruthSwitchJoules},
		} {
			if diff := math.Abs(pair[0] - pair[1]); diff > 0.01 {
				t.Fatalf("measured %v J vs truth %v J: %+v", pair[0], pair[1], r)
			}
		}
	}
	// SUMMA on 7 nodes fits a 2×2 grid; dCAPS fits all 7 ranks.
	if r := mx.GetCluster(AlgSUMMA, 256, "7x1GbE"); r == nil || r.Ranks != 4 {
		t.Fatalf("SUMMA fit: %+v", r)
	}
	if r := mx.GetCluster(AlgDistCAPS, 256, "7x1GbE"); r == nil || r.Ranks != 7 {
		t.Fatalf("dCAPS fit: %+v", r)
	}
}

func TestDistributedDeterministicAndCached(t *testing.T) {
	cfg := distConfig(t, "4x1GbE")
	cfg.Cache = NewRunCache(DefaultRunCacheCap)
	mx1 := Execute(cfg)
	mx2 := Execute(cfg) // second sweep should be served from cache
	for i := range mx1.Runs {
		a, b := mx1.Runs[i], mx2.Runs[i]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("distributed sweep not deterministic:\n%+v\n%+v", a, b)
		}
	}
}

func TestDistributedJSONRoundTrip(t *testing.T) {
	cfg := distConfig(t, "4x1GbE")
	mx := Execute(cfg)
	var buf bytes.Buffer
	if err := mx.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cfg.Clusters) != 1 || loaded.Cfg.Clusters[0].String() != "4x1GbE" {
		t.Fatalf("clusters did not round-trip: %+v", loaded.Cfg.Clusters)
	}
	for i := range mx.Runs {
		want, got := mx.Runs[i], loaded.Runs[i]
		if got.Cluster != want.Cluster || got.Ranks != want.Ranks ||
			got.WireBytes != want.WireBytes || got.Messages != want.Messages ||
			got.CritAlphaTerms != want.CritAlphaTerms ||
			got.NICJoules != want.NICJoules || got.SwitchJoules != want.SwitchJoules {
			t.Fatalf("run did not round-trip:\n%+v\n%+v", want, got)
		}
	}
}

func TestDistributedCheckpointResume(t *testing.T) {
	cfg := distConfig(t, "4x1GbE")
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg.NoCache = true
	first := Execute(cfg)
	if first.RestoredCells() != 0 {
		t.Fatalf("fresh sweep restored %d cells", first.RestoredCells())
	}
	second := Execute(cfg)
	if second.RestoredCells() != len(second.Runs) {
		t.Fatalf("resumed sweep restored %d of %d cells",
			second.RestoredCells(), len(second.Runs))
	}
	for i := range first.Runs {
		a, b := first.Runs[i], second.Runs[i]
		b.Restored = false
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("restored run differs:\n%+v\n%+v", a, b)
		}
	}
}

func TestValidateRejectsDistributedWithoutClusters(t *testing.T) {
	cfg := distConfig(t, "4x1GbE")
	cfg.Clusters = nil
	if err := cfg.Validate(); err == nil {
		t.Fatal("distributed algorithms without clusters accepted")
	}
}

// Validate is the backstop for specs built without ParseSpec: NaN
// memory passes a `<= 0` check and would leave the 2.5D fit unbounded.
func TestValidateRejectsNonFiniteMemory(t *testing.T) {
	cfg := distConfig(t, "4x1GbE")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mem := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		cfg.Clusters[0].MemPerNode = mem
		if err := cfg.Validate(); err == nil {
			t.Errorf("memory %v per node accepted", mem)
		}
	}
}
