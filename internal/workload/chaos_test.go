package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"capscale/internal/faults"
)

// chaosConfig is the smoke matrix with an aggressive fault schedule:
// half the cells armed, with rates hot enough that short smoke runs
// still see dropouts and aborts.
func chaosConfig(seed int64) Config {
	cfg := SmokeConfig()
	cfg.NoCache = true
	// Smoke cells finish in well under a millisecond; poll fast enough
	// that every cell sees hundreds of counter reads, so fault windows
	// actually trigger.
	cfg.PollInterval = 1e-6
	sch := faults.DefaultSchedule(seed)
	sch.Profile.PlaneDropoutRate = 0.6
	sch.Profile.DropoutWindow = 4
	sch.Profile.CellAbortRate = 0.4
	sch.Profile.AbortWindow = 4
	cfg.Faults = sch
	return cfg
}

// The chaos gate: a fault-injected sweep completes without panicking,
// is deterministic per seed regardless of parallelism, flags every
// degraded cell, and leaves unarmed cells bit-identical to a clean
// sweep.
func TestChaosSweepInvariants(t *testing.T) {
	cfg := chaosConfig(7)
	cells := cfg.cells()

	armed := 0
	for _, c := range cells {
		if cfg.Faults.Armed(cfg.cellKey(c)) {
			armed++
		}
	}
	if frac := float64(armed) / float64(len(cells)); frac < 0.3 {
		t.Fatalf("schedule arms only %.0f%% of cells; the gate needs >= 30%%", frac*100)
	}

	cfg.Parallelism = 4
	mx := Execute(cfg) // must not panic
	if len(mx.Runs) != len(cells) {
		t.Fatalf("sweep incomplete: %d/%d cells", len(mx.Runs), len(cells))
	}

	// Deterministic per seed and independent of parallelism.
	seq := cfg
	seq.Parallelism = 1
	mx2 := Execute(seq)
	if !reflect.DeepEqual(mx.Runs, mx2.Runs) {
		t.Fatal("same-seed chaos sweeps differ between parallel and sequential execution")
	}

	// Every completed cell either reconciles or is flagged; failed
	// cells carry their error.
	clean := SmokeConfig()
	clean.NoCache = true
	clean.PollInterval = cfg.PollInterval
	ref := Execute(clean)
	sawDegraded, sawFailed := 0, 0
	for i := range mx.Runs {
		r := &mx.Runs[i]
		key := cfg.cellKey(cell{alg: r.Alg, n: r.N, threads: r.Threads, spec: -1})
		switch {
		case r.Failed():
			sawFailed++
			if r.Err == "" || r.Attempts == 0 {
				t.Fatalf("failed cell %s lacks error/attempts: %+v", key, r)
			}
			if cfg.Faults != nil && !cfg.Faults.Armed(key) {
				t.Fatalf("unarmed cell %s failed: %s", key, r.Err)
			}
		case r.Degraded:
			sawDegraded++
		default:
			// Completed and unflagged: the figures must be clean.
			if e := r.MeasurementAbsErr(); e > 0.01 {
				t.Fatalf("unflagged cell %s has abs err %v J", key, e)
			}
		}
		if !cfg.Faults.Armed(key) {
			// Containment bookkeeping aside (a contained cell records
			// its attempt count), the figures are bit-identical.
			norm := *r
			norm.Attempts = ref.Runs[i].Attempts
			if !reflect.DeepEqual(norm, ref.Runs[i]) {
				t.Fatalf("unarmed cell %s differs from the clean sweep:\n%+v\n%+v", key, *r, ref.Runs[i])
			}
		}
	}
	if sawDegraded+sawFailed == 0 {
		t.Fatal("aggressive chaos schedule degraded nothing — the gate is vacuous")
	}
	t.Logf("chaos sweep: %d cells, %d armed, %d degraded, %d failed",
		len(cells), armed, sawDegraded, sawFailed)
}

// The fault layer must leave the clean path untouched: the same config
// with and without the (nil) schedule field produces identical runs.
func TestNoFaultsBitIdentical(t *testing.T) {
	a := SmokeConfig()
	a.NoCache = true
	a.Sizes = []int{128}
	b := a
	b.Faults = nil // explicit
	mxA, mxB := Execute(a), Execute(b)
	if !reflect.DeepEqual(mxA.Runs, mxB.Runs) {
		t.Fatal("nil-faults sweep not bit-identical")
	}
}

func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")

	cfg := SmokeConfig()
	cfg.NoCache = true
	cfg.Sizes = []int{128}
	cfg.CheckpointPath = path

	first := Execute(cfg)
	if first.RestoredCells() != 0 {
		t.Fatalf("fresh sweep restored %d cells", first.RestoredCells())
	}
	second := Execute(cfg)
	if got, want := second.RestoredCells(), len(first.Runs); got != want {
		t.Fatalf("resume restored %d cells, want %d", got, want)
	}
	for i := range second.Runs {
		if !second.Runs[i].Restored {
			t.Fatalf("cell %d not marked Restored", i)
		}
		// Restored figures equal the executed ones (modulo the
		// session-local Restored flag itself).
		a, b := first.Runs[i], second.Runs[i]
		b.Restored = false
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("restored cell %d differs:\n%+v\n%+v", i, a, b)
		}
	}
}

// A checkpoint written under one configuration must not satisfy
// another: the fingerprint invalidates stale journals.
func TestCheckpointFingerprintInvalidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")

	cfg := SmokeConfig()
	cfg.NoCache = true
	cfg.Sizes = []int{128}
	cfg.CheckpointPath = path
	Execute(cfg)

	moved := cfg
	moved.PollInterval = 0.05 // different measurement settings
	mx := Execute(moved)
	if mx.RestoredCells() != 0 {
		t.Fatalf("stale checkpoint satisfied %d cells of a different config", mx.RestoredCells())
	}

	// And a fault-schedule change invalidates too.
	faulted := cfg
	faulted.Faults = faults.DefaultSchedule(3)
	mx2 := Execute(faulted)
	if mx2.RestoredCells() != 0 {
		t.Fatalf("clean checkpoint satisfied %d cells of a faulted sweep", mx2.RestoredCells())
	}
}

// Failed cells are not journaled: a resumed chaos sweep re-attempts
// exactly the cells that failed, and only those.
func TestCheckpointSkipsFailedCells(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")

	cfg := chaosConfig(7)
	cfg.CheckpointPath = path
	cfg.MaxRetries = -1 // no retries: aborts become failed cells
	first := Execute(cfg)
	failed := len(first.FailedRuns())
	if failed == 0 {
		t.Skip("seed 7 produced no failed cells at this profile; invariant vacuous")
	}
	second := Execute(cfg)
	if got, want := second.RestoredCells(), len(first.Runs)-failed; got != want {
		t.Fatalf("resume restored %d cells, want %d (completed only)", got, want)
	}
	// Determinism: the re-attempted cells fail identically, so the
	// matrices agree cell for cell.
	for i := range second.Runs {
		a, b := first.Runs[i], second.Runs[i]
		b.Restored = false
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cell %d differs after resume:\n%+v\n%+v", i, a, b)
		}
	}
}

// Traced sweeps serialize traces into the journal so SessionTrace
// works across a resume.
func TestCheckpointCarriesTraces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")

	cfg := SmokeConfig()
	cfg.NoCache = true
	cfg.Sizes = []int{128}
	cfg.RecordTraces = true
	cfg.TraceSampleInterval = 0.001
	cfg.CheckpointPath = path

	first := Execute(cfg)
	a := first.SessionTrace()
	second := Execute(cfg)
	if second.RestoredCells() != len(first.Runs) {
		t.Fatalf("traced resume restored %d/%d", second.RestoredCells(), len(first.Runs))
	}
	b := second.SessionTrace()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("session trace differs across checkpoint resume")
	}
}

// A torn journal tail (crash mid-write) degrades to restoring the
// intact prefix.
func TestCheckpointTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")

	cfg := SmokeConfig()
	cfg.NoCache = true
	cfg.Sizes = []int{128}
	cfg.CheckpointPath = path
	first := Execute(cfg)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last record in half.
	if err := os.WriteFile(path, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	second := Execute(cfg)
	if got := second.RestoredCells(); got == 0 || got >= len(first.Runs) {
		t.Fatalf("torn tail restored %d cells, want 1..%d", got, len(first.Runs)-1)
	}
	if !reflect.DeepEqual(stripRestored(first.Runs), stripRestored(second.Runs)) {
		t.Fatal("matrix differs after torn-tail resume")
	}
}

func stripRestored(runs []Run) []Run {
	out := append([]Run(nil), runs...)
	for i := range out {
		out[i].Restored = false
	}
	return out
}

// The run cache must never serve or store fault-armed cells.
func TestFaultsBypassRunCache(t *testing.T) {
	rc := NewRunCache(DefaultRunCacheCap)
	cfg := SmokeConfig()
	cfg.Cache = rc
	cfg.Sizes = []int{128}
	cfg.Threads = []int{1}
	cfg.Algorithms = []Algorithm{AlgOpenBLAS}
	Execute(cfg) // populates the cache
	if rc.Len() == 0 {
		t.Fatal("clean sweep did not populate the cache")
	}
	before := rc.Len()

	faulted := cfg
	faulted.Faults = faults.DefaultSchedule(1)
	faulted.Faults.CellFraction = 1
	Execute(faulted)
	if rc.Len() != before {
		t.Fatalf("faulted sweep changed the cache: %d -> %d", before, rc.Len())
	}
}

// DegradationSummary names every failed and degraded cell.
func TestDegradationSummary(t *testing.T) {
	mx := &Matrix{Runs: []Run{
		{Alg: AlgOpenBLAS, N: 128, Threads: 1},
		{Alg: AlgStrassen, N: 128, Threads: 2, Degraded: true, QuarantinedPlanes: []string{"PKG"}},
		{Alg: AlgCAPS, N: 256, Threads: 1, Attempts: 2, Err: "boom"},
	}}
	s := mx.DegradationSummary()
	for _, want := range []string{"FAILED", "boom", "degraded", "quarantined PKG", "1/3 cells degraded, 1 failed"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	clean := &Matrix{Runs: []Run{{Alg: AlgOpenBLAS, N: 128, Threads: 1}}}
	if got := clean.DegradationSummary(); got != "" {
		t.Fatalf("clean matrix summary %q", got)
	}
}
