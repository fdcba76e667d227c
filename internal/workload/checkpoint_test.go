package workload

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"capscale/internal/obs"
	"capscale/internal/store"
)

// ckTestConfig is a 4-cell sweep small enough to journal repeatedly.
func ckTestConfig(path string) Config {
	cfg := SmokeConfig()
	cfg.NoCache = true
	cfg.Sizes = []int{64, 128}
	cfg.Threads = []int{1}
	cfg.Algorithms = []Algorithm{AlgOpenBLAS, AlgStrassen}
	cfg.CheckpointPath = path
	return cfg
}

// TestCheckpointRewriteCrashSafe pins the truncate-before-rewrite fix:
// a sweep killed at any instant inside the journal compaction window
// (after the old journal was read, before the new one is complete)
// must lose no previously completed cell. The old implementation
// os.Create'd the live journal first — a crash there lost everything.
func TestCheckpointRewriteCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")
	cfg := ckTestConfig(path)

	first := Execute(cfg)
	cells := len(first.Runs)

	// Kill the process (simulated as a panic) in the rewrite window.
	ckRewriteCrash = func() { panic("simulated kill mid-rewrite") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("crash hook did not fire")
			}
		}()
		Execute(cfg)
	}()
	ckRewriteCrash = nil

	// The live journal must still restore every completed cell.
	resumed := Execute(cfg)
	if got := resumed.RestoredCells(); got != cells {
		t.Fatalf("after mid-rewrite crash, resume restored %d cells, want %d", got, cells)
	}
}

// TestCheckpointRewriteLeavesNoTempDebris: the happy path renames its
// temp file over the journal; nothing else may accumulate in the
// directory across repeated opens.
func TestCheckpointRewriteLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	cfg := ckTestConfig(filepath.Join(dir, "sweep.ck"))
	Execute(cfg)
	Execute(cfg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.ck" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("journal directory holds %v, want only sweep.ck", names)
	}
}

// TestCheckpointOversizedRecordSkipped pins the scanner fix: a record
// over the line cap must be skipped with a warning — not treated as
// end-of-journal, which silently discarded every record after it.
func TestCheckpointOversizedRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")
	cfg := ckTestConfig(path)
	first := Execute(cfg)
	cells := len(first.Runs)

	// Splice an oversized junk line between the first record and the
	// rest of the journal.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < cells+1 {
		t.Fatalf("journal has %d lines, want >= %d", len(lines), cells+1)
	}
	prev := ckMaxRecordBytes
	ckMaxRecordBytes = 4096
	defer func() { ckMaxRecordBytes = prev }()
	var spliced bytes.Buffer
	spliced.Write(lines[0]) // header
	spliced.Write(lines[1]) // first record
	fmt.Fprintf(&spliced, "{\"key\":\"oversized\",\"junk\":%q}\n", strings.Repeat("x", 2*ckMaxRecordBytes))
	for _, l := range lines[2:] {
		spliced.Write(l)
	}
	if err := os.WriteFile(path, spliced.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	over0 := obs.GetCounter("workload.checkpoint.oversized").Value()
	resumed := Execute(cfg)
	if got := resumed.RestoredCells(); got != cells {
		t.Fatalf("oversized record dropped the journal tail: restored %d cells, want %d", got, cells)
	}
	if d := obs.GetCounter("workload.checkpoint.oversized").Value() - over0; d != 1 {
		t.Fatalf("oversized counter advanced by %d, want 1", d)
	}
}

// TestConcurrentExecuteSharedCheckpointPath: two concurrent sweeps
// journaling to one path must not interleave torn records — the
// second open fails cleanly while the first holds the journal, and
// the journal stays complete and resumable throughout.
func TestConcurrentExecuteSharedCheckpointPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")
	cfg := ckTestConfig(path)

	firstCell := make(chan struct{}) // closed once sweep A has journaled a cell
	release := make(chan struct{})   // holds sweep A open until B has collided
	var once sync.Once
	cfgA := cfg
	cfgA.Parallelism = 1
	cfgA.OnRun = func(string, *Run) {
		once.Do(func() { close(firstCell) })
		<-release
	}

	done := make(chan *Matrix, 1)
	go func() {
		done <- Execute(cfgA)
	}()
	<-firstCell

	// Sweep B: same journal path while A holds it → a clean error
	// (surfaced as Execute's panic), not a torn journal.
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Error("concurrent Execute on a held checkpoint path did not fail")
				return
			}
			if msg := fmt.Sprint(p); !strings.Contains(msg, "already in use") {
				t.Errorf("unexpected panic message: %v", msg)
			}
		}()
		Execute(cfg)
	}()

	close(release)
	mxA := <-done
	if len(mxA.FailedRuns()) != 0 {
		t.Fatal("sweep A failed cells")
	}

	// The journal is whole: a resume restores every cell.
	resumed := Execute(cfg)
	if got, want := resumed.RestoredCells(), len(mxA.Runs); got != want {
		t.Fatalf("journal damaged by the collision: restored %d, want %d", got, want)
	}
}

// TestRunRecordRoundTrip: the exported record marshaling matches what
// the journal writes, byte for byte, and parses back.
func TestRunRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ck")
	cfg := ckTestConfig(path)
	mx := Execute(cfg)

	var replay bytes.Buffer
	n, err := ReplayJournal(path, &replay)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(mx.Runs) {
		t.Fatalf("replayed %d records, want %d", n, len(mx.Runs))
	}
	lines := bytes.Split(bytes.TrimSuffix(replay.Bytes(), []byte("\n")), []byte("\n"))
	keys := make(map[string]bool)
	for _, line := range lines {
		key, run, err := UnmarshalRunRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
		remarshal, err := MarshalRunRecord(key, &run)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, remarshal) {
			t.Fatalf("record for %s does not round-trip:\n%s\n%s", key, line, remarshal)
		}
	}
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if key := cfg.cellKey(cell{alg: r.Alg, n: r.N, threads: r.Threads, spec: -1}); !keys[key] {
			t.Fatalf("journal replay misses cell %s", key)
		}
	}
}

// commitFS is the real filesystem recording, per checkpoint journal,
// the payload of every write and the number of fsyncs.
type commitFS struct {
	store.FS
	mu     sync.Mutex
	writes map[string][][]byte // by journal path
	syncs  map[string]int
}

func (f *commitFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	journal, _, isTemp := strings.Cut(name, store.Ext+".tmp-")
	if err != nil || !isTemp {
		return file, err
	}
	return &commitFile{File: file, fs: f, journal: journal + store.Ext}, nil
}

type commitFile struct {
	store.File
	fs      *commitFS
	journal string
}

func (c *commitFile) Write(p []byte) (int, error) {
	c.fs.mu.Lock()
	c.fs.writes[c.journal] = append(c.fs.writes[c.journal], append([]byte(nil), p...))
	c.fs.mu.Unlock()
	return c.File.Write(p)
}

func (c *commitFile) Sync() error {
	c.fs.mu.Lock()
	c.fs.syncs[c.journal]++
	c.fs.mu.Unlock()
	return c.File.Sync()
}

// TestConcurrentSweepsCommitHitsTogether: two sweeps under different
// fingerprints run concurrently over one run cache, journaling into
// one store directory. Each journals the cells it finds in the cache
// with one write and one fsync, before its pool starts; the cells
// neither finds are simulated once between them; and both journals
// hold byte-identical records.
func TestConcurrentSweepsCommitHitsTogether(t *testing.T) {
	cache := NewRunCache(64)
	base := SmokeConfig()
	base.Algorithms = []Algorithm{AlgOpenBLAS, AlgStrassen}
	base.Sizes = []int{64}
	base.Threads = []int{1}
	base.Cache = cache
	Execute(base) // warms OpenBLAS/64/1 and Strassen/64/1

	fsys := &commitFS{FS: store.OS(), writes: map[string][][]byte{}, syncs: map[string]int{}}
	st, err := store.Open(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	hitKeys := []string{"OpenBLAS/64/1", "Strassen/64/1"}
	// Neither pool starts before both sweeps have committed their hits,
	// so both see the same two hits and race on the same two misses.
	var committed sync.WaitGroup
	committed.Add(2)
	cfgs := make([]Config, 2)
	for i := range cfgs {
		cfg := base
		cfg.Sizes = []int{64, 96}
		cfg.QuiesceSeconds = float64(i + 1)
		cfg.Parallelism = 1
		cfg.FS = fsys
		cfg.CheckpointPath = st.Path(cfg.Fingerprint())
		var once sync.Once
		cfg.OnRun = func(key string, _ *Run) {
			if key == hitKeys[0] {
				once.Do(func() {
					committed.Done()
					committed.Wait()
				})
			}
		}
		cfgs[i] = cfg
	}
	executed := cellsExecuted.Value()
	hits, misses, waits := cacheHits.Value(), cacheMisses.Value(), cacheDedups.Value()
	var wg sync.WaitGroup
	for _, cfg := range cfgs {
		wg.Add(1)
		go func(cfg Config) {
			defer wg.Done()
			Execute(cfg)
		}(cfg)
	}
	wg.Wait()

	if d := cellsExecuted.Value() - executed; d != 2 {
		t.Errorf("the two sweeps simulated %d cells, want 2 (each missed cell once)", d)
	}
	// Each cell counts once: a hit, a miss, or a wait on the other
	// sweep's compute.
	if d := cacheMisses.Value() - misses; d != 2 {
		t.Errorf("the two sweeps counted %d cache misses, want 2", d)
	}
	if d := cacheHits.Value() - hits + cacheDedups.Value() - waits; d != 6 {
		t.Errorf("the two sweeps counted %d cache hits and single-flight waits, want 6", d)
	}
	var records [2][]byte
	for i, cfg := range cfgs {
		writes, syncs := fsys.writes[cfg.CheckpointPath], fsys.syncs[cfg.CheckpointPath]
		// Compaction (header only), the commit of both hits, then one
		// append per simulated cell.
		if len(writes) != 4 || syncs != 4 {
			t.Fatalf("sweep %d: %d journal writes and %d fsyncs, want 4 and 4", i, len(writes), syncs)
		}
		var keys []string
		for _, line := range bytes.SplitAfter(bytes.TrimSuffix(writes[1], []byte("\n")), []byte("\n")) {
			key, _, err := UnmarshalRunRecord(line)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
		if strings.Join(keys, ",") != strings.Join(hitKeys, ",") {
			t.Errorf("sweep %d committed %v together, want the hits %v", i, keys, hitKeys)
		}
		raw, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		_, records[i], _ = bytes.Cut(raw, []byte("\n"))
	}
	if !bytes.Equal(records[0], records[1]) {
		t.Errorf("the journals' records differ:\n%s\n%s", records[0], records[1])
	}
}

// TestStoppedSweepCommitsNoHits: a sweep stopped before it starts
// looks up no cache hits: every cell resolves interrupted, nothing is
// journaled past the header and nothing is announced.
func TestStoppedSweepCommitsNoHits(t *testing.T) {
	cfg := ckTestConfig(filepath.Join(t.TempDir(), "sweep.ck"))
	cfg.NoCache = false
	cfg.Cache = NewRunCache(64)
	Execute(func() Config { c := cfg; c.CheckpointPath = ""; return c }())

	announced := 0
	cfg.OnRun = func(string, *Run) { announced++ }
	cfg.Stop = func() bool { return true }
	mx := Execute(cfg)
	if n := len(mx.InterruptedRuns()); n != len(mx.Runs) || announced != 0 {
		t.Fatalf("%d of %d cells interrupted and %d announced; want all interrupted, none announced", n, len(mx.Runs), announced)
	}
	raw, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 1 {
		t.Fatalf("the stopped sweep's journal has %d lines, want the header alone", n)
	}
}

// TestCheckpointHeaderKeepsRequest: a CLI sweep's header carries no
// request; a sweep given one writes it into the header; and
// compaction by a sweep given none keeps it.
func TestCheckpointHeaderKeepsRequest(t *testing.T) {
	cfg := ckTestConfig(filepath.Join(t.TempDir(), "sweep.ck"))
	header := func() string {
		raw, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := bytes.Cut(raw, []byte("\n"))
		return string(line)
	}
	Execute(cfg)
	plain := fmt.Sprintf(`{"version":1,"fingerprint":"%s"}`, cfg.Fingerprint())
	if got := header(); got != plain {
		t.Fatalf("CLI header %s, want %s", got, plain)
	}
	cfg.Request = []byte(`{"sizes": [64, 128]}`)
	Execute(cfg)
	withRequest := strings.TrimSuffix(plain, "}") + `,"request":{"sizes":[64,128]}}`
	if got := header(); got != withRequest {
		t.Fatalf("header %s, want %s", got, withRequest)
	}
	cfg.Request = nil
	Execute(cfg)
	if got := header(); got != withRequest {
		t.Fatalf("after compaction without a request the header is %s, want %s", got, withRequest)
	}
}

// TestGuidedSweepCommitsPredictionsTogether: a journaled guided sweep
// commits each measured cell as it completes and all of its
// predictions, known at once after the last fit, with one append; and
// no prediction is announced before the commit covering it returned.
func TestGuidedSweepCommitsPredictionsTogether(t *testing.T) {
	fsys := &commitFS{FS: store.OS(), writes: map[string][][]byte{}, syncs: map[string]int{}}
	cfg := guidedConfig()
	cfg.FS = fsys
	path := filepath.Join(t.TempDir(), "guided"+store.Ext)
	cfg.CheckpointPath = path
	var early []string
	cfg.OnRun = func(key string, r *Run) {
		if !r.Predicted {
			return
		}
		raw, err := os.ReadFile(path)
		if err != nil || !bytes.Contains(raw, []byte(`{"key":"`+key+`"`)) {
			early = append(early, key)
		}
	}
	mx := Execute(cfg)
	if p := mx.Planner; len(mx.Runs) != 48 || p.MeasuredCells != 16 || p.PredictedCells != 32 {
		t.Fatalf("%d cells, planner %+v; want 48 cells, 16 measured and 32 predicted", len(mx.Runs), p)
	}
	// The compaction, one append per measured cell, one for every
	// prediction.
	if got := fsys.syncs[path]; got != 18 {
		t.Fatalf("the guided sweep fsynced its journal %d times, want 18", got)
	}
	if len(early) > 0 {
		t.Fatalf("predictions %v announced before their commit returned", early)
	}
}
