package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"capscale/internal/model"
	"capscale/internal/obs"
	"capscale/internal/store"
	"capscale/internal/trace"
)

// Sweep checkpointing: with Config.CheckpointPath set, Execute
// journals every completed cell to a JSONL file as it finishes, and a
// later Execute with the same configuration restores those cells
// instead of re-simulating them. The journal survives a killed or
// crashed sweep because every record is fsynced before its cell is
// announced (Config.OnRun): a simulated cell is appended as it
// completes, the cells the sweep finds in the run cache are appended
// together, under one fsync, before any of them is simulated, and a
// guided sweep's predictions are appended together once its last fit
// is done — exactly the cells that completed are exactly the cells
// restored.
//
// File format: one JSON object per line. The first line is a header
// carrying a fingerprint of everything that determines cell results —
// machine, matrix coordinates, measurement settings, ablations and
// the fault schedule. A journal whose fingerprint does not match the
// current configuration is discarded wholesale: resuming cells
// produced under a different configuration would silently mix
// incomparable results. Subsequent lines are cell records; duplicate
// keys keep the last record (a cell journaled by an earlier partial
// sweep and re-journaled by a later one agrees anyway — the simulator
// is deterministic). Failed cells are never journaled, so a resumed
// sweep retries them.
//
// Traces ride along in the record when Config.RecordTraces is set, so
// a resumed traced sweep can still assemble its SessionTrace; a
// record without a trace does not satisfy a traced sweep and is
// re-run instead of restored.
//
// On open the journal is compacted — restored records re-journaled in
// their original journal order to a fresh file, so stale headers,
// duplicates and torn tails do not accumulate and a compacted journal
// replays byte-identically to the sweep that produced it. The rewrite
// is crash-safe (temp file + fsync + atomic rename; see
// store.CreateJournal): a crash at any instant leaves either the old
// complete journal or the new complete one, never a truncated
// in-between.
//
// Exclusivity is one mechanism: an on-disk lease file
// (store.AcquireLease) claims the journal, so a second sweep on the
// same path — in another process or replica, or in this one, whose
// PID the lease also refuses — fails with a descriptive error instead
// of interleaving torn records. The lease is renewed in the background
// while the sweep runs, a crashed holder's lease expires (or is broken
// immediately when its process is verifiably dead on this host), and
// every append is epoch-fenced so a zombie holder's late writes are
// rejected once its lease has been stolen. A sweep given a pre-held
// Config.Lease claims nothing itself: its caller holds the lease for
// exactly one sweep. All journal I/O goes through Config.FS (nil = the
// real filesystem), which is how the crash and torn-write tests drive
// these paths.

// ckVersion guards the journal layout.
const ckVersion = 1

type ckRecord struct {
	Key   string       `json:"key"`
	Run   Run          `json:"run"`
	Trace *trace.Trace `json:"trace,omitempty"`
}

// checkpoint is an open sweep journal. record is safe for concurrent
// use by the driver's workers.
type checkpoint struct {
	mu   sync.Mutex
	j    *store.Journal
	path string
	keep bool // RecordTraces: records must carry traces

	lease     *store.Lease
	ownLease  bool // acquired here (vs. supplied pre-held by the caller)
	renewStop chan struct{}
	renewDone chan struct{}

	lost   atomic.Bool // lease lost: journal fenced off, sweep should stop
	warned atomic.Bool // one append warning per sweep is enough
}

// ckRewriteCrash is a test hook invoked between writing the compacted
// temp journal and renaming it over the live one — the crash window
// the atomic rewrite must keep harmless. Nil outside tests.
var ckRewriteCrash func()

// oversized-record drops and append failures are counted so a service
// embedding the pipeline can alarm on silent journal damage.
var (
	ckOversized  = obs.GetCounter("workload.checkpoint.oversized")
	ckAppendErrs = obs.GetCounter("workload.checkpoint.appenderrors")
	ckLeaseLost  = obs.GetCounter("workload.checkpoint.leaselost")
)

// Fingerprint returns the configuration's result fingerprint: a hash
// of every field that determines cell results (machine, matrix
// coordinates, measurement settings, ablations, fault schedule and
// planner coordinates — execution details like Parallelism, the cache
// instance, the filesystem or the lease identity are excluded). It
// keys the checkpoint journal header and the sweep server's persistent
// result store: two configurations with equal fingerprints produce
// byte-identical cell records.
func (cfg Config) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|", machineFingerprint(cfg.Machine))
	for _, a := range cfg.Algorithms {
		fmt.Fprintf(h, "a%d|", int(a))
	}
	for _, n := range cfg.Sizes {
		fmt.Fprintf(h, "n%d|", n)
	}
	for _, p := range cfg.Threads {
		fmt.Fprintf(h, "p%d|", p)
	}
	for i := range cfg.Clusters {
		fmt.Fprintf(h, "c%x|", clusterFingerprint(&cfg.Clusters[i]))
	}
	fmt.Fprintf(h, "%g|%t|%t|%g|%t|%t|%g|%d|%x",
		cfg.QuiesceSeconds, cfg.RecordTraces, cfg.RecordSchedule, cfg.TraceSampleInterval,
		cfg.DisableAffinity, cfg.DisableContention, cfg.pollInterval(), cfg.MaxRetries,
		cfg.Faults.Fingerprint())
	// Planner coordinates: a guided journal (whose predicted records
	// depend on the seed, confidence and model version) must not be
	// resumed by an exhaustive sweep or a different planner setup.
	fmt.Fprintf(h, "|plan%d|%g|%g|mv%d", int(cfg.Plan), cfg.SeedFraction, cfg.Confidence, model.Version)
	return fmt.Sprintf("%016x", h.Sum64())
}

// MarshalRunRecord serializes one completed cell in the checkpoint
// journal's record format (one JSON object, no trailing newline) —
// exactly the bytes record appends for an untraced sweep, and so the
// line the sweep service streams and replays for the cell.
func MarshalRunRecord(key string, r *Run) ([]byte, error) {
	return json.Marshal(ckRecord{Key: key, Run: *r})
}

// UnmarshalRunRecord parses one checkpoint journal record line.
func UnmarshalRunRecord(line []byte) (key string, run Run, err error) {
	var rec ckRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return "", Run{}, fmt.Errorf("workload: bad run record: %w", err)
	}
	rec.Run.Trace = rec.Trace
	return rec.Key, rec.Run, nil
}

// openCheckpoint loads any resumable cells from cfg.CheckpointPath and
// returns the open journal plus the restored runs by cell key. A
// missing file, a stale fingerprint, or a corrupt tail (a record cut
// mid-write by a crash) all degrade to "restore what is readable" —
// never to a failed sweep. The journal is compacted on open via an
// atomic temp-file rewrite, and claimed by an on-disk lease unless the
// caller supplied one it already holds; see the package comment for
// the crash and fencing contracts.
func openCheckpoint(cfg Config) (*checkpoint, map[string]Run, error) {
	fsys := store.Resolve(cfg.FS)
	lease := cfg.Lease
	ownLease := false
	ok := false
	defer func() {
		if !ok && ownLease {
			_ = lease.Release()
		}
	}()

	if lease == nil {
		var err error
		lease, err = store.AcquireLease(fsys, store.LeasePath(cfg.CheckpointPath), fmt.Sprintf("pid-%d", os.Getpid()), 0, nil)
		if err != nil {
			var held *store.HeldError
			if errors.As(err, &held) {
				return nil, nil, fmt.Errorf("workload: checkpoint journal %s is already in use: leased by %q (epoch %d), which may be executing this sweep — give each sweep its own CheckpointPath, or retry after the lease expires: %w",
					cfg.CheckpointPath, held.Info.Owner, held.Info.Epoch, err)
			}
			return nil, nil, fmt.Errorf("workload: checkpoint: %w", err)
		}
		ownLease = true
	}

	fp := cfg.Fingerprint()
	keys, restored, request := loadCheckpoint(fsys, cfg, fp)
	// The header keeps the request an existing journal carries, so a
	// takeover that was not given one still leaves a resumable journal
	// and the header's bytes do not move under a follower's reader.
	if len(request) == 0 {
		request = cfg.Request
	}

	ck := &checkpoint{path: cfg.CheckpointPath, keep: cfg.RecordTraces, lease: lease, ownLease: ownLease}
	hdr, err := json.Marshal(store.Header{Version: ckVersion, Fingerprint: fp, Request: request})
	if err != nil {
		return nil, nil, fmt.Errorf("workload: checkpoint: %w", err)
	}
	// Re-journal the restored cells — in their original journal order,
	// so compaction preserves replay bytes — making the compacted file
	// complete on its own.
	records := make([][]byte, 0, len(keys))
	for _, key := range keys {
		r := restored[key]
		line, err := ck.marshalRecord(key, &r)
		if err != nil {
			continue // unserializable cells are simply not resumable
		}
		records = append(records, line)
	}
	j, err := store.CreateJournal(fsys, cfg.CheckpointPath, hdr, records, lease, ckRewriteCrash)
	if err != nil {
		return nil, nil, fmt.Errorf("workload: checkpoint: %w", err)
	}
	ck.j = j
	ck.startRenewer()
	ok = true
	return ck, restored, nil
}

// ckMaxRecordBytes bounds one journal line (store.MaxRecord). A
// variable so tests can exercise the oversized path without writing
// 64 MiB lines.
var ckMaxRecordBytes = store.MaxRecord

// loadCheckpoint reads the resumable cells out of an existing journal:
// the restored runs by key, plus the keys in first-journaled order
// (duplicate keys keep the last record but the first position) so the
// compaction rewrite preserves the journal's replay order, plus the
// request its header carries. Nil when there is no journal or it
// belongs to a different configuration.
func loadCheckpoint(fsys store.FS, cfg Config, fingerprint string) (keys []string, restored map[string]Run, request []byte) {
	sc, err := store.ScanJournal(fsys, cfg.CheckpointPath, ckMaxRecordBytes)
	if err != nil || !sc.HeaderOK {
		return nil, nil, nil
	}
	if sc.Header.Version != ckVersion || sc.Header.Fingerprint != fingerprint {
		return nil, nil, nil
	}
	request = sc.Header.Request
	if sc.Oversized > 0 {
		ckOversized.Add(int64(sc.Oversized))
		fmt.Fprintf(os.Stderr, "workload: checkpoint %s: skipped %d oversized record(s) (> %d bytes); later records still restored\n",
			cfg.CheckpointPath, sc.Oversized, ckMaxRecordBytes)
	}
	restored = make(map[string]Run)
	for _, line := range sc.Records {
		var rec ckRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // valid JSON, wrong shape: not a cell record
		}
		if rec.Run.Err != "" {
			continue // defensive: failed cells are not resumable
		}
		if cfg.RecordTraces && rec.Trace == nil {
			continue // a traced sweep cannot restore an untraced record
		}
		if cfg.RecordTraces {
			rec.Run.Trace = rec.Trace
		}
		if _, seen := restored[rec.Key]; !seen {
			keys = append(keys, rec.Key)
		}
		restored[rec.Key] = rec.Run
	}
	if len(restored) == 0 {
		return nil, nil, request
	}
	return keys, restored, request
}

// marshalRecord serializes one cell record under the journal's trace
// policy.
func (ck *checkpoint) marshalRecord(key string, r *Run) ([]byte, error) {
	rec := ckRecord{Key: key, Run: *r}
	if ck.keep {
		rec.Trace = r.Trace
	}
	return json.Marshal(rec)
}

// startRenewer keeps the journal lease alive in the background while
// the sweep runs. A renewal failure marks the checkpoint lost: the
// fenced journal refuses further appends and the driver stops starting
// new cells (see Execute).
func (ck *checkpoint) startRenewer() {
	if ck.lease == nil {
		return
	}
	ck.renewStop = make(chan struct{})
	ck.renewDone = make(chan struct{})
	interval := ck.lease.TTL() / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(ck.renewDone)
		// A panic out of the renewal I/O (the fault filesystem's
		// simulated power loss fires on whichever goroutine performs the
		// fatal op) must not take down unrelated goroutines; treat it
		// like any other failed renewal.
		defer func() {
			if p := recover(); p != nil {
				ck.lost.Store(true)
				ckLeaseLost.Inc()
				fmt.Fprintf(os.Stderr, "workload: checkpoint %s: lease renewal panicked (%v); stopping new cells\n", ck.path, p)
			}
		}()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ck.renewStop:
				return
			case <-t.C:
				if err := ck.lease.Renew(); err != nil {
					ck.lost.Store(true)
					ckLeaseLost.Inc()
					fmt.Fprintf(os.Stderr, "workload: checkpoint %s: lease renewal failed (%v); stopping new cells\n", ck.path, err)
					return
				}
			}
		}
	}()
}

// interrupted reports whether the journal's lease has been lost — the
// signal for the driver to stop starting new cells.
func (ck *checkpoint) interrupted() bool {
	return ck != nil && ck.lost.Load()
}

// commit journals completed cells with one append, one write and one
// fsync for all of them, so every record survives the process dying
// once commit returns. Failures are counted and warned about — the
// cells simply are not resumable — except a lost lease, which
// additionally fences the rest of the sweep.
func (ck *checkpoint) commit(keys []string, runs []*Run) {
	lines := make([][]byte, 0, len(runs))
	for i, r := range runs {
		line, err := ck.marshalRecord(keys[i], r)
		if err != nil {
			continue // unserializable cells are simply not resumable
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return
	}
	ck.mu.Lock()
	j := ck.j
	ck.mu.Unlock()
	if j == nil {
		return
	}
	if err := j.Append(lines...); err != nil {
		if errors.Is(err, store.ErrLeaseLost) {
			if !ck.lost.Swap(true) {
				ckLeaseLost.Inc()
				fmt.Fprintf(os.Stderr, "workload: checkpoint %s: lease lost; cells %s not journaled and remaining cells will not start\n", ck.path, strings.Join(keys, ", "))
			}
			return
		}
		ckAppendErrs.Inc()
		if !ck.warned.Swap(true) {
			fmt.Fprintf(os.Stderr, "workload: checkpoint %s: append failed: %v — affected cells will not be resumable\n", ck.path, err)
		}
	}
}

// close closes the journal file, stops the lease renewer and releases
// the lease it acquired; records after close are dropped, and closing
// no journal (nil) does nothing. Close and release failures are warned
// about, not swallowed: each is a torn-journal or stuck-lease risk the
// operator should see.
func (ck *checkpoint) close() {
	if ck == nil {
		return
	}
	ck.mu.Lock()
	j := ck.j
	ck.j = nil
	ck.mu.Unlock()
	if j == nil {
		return
	}
	if ck.renewStop != nil {
		close(ck.renewStop)
		<-ck.renewDone
	}
	if err := j.Close(); err != nil {
		ckAppendErrs.Inc()
		fmt.Fprintf(os.Stderr, "workload: checkpoint %s: close failed: %v\n", ck.path, err)
	}
	if ck.ownLease {
		if err := ck.lease.Release(); err != nil {
			fmt.Fprintf(os.Stderr, "workload: checkpoint %s: lease release failed: %v (holders must wait out the TTL)\n", ck.path, err)
		}
	}
}

// ReplayJournal streams the record lines of a checkpoint/result
// journal verbatim to w (header validated and skipped) and returns
// how many records it wrote. Callers get the exact bytes record
// appended, so repeated replays are byte-identical. Torn tails stop
// the replay silently, matching loadCheckpoint; oversized records are
// skipped with a count.
func ReplayJournal(path string, w io.Writer) (int, error) {
	records, oversized, err := store.ReplayJournal(nil, path, ckVersion, ckMaxRecordBytes, w)
	if oversized > 0 {
		ckOversized.Add(int64(oversized))
	}
	return records, err
}
