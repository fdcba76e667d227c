package workload

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/obs"
	"capscale/internal/sim"
	"capscale/internal/task"
	"capscale/internal/trace"
)

// Run memoization: the simulator is deterministic, so a cell's Run is
// a pure function of the machine and the cell coordinates plus the
// measurement settings. The bench harness and the CLIs repeatedly
// execute identical cells (epscale renders four tables from one
// matrix, powertrace re-runs the smoke matrix per invocation in tests,
// benchmarks iterate); memoizing the Run makes every repeat nearly
// free. The cache holds private deep copies — callers can mutate what
// they get back without poisoning later hits.
//
// The cache is an instance (RunCache) the embedder owns: a sweep
// memoizes through the cache its configuration names (Config.Cache),
// and through none when that is nil. There is no process default, so
// nothing acts at a distance: a long-running server gives its
// concurrent sweeps one coherent cache whose cap and lifetime it
// owns, and a test (or a second embedded pipeline) builds its own.
//
// Each cache is also a single-flight group: when two concurrent
// sweeps reach the same not-yet-cached cell, one simulates it and the
// other waits for that result instead of duplicating the work. The
// dedup counter counts the waits.
//
// A cache is bounded: at most cap entries, evicted in insertion
// (FIFO) order. An unbounded cache of deep-copied Runs — with full
// traces when RecordTraces is set — grows without limit under a long
// sweep over many machines/intervals, which is exactly the workload a
// bench loop (or a sweep server) produces. Hits, misses, evictions
// and single-flight waits are visible in the obs metrics registry.

// DefaultRunCacheCap is the default bound on memoized cells. The full
// paper matrix is 48 cells; 256 leaves room for several machines and
// measurement settings while capping worst-case (traced) memory at a
// few hundred MB.
const DefaultRunCacheCap = 256

var (
	cacheHits      = obs.GetCounter("workload.cache.hits")
	cacheMisses    = obs.GetCounter("workload.cache.misses")
	cacheEvictions = obs.GetCounter("workload.cache.evictions")
	cacheDedups    = obs.GetCounter("workload.cache.singleflight")
	cacheSize      = obs.GetGauge("workload.cache.size")
)

// RunCache memoizes executed cells with FIFO eviction and
// single-flight deduplication of concurrent computes. Safe for
// concurrent use; the zero value is not usable — construct with
// NewRunCache.
type RunCache struct {
	mu       sync.Mutex
	entries  map[runKey]*Run
	order    []runKey // insertion order; evictions pop the front
	cap      int
	inflight map[runKey]*inflightRun
}

// inflightRun is a cell some goroutine is currently computing. done is
// closed when run is final; run stays nil when the compute panicked,
// and waiters fall back to computing for themselves.
type inflightRun struct {
	done chan struct{}
	run  *Run
}

// NewRunCache returns a cache bounded to at most cap entries. A
// non-positive cap disables storing (lookups always miss, computes
// still single-flight).
func NewRunCache(cap int) *RunCache {
	return &RunCache{
		entries:  make(map[runKey]*Run),
		cap:      cap,
		inflight: make(map[runKey]*inflightRun),
	}
}

// runKey identifies one memoizable cell. Machines are folded to a
// fingerprint hash of every model-relevant field, so two distinct
// *hw.Machine values describing the same platform share entries while
// any coefficient tweak misses.
type runKey struct {
	machine           uint64
	alg               Algorithm
	n                 int
	threads           int
	cluster           uint64 // cluster-spec fingerprint; 0 = single-node
	disableAffinity   bool
	disableContention bool
	pollInterval      float64
	recordTraces      bool
	traceInterval     float64
	recordSchedule    bool
}

// sweepCache is one sweep's view of its run cache: the cache, and the
// machine fingerprint every key of the sweep shares, hashed once per
// sweep instead of once per cell.
type sweepCache struct {
	rc      *RunCache
	machine uint64
}

// sweepCache returns the cache cells of cfg memoize through, or nil
// when they bypass memoization: no Cache, NoCache, or an armed fault
// schedule.
func (cfg *Config) sweepCache() *sweepCache {
	if cfg.Cache == nil || cfg.NoCache || cfg.Faults != nil {
		return nil
	}
	return &sweepCache{rc: cfg.Cache, machine: machineFingerprint(cfg.Machine)}
}

// key derives the memoization key for one cell under cfg. The poll
// interval is normalized (unset selects DefaultPollInterval) so
// explicit and defaulted configurations share entries.
func (sc *sweepCache) key(cfg *Config, c cell) runKey {
	key := runKey{
		machine:           sc.machine,
		alg:               c.alg,
		n:                 c.n,
		threads:           c.threads,
		disableAffinity:   cfg.DisableAffinity,
		disableContention: cfg.DisableContention,
		pollInterval:      cfg.pollInterval(),
		recordTraces:      cfg.RecordTraces,
		traceInterval:     cfg.TraceSampleInterval,
		recordSchedule:    cfg.RecordSchedule,
	}
	if cs := cfg.clusterOf(c); cs != nil {
		key.cluster = clusterFingerprint(cs)
	}
	return key
}

// clusterFingerprint hashes every field of a cluster spec that feeds
// the distributed cost or power model.
func clusterFingerprint(cs *cluster.Spec) uint64 {
	h := fnv.New64a()
	cc := cs.Comms
	fmt.Fprintf(h, "%d|%g|%s|%g|%g|%g|%g|%g|%d|%d|%g|%g|%g",
		cs.Nodes, cs.MemPerNode, cc.Name,
		cc.LinkLatencySec, cc.LinkBandwidth, cc.LinkEfficiency,
		cc.PerMessageOverheadSec, cc.SwitchLatencySec, cc.SwitchTiers,
		int(cc.Allreduce), cc.NICIdleWatts, cc.NICPerGBs, cc.SwitchIdleWattsTier)
	return h.Sum64()
}

// Do returns the memoized run for key, waiting on a concurrent
// compute of the same key when one is in flight, and calling compute
// (then storing the result) otherwise — each key is computed at most
// once across concurrent callers. The returned Run is always a
// private copy.
func (rc *RunCache) Do(key runKey, compute func() Run) Run {
	rc.mu.Lock()
	if r, ok := rc.entries[key]; ok {
		rc.mu.Unlock()
		cacheHits.Inc()
		// Cached *Run values are immutable once stored, so cloning
		// outside the critical section is safe even if the entry is
		// evicted concurrently.
		return cloneRun(r)
	}
	if fl, ok := rc.inflight[key]; ok {
		rc.mu.Unlock()
		<-fl.done
		if fl.run != nil {
			cacheDedups.Inc()
			return cloneRun(fl.run)
		}
		// The leader panicked; its waiters compute for themselves
		// rather than propagating a failure that was not theirs.
		return compute()
	}
	fl := &inflightRun{done: make(chan struct{})}
	rc.inflight[key] = fl
	rc.mu.Unlock()
	cacheMisses.Inc()

	defer func() {
		rc.mu.Lock()
		delete(rc.inflight, key)
		rc.mu.Unlock()
		close(fl.done)
	}()
	run := compute()
	stored := cloneRun(&run)
	fl.run = &stored
	rc.store(key, &stored)
	return run
}

// load returns a private copy of the memoized run for key, counting a
// hit. A miss is not counted: the caller goes on to Do, which counts
// it, or waits for a concurrent compute of the key.
func (rc *RunCache) load(key runKey) (Run, bool) {
	rc.mu.Lock()
	r, ok := rc.entries[key]
	rc.mu.Unlock()
	if !ok {
		return Run{}, false
	}
	cacheHits.Inc()
	return cloneRun(r), true
}

// store memoizes run (which must already be a private deep copy),
// evicting the oldest entry once the cap is reached. A non-positive
// cap disables storing entirely.
func (rc *RunCache) store(key runKey, run *Run) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.cap <= 0 {
		return
	}
	if _, exists := rc.entries[key]; exists {
		// Deterministic simulator: a concurrent sweep re-simulated the
		// same cell; keep the existing entry and its age.
		return
	}
	if len(rc.order) == rc.cap {
		delete(rc.entries, rc.order[0])
		rc.order = rc.order[1:]
		cacheEvictions.Inc()
	}
	rc.entries[key] = run
	rc.order = append(rc.order, key)
	cacheSize.Set(int64(len(rc.entries)))
}

// Len counts cached cells.
func (rc *RunCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.entries)
}

// machineFingerprint hashes every field of the machine that feeds the
// cost or power model. The KernelEff map is folded in sorted-kind
// order so the hash is independent of map iteration order.
func machineFingerprint(m *hw.Machine) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%g|%g|", m.Name, m.Cores, m.FreqHz, m.FlopsPerCycle)
	for _, c := range [3]hw.Cache{m.L1, m.L2, m.L3} {
		fmt.Fprintf(h, "%d:%d|", c.SizeBytes, c.LineBytes)
	}
	fmt.Fprintf(h, "%g|%g|%g|%g|",
		m.L3Bandwidth, m.DRAMBandwidth, m.DRAMStreamBandwidth, m.RemoteBandwidth)
	kinds := make([]task.Kind, 0, len(m.KernelEff))
	for k := range m.KernelEff {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(h, "%d=%g|", int(k), m.KernelEff[k])
	}
	fmt.Fprintf(h, "%g|%g|", m.TaskOverhead, m.StealOverhead)
	p := m.Power
	fmt.Fprintf(h, "%g|%g|%g|%g|%g|%g",
		p.PkgIdle, p.CoreIdle, p.CoreDyn, p.L3PerGBs, p.DRAMIdle, p.DRAMPerGBs)
	return h.Sum64()
}

// cloneRun deep-copies a Run: the BusyByKind map, the Trace and the
// Schedule are the only shared-reference fields.
func cloneRun(r *Run) Run {
	out := *r
	if r.BusyByKind != nil {
		out.BusyByKind = make(map[string]float64, len(r.BusyByKind))
		for k, v := range r.BusyByKind {
			out.BusyByKind[k] = v
		}
	}
	if r.Trace != nil {
		out.Trace = &trace.Trace{
			Samples: append([]trace.Sample(nil), r.Trace.Samples...),
			End:     r.Trace.End,
		}
	}
	if r.Schedule != nil {
		out.Schedule = append([]sim.LeafSpan(nil), r.Schedule...)
	}
	return out
}
