package workload

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capscale/internal/obs"
)

// TestRunCacheIsBounded pins the memory fix: with a cap of 2, sweeping
// more than 2 distinct cells must evict oldest entries instead of
// growing without limit, and the eviction counter must advance.
func TestRunCacheIsBounded(t *testing.T) {
	rc := NewRunCache(2)

	evicted0 := obs.GetCounter("workload.cache.evictions").Value()
	cfg := SmokeConfig()
	cfg.Cache = rc
	for _, n := range []int{64, 128, 256} {
		ExecuteOne(cfg, AlgOpenBLAS, n, 1)
	}
	if got := rc.Len(); got != 2 {
		t.Fatalf("cache holds %d entries under cap 2", got)
	}
	evictions := obs.GetCounter("workload.cache.evictions").Value() - evicted0
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}

	// FIFO: the oldest cell (n=64) was evicted, the newer two remain.
	hits0 := obs.GetCounter("workload.cache.hits").Value()
	ExecuteOne(cfg, AlgOpenBLAS, 128, 1)
	ExecuteOne(cfg, AlgOpenBLAS, 256, 1)
	if hits := obs.GetCounter("workload.cache.hits").Value() - hits0; hits != 2 {
		t.Fatalf("remaining entries did not hit (hits=%d, want 2)", hits)
	}
	misses0 := obs.GetCounter("workload.cache.misses").Value()
	ExecuteOne(cfg, AlgOpenBLAS, 64, 1)
	if misses := obs.GetCounter("workload.cache.misses").Value() - misses0; misses != 1 {
		t.Fatalf("evicted entry hit the cache (misses=%d, want 1)", misses)
	}
}

// TestRunCacheDisabledByNonPositiveCap: cap 0 stores nothing.
func TestRunCacheDisabledByNonPositiveCap(t *testing.T) {
	rc := NewRunCache(0)

	cfg := SmokeConfig()
	cfg.Cache = rc
	ExecuteOne(cfg, AlgOpenBLAS, 64, 1)
	if got := rc.Len(); got != 0 {
		t.Fatalf("cap 0 cached %d entries", got)
	}
}

// TestRunCacheCountsHitsAndMisses: the registry sees exactly one miss
// for the first execution and one hit for the repeat.
func TestRunCacheCountsHitsAndMisses(t *testing.T) {
	cfg := SmokeConfig()
	cfg.Cache = NewRunCache(DefaultRunCacheCap)
	hits0 := obs.GetCounter("workload.cache.hits").Value()
	misses0 := obs.GetCounter("workload.cache.misses").Value()
	ExecuteOne(cfg, AlgOpenBLAS, 64, 1)
	ExecuteOne(cfg, AlgOpenBLAS, 64, 1)
	if d := obs.GetCounter("workload.cache.misses").Value() - misses0; d != 1 {
		t.Fatalf("misses +%d, want +1", d)
	}
	if d := obs.GetCounter("workload.cache.hits").Value() - hits0; d != 1 {
		t.Fatalf("hits +%d, want +1", d)
	}
}

// TestRunCacheInstancesAreIndependent: a sweep with its own
// Config.Cache must not populate (or be served by) another instance —
// the semantic isolation a long-running server needs.
func TestRunCacheInstancesAreIndependent(t *testing.T) {
	other := NewRunCache(DefaultRunCacheCap)

	own := NewRunCache(DefaultRunCacheCap)
	cfg := SmokeConfig()
	cfg.Cache = own
	ExecuteOne(cfg, AlgOpenBLAS, 64, 1)
	if got := own.Len(); got != 1 {
		t.Fatalf("instance cache holds %d entries, want 1", got)
	}
	if got := other.Len(); got != 0 {
		t.Fatalf("other cache holds %d entries after instance-scoped run", got)
	}
}

// TestRunCacheSingleFlight: concurrent Do calls on one key compute it
// exactly once; every other caller waits for that result.
func TestRunCacheSingleFlight(t *testing.T) {
	rc := NewRunCache(8)
	key := runKey{n: 64, threads: 1}
	var computes int32
	gate := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	results := make([]Run, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = rc.Do(key, func() Run {
				atomic.AddInt32(&computes, 1)
				<-gate // hold every concurrent caller in the wait path
				return Run{N: 64, Threads: 1, Seconds: 1.5}
			})
		}(i)
	}
	// Let the followers pile up on the leader before releasing it.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("key computed %d times under concurrent Do, want 1", computes)
	}
	for i := range results {
		if results[i].Seconds != 1.5 {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
	}
}

// TestRunCacheSingleFlightLeaderPanic: a panicking compute must not
// wedge its waiters — they recompute for themselves.
func TestRunCacheSingleFlightLeaderPanic(t *testing.T) {
	rc := NewRunCache(8)
	key := runKey{n: 128}
	entered := make(chan struct{})
	done := make(chan Run, 1)
	go func() {
		defer func() { recover() }()
		rc.Do(key, func() Run {
			close(entered)
			time.Sleep(10 * time.Millisecond)
			panic("injected")
		})
	}()
	<-entered
	go func() {
		done <- rc.Do(key, func() Run { return Run{N: 128, Seconds: 2} })
	}()
	select {
	case r := <-done:
		if r.Seconds != 2 {
			t.Fatalf("waiter got %+v after leader panic", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged after leader panic")
	}
}

// TestConcurrentExecuteCacheChurnAndMetricsRace drives concurrent
// Execute sweeps through a cap-1 cache, so every store evicts, against
// registry reads — the observability layer itself must be race-free.
// It runs under -race in scripts/race.sh.
func TestConcurrentExecuteCacheChurnAndMetricsRace(t *testing.T) {
	defer obs.Disable()
	col := obs.Enable()

	cfg := SmokeConfig()
	cfg.Cache = NewRunCache(1)
	cfg.Sizes = []int{64, 128}
	cfg.Threads = []int{1, 2}
	cfg.Algorithms = []Algorithm{AlgOpenBLAS}
	cfg.Parallelism = 2

	const iters = 20
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				Execute(cfg)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			obs.Metrics()
			col.Spans()
			col.TrackNames()
		}
	}()
	wg.Wait()

	// The sweeps must still be deterministic under all that churn.
	a := Execute(cfg)
	b := Execute(cfg)
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Fatal("concurrent churn broke sweep determinism")
	}
	if got := cfg.Cache.Len(); got != 1 {
		t.Fatalf("cap-1 cache holds %d entries", got)
	}
}
