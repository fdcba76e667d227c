package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable wall clock: lease expiry is driven by
// explicit Advance calls, so steal/fence tests never sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestAcquireLeaseExclusive: N goroutines race for one lease; exactly
// one wins, the rest observe the winner's claim via *HeldError.
func TestAcquireLeaseExclusive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl.lease")
	const racers = 8
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		won  []*Lease
		held int
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := AcquireLease(nil, path, fmt.Sprintf("racer-%d", i), time.Minute, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				won = append(won, l)
			case errors.Is(err, ErrLeaseHeld):
				held++
			default:
				t.Errorf("racer %d: unexpected error: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if len(won) != 1 {
		t.Fatalf("want exactly 1 winner, got %d (%d held)", len(won), held)
	}
	if held != racers-1 {
		t.Fatalf("want %d losers with ErrLeaseHeld, got %d", racers-1, held)
	}
	if got := won[0].Epoch(); got != 1 {
		t.Fatalf("first claim epoch = %d, want 1", got)
	}
	if err := won[0].Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("lease file still present after release (stat err %v)", err)
	}
}

// TestLeaseExpirySteal: an expired claim is stolen with an epoch bump,
// and every subsequent fence by the old holder fails — the zombie is
// refused before it can write.
func TestLeaseExpirySteal(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "sweep.jsonl.lease")
	a, err := AcquireLease(nil, path, "replica-a", time.Second, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AcquireLease(nil, path, "replica-b", time.Second, clk.Now); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("live claim not held against second acquirer: %v", err)
	}
	var holder *HeldError
	if _, err := AcquireLease(nil, path, "replica-b", time.Second, clk.Now); !errors.As(err, &holder) || holder.Info.Owner != "replica-a" {
		t.Fatalf("HeldError does not name the holder: %v", err)
	}

	clk.Advance(2 * time.Second) // past replica-a's expiry
	b, err := AcquireLease(nil, path, "replica-b", time.Second, clk.Now)
	if err != nil {
		t.Fatalf("steal of expired claim failed: %v", err)
	}
	if b.Epoch() != a.Epoch()+1 {
		t.Fatalf("steal epoch = %d, want %d", b.Epoch(), a.Epoch()+1)
	}

	// The zombie: its in-memory expiry has passed, so Fence re-verifies
	// on disk, sees the bumped epoch, and refuses.
	if err := a.Fence(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie Fence = %v, want ErrLeaseLost", err)
	}
	if err := a.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie Renew = %v, want ErrLeaseLost", err)
	}
	if !a.Lost() {
		t.Fatal("zombie lease does not report Lost")
	}
	// A lost lease's Release must not remove the new owner's claim.
	if err := a.Release(); err != nil {
		t.Fatalf("zombie release: %v", err)
	}
	if info, live := ReadLeaseInfo(nil, path, clk.Now()); !live || info.Owner != "replica-b" {
		t.Fatalf("replica-b's claim damaged by zombie release: %+v live=%v", info, live)
	}
}

// TestLeaseRenewUnderLoad: concurrent fencing while the claim is
// renewed around its expiry never loses a lease that nobody contests.
func TestLeaseRenewUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl.lease")
	l, err := AcquireLease(nil, path, "replica-a", 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := l.Fence(); err != nil {
					t.Errorf("Fence under load: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if l.Lost() {
		t.Fatal("uncontested lease lost under renewal load")
	}
	if err := l.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// TestLeaseDeadOwnerFastSteal: a same-host claim whose PID verifiably
// no longer exists is stolen immediately, without waiting out the TTL.
func TestLeaseDeadOwnerFastSteal(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "sweep.jsonl.lease")
	// Hand-write a claim naming a dead process: far-future expiry, so
	// only the liveness probe can free it.
	dead := LeaseInfo{
		Owner:   "crashed-replica",
		Host:    hostID,
		PID:     findDeadPID(t),
		Epoch:   7,
		Expires: clk.Now().Add(time.Hour).UnixNano(),
	}
	raw, err := json.Marshal(dead)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, live := ReadLeaseInfo(nil, path, clk.Now()); live {
		t.Fatal("dead owner's claim reported live")
	}
	l, err := AcquireLease(nil, path, "survivor", time.Minute, clk.Now)
	if err != nil {
		t.Fatalf("fast steal of dead owner's claim failed: %v", err)
	}
	if l.Epoch() != dead.Epoch+1 {
		t.Fatalf("steal epoch = %d, want %d", l.Epoch(), dead.Epoch+1)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}

// findDeadPID returns a PID with no live process behind it.
func findDeadPID(t *testing.T) int {
	t.Helper()
	for pid := 1 << 21; pid > 1<<20; pid-- {
		if ownerDead(LeaseInfo{Host: hostID, PID: pid}) {
			return pid
		}
	}
	t.Skip("no verifiably dead PID found")
	return 0
}

// TestLeaseTornFileIsNoClaim: a half-written lease file (crash during
// a non-atomic writer) counts as no claim rather than blocking the
// journal forever.
func TestLeaseTornFileIsNoClaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl.lease")
	if err := os.WriteFile(path, []byte(`{"owner":"repl`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, live := ReadLeaseInfo(nil, path, time.Now()); live {
		t.Fatal("torn lease file reported as a live claim")
	}
	l, err := AcquireLease(nil, path, "replica-a", time.Minute, nil)
	if err != nil {
		t.Fatalf("acquire over torn lease file: %v", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestZombieJournalAppendFenced: the end-to-end fencing property — a
// journal held under a stolen lease refuses appends, and the records
// on disk afterwards are exactly the ones written under valid claims.
func TestZombieJournalAppendFenced(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sweep.jsonl")
	lpath := LeasePath(jpath)

	a, err := AcquireLease(nil, lpath, "replica-a", time.Second, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	header := []byte(`{"version":1,"fingerprint":"0123456789abcdef"}`)
	j, err := CreateJournal(nil, jpath, header, nil, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"key":"cell-1"}`)); err != nil {
		t.Fatalf("append under live lease: %v", err)
	}

	clk.Advance(2 * time.Second)
	if _, err := AcquireLease(nil, lpath, "replica-b", time.Minute, clk.Now); err != nil {
		t.Fatalf("takeover acquire: %v", err)
	}

	if err := j.Append([]byte(`{"key":"cell-2"}`)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie append = %v, want ErrLeaseLost", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := ScanJournal(nil, jpath, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Clean() || len(sc.Records) != 1 || string(sc.Records[0]) != `{"key":"cell-1"}` {
		t.Fatalf("journal after fenced zombie: clean=%v records=%q", sc.Clean(), sc.Records)
	}
}
