package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"capscale/internal/faults"
	"capscale/internal/store"
)

// filesystems are the two a lease runs on, each with the directory its
// claim files go in: the real one, and the fault filesystem.
var filesystems = map[string]func(t *testing.T) (store.FS, string){
	"os": func(t *testing.T) (store.FS, string) { return store.OS(), t.TempDir() },
	"faultfs": func(*testing.T) (store.FS, string) {
		return faults.NewFaultFS(faults.FSProfile{}, 1), "/store"
	},
}

// slowSyncFS is a filesystem whose first fsync through it is held for
// 1.5 s before it runs, the way a stalled disk holds a claim rewrite:
// long enough that a lock broken after a second of waiting shows.
type slowSyncFS struct {
	store.FS
	holding chan struct{} // closed when the held fsync starts
	once    sync.Once
}

func (f *slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: file, fs: f}, nil
}

type slowSyncFile struct {
	store.File
	fs *slowSyncFS
}

func (s *slowSyncFile) Sync() error {
	s.fs.once.Do(func() {
		close(s.fs.holding)
		time.Sleep(1500 * time.Millisecond)
	})
	return s.File.Sync()
}

// TestLeaseLockNotBrokenUnderLiveHolder: two replicas steal one
// expired claim, and the first one's claim fsync stalls for 1.5 s.
// The second waits out the live holder instead of breaking its lock:
// exactly one steal succeeds, at the old epoch + 1, the other is
// refused with the winner's claim, and the file ends holding that
// claim. On the real filesystem and on the fault filesystem alike.
func TestLeaseLockNotBrokenUnderLiveHolder(t *testing.T) {
	for name, newFS := range filesystems {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fsys, dir := newFS(t)
			path := filepath.Join(dir, "sweep.jsonl.lease")
			var clock sync.Mutex
			now := time.Unix(1_000_000, 0)
			clk := func() time.Time {
				clock.Lock()
				defer clock.Unlock()
				return now
			}
			old, err := store.AcquireLease(fsys, path, "expired", time.Second, clk)
			if err != nil {
				t.Fatal(err)
			}
			clock.Lock()
			now = now.Add(2 * time.Second) // past the claim's expiry
			clock.Unlock()

			slow := &slowSyncFS{FS: fsys, holding: make(chan struct{})}
			type result struct {
				lease *store.Lease
				err   error
			}
			first, second := make(chan result, 1), make(chan result, 1)
			go func() {
				l, err := store.AcquireLease(slow, path, "stealer-1", time.Minute, clk)
				first <- result{l, err}
			}()
			select {
			case <-slow.holding:
			case r := <-first:
				t.Fatalf("the first steal returned without an fsync: %+v", r)
			}
			go func() {
				l, err := store.AcquireLease(fsys, path, "stealer-2", time.Minute, clk)
				second <- result{l, err}
			}()
			r1, r2 := <-first, <-second

			want := old.Epoch() + 1
			if r1.err != nil || r1.lease.Epoch() != want {
				t.Fatalf("first stealer: err %v, want a lease at epoch %d", r1.err, want)
			}
			var held *store.HeldError
			if !errors.As(r2.err, &held) {
				t.Fatalf("second stealer: err %v, want *HeldError: it took the lease while the first held the lock", r2.err)
			}
			if held.Info.Owner != "stealer-1" || held.Info.Epoch != want {
				t.Fatalf("second stealer refused with claim %+v, want stealer-1's at epoch %d", held.Info, want)
			}
			if info, live := store.ReadLeaseInfo(fsys, path, clk()); !live || info.Owner != "stealer-1" || info.Epoch != want {
				t.Fatalf("the file holds %+v (live %v), want stealer-1's claim at epoch %d", info, live, want)
			}
		})
	}
}

// TestLeaseRenewWriteFailureLosesLease: a renewal whose claim write
// fails, here on a full disk, leaves the claim empty or torn, which
// other replicas read as no claim. So the holder loses the lease at
// once: Renew reports ErrLeaseLost, and Fence fails although the
// in-memory expiry still has the whole TTL to run.
func TestLeaseRenewWriteFailureLosesLease(t *testing.T) {
	const path = "/store/sweep.jsonl.lease"
	now := time.Unix(1_000_000, 0)
	clk := func() time.Time { return now }
	// The acquire's claim length, so that the disk has room for the
	// acquire's write and for at most `room` bytes of the renew's.
	probe := faults.NewFaultFS(faults.FSProfile{}, 1)
	if _, err := store.AcquireLease(probe, path, "holder", time.Minute, clk); err != nil {
		t.Fatal(err)
	}
	claim, err := probe.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, room := range map[string]int64{"empty": 0, "torn": 10} {
		t.Run(name, func(t *testing.T) {
			fsys := faults.NewFaultFS(faults.FSProfile{ENOSPCBytes: claim.Size() + room}, 1)
			l, err := store.AcquireLease(fsys, path, "holder", time.Minute, clk)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Renew(); !errors.Is(err, store.ErrLeaseLost) {
				t.Fatalf("Renew on a full disk = %v, want ErrLeaseLost", err)
			}
			if err := l.Fence(); !errors.Is(err, store.ErrLeaseLost) {
				t.Fatalf("Fence after the failed renew = %v, want ErrLeaseLost at once", err)
			}
			if info, live := store.ReadLeaseInfo(fsys, path, clk()); live {
				t.Fatalf("the failed renew left a live claim %+v; this test expects it erased", info)
			}
		})
	}
}

// TestReadLeaseInfoCountsAStuckHolderLive: a holder stuck inside a
// claim rewrite keeps the claim file's lock past a reader's 5 s wait.
// The reader reports the claim live, even one whose old bytes have
// expired, so a replica follows the holder instead of trying to take
// the lease from it.
func TestReadLeaseInfoCountsAStuckHolderLive(t *testing.T) {
	for name, newFS := range filesystems {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fsys, dir := newFS(t)
			path := filepath.Join(dir, "sweep.jsonl.lease")
			past := func() time.Time { return time.Unix(1_000_000, 0) }
			if _, err := store.AcquireLease(fsys, path, "expired", time.Second, past); err != nil {
				t.Fatal(err)
			}
			stuck, err := fsys.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = stuck.Close() }()
			if ok, err := stuck.TryLock(true); !ok || err != nil {
				t.Fatalf("TryLock = %v, %v", ok, err)
			}
			if _, live := store.ReadLeaseInfo(fsys, path, time.Now()); !live {
				t.Fatal("a claim whose lock stayed held past the wait reads as not live")
			}
		})
	}
}
