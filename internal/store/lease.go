package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"capscale/internal/obs"
)

// DefaultLeaseTTL is how long a claim stays valid without renewal.
// Executors renew at TTL/3, so three consecutive missed renewals (a
// hung or dead replica) free the sweep for takeover.
const DefaultLeaseTTL = 5 * time.Second

// ErrLeaseHeld is returned (wrapped in *HeldError) when another live
// owner holds the lease.
var ErrLeaseHeld = errors.New("store: lease held by another owner")

// ErrLeaseLost is returned by Fence/Renew once the lease has expired
// or been stolen: the holder is now a zombie and must stop writing.
var ErrLeaseLost = errors.New("store: lease lost")

// LeaseInfo is the on-disk claim record. Epoch increases monotonically
// across ownership changes (acquire and steal bump it, renew does
// not), which is what fences a zombie's late writes: the zombie's
// in-memory epoch no longer matches the file.
type LeaseInfo struct {
	Owner   string `json:"owner"`
	Host    string `json:"host,omitempty"`
	PID     int    `json:"pid,omitempty"`
	Epoch   uint64 `json:"epoch"`
	Expires int64  `json:"expires_unix_nano"`
}

// HeldError reports a failed acquire with the live holder's claim.
type HeldError struct {
	Path string
	Info LeaseInfo
}

func (e *HeldError) Error() string {
	return fmt.Sprintf("store: lease %s held by %q (epoch %d)", e.Path, e.Info.Owner, e.Info.Epoch)
}

func (e *HeldError) Unwrap() error { return ErrLeaseHeld }

// LeasePath is the claim file guarding a journal.
func LeasePath(journalPath string) string { return journalPath + ".lease" }

var (
	leaseAcquired = obs.GetCounter("store.lease.acquired")
	leaseStolen   = obs.GetCounter("store.lease.stolen")
	leaseHeld     = obs.GetCounter("store.lease.held")
	leaseRenewed  = obs.GetCounter("store.lease.renewed")
	leaseLost     = obs.GetCounter("store.lease.lost")
)

// Lease is a held claim. All methods are safe for concurrent use; the
// journal calls Fence from the append path while a background
// goroutine calls Renew.
type Lease struct {
	fsys  FS
	path  string
	now   func() time.Time
	mu    sync.Mutex
	info  LeaseInfo
	ttl   time.Duration
	lost  bool
	freed bool
}

// hostID tags leases so liveness probing (kill(pid, 0)) is only
// attempted against processes on the same machine.
var hostID = func() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown-host"
	}
	return h
}()

// ownerDead reports whether a claim verifiably belongs to a process on
// this host that no longer exists. That lets a surviving replica steal
// a kill -9'd neighbour's lease immediately instead of waiting out the
// TTL; cross-host claims always wait for expiry.
func ownerDead(info LeaseInfo) bool {
	if info.Host != hostID || info.PID <= 0 || info.PID == os.Getpid() {
		return false
	}
	return syscall.Kill(info.PID, 0) == syscall.ESRCH
}

// AcquireLease claims the lease at path for owner, stealing expired or
// verifiably dead claims with an epoch bump. A live claim by someone
// else returns *HeldError. now==nil uses the wall clock (tests inject
// a fake clock to drive expiry deterministically).
func AcquireLease(fsys FS, path, owner string, ttl time.Duration, now func() time.Time) (*Lease, error) {
	fsys = Resolve(fsys)
	if now == nil {
		now = time.Now
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	var l *Lease
	err := withClaim(fsys, path, os.O_RDWR|os.O_CREATE, func(f File, prev LeaseInfo, exists bool) error {
		t := now()
		if exists && prev.Expires > t.UnixNano() && !ownerDead(prev) {
			leaseHeld.Inc()
			return &HeldError{Path: path, Info: prev}
		}
		info := LeaseInfo{
			Owner:   owner,
			Host:    hostID,
			PID:     os.Getpid(),
			Epoch:   prev.Epoch + 1,
			Expires: t.Add(ttl).UnixNano(),
		}
		if err := rewriteClaim(f, info); err != nil {
			return err
		}
		if exists {
			leaseStolen.Inc()
		} else {
			leaseAcquired.Inc()
		}
		l = &Lease{fsys: fsys, path: path, now: now, info: info, ttl: ttl}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// ReadLeaseInfo reports the current claim and whether it is still
// live at the given time (a dead same-host owner counts as not live).
// It reads under the claim file's shared lock, so it never sees a
// claim halfway through a rewrite. A lock still held when the wait
// times out counts as a live claim by an unknown owner: only a live
// process holds it, and that process is changing the claim, so the
// caller follows instead of racing it for the lease.
func ReadLeaseInfo(fsys FS, path string, at time.Time) (LeaseInfo, bool) {
	var (
		info   LeaseInfo
		exists bool
	)
	err := withClaim(Resolve(fsys), path, os.O_RDONLY, func(_ File, cur LeaseInfo, ok bool) error {
		info, exists = cur, ok
		return nil
	})
	if errors.Is(err, errLockTimeout) {
		return LeaseInfo{}, true
	}
	if err != nil || !exists {
		return LeaseInfo{}, false
	}
	return info, info.Expires > at.UnixNano() && !ownerDead(info)
}

// Renew extends the claim without changing the epoch. It re-reads the
// file first: if the epoch moved (stolen) or the claim expired and was
// removed, the lease is lost. A Renew that fails for any other reason
// loses the lease too: a rewrite that fails part-way may leave the
// claim empty or torn, which other replicas read as no claim, and an
// unverified claim must not keep writes going beside a new owner.
// Either way every subsequent Fence fails at once.
func (l *Lease) Renew() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.freed || l.lost {
		return ErrLeaseLost
	}
	err := withClaim(l.fsys, l.path, os.O_RDWR, func(f File, cur LeaseInfo, exists bool) error {
		if !exists || cur.Epoch != l.info.Epoch || cur.Owner != l.info.Owner {
			return fmt.Errorf("%w: epoch %d superseded by %d (owner %q)",
				ErrLeaseLost, l.info.Epoch, cur.Epoch, cur.Owner)
		}
		info := l.info
		info.Expires = l.now().Add(l.ttl).UnixNano()
		if err := rewriteClaim(f, info); err != nil {
			return err
		}
		l.info = info
		return nil
	})
	if err != nil {
		l.lost = true
		leaseLost.Inc()
		if !errors.Is(err, ErrLeaseLost) {
			err = fmt.Errorf("%w: %v", ErrLeaseLost, err)
		}
		return err
	}
	leaseRenewed.Inc()
	return nil
}

// Fence guards a write: it fails with ErrLeaseLost once the claim has
// been stolen or has lapsed, or a renewal has failed. While more than
// half the TTL remains the in-memory expiry is trusted (no I/O on the
// append fast path); inside that window Fence renews, which
// re-verifies the epoch on disk.
func (l *Lease) Fence() error {
	l.mu.Lock()
	if l.lost || l.freed {
		l.mu.Unlock()
		return ErrLeaseLost
	}
	remaining := time.Duration(l.info.Expires - l.now().UnixNano())
	l.mu.Unlock()
	if remaining > l.ttl/2 {
		return nil
	}
	return l.Renew()
}

// Lost reports whether the lease has been observed lost.
func (l *Lease) Lost() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lost || l.freed
}

// Epoch returns the claim's epoch.
func (l *Lease) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.info.Epoch
}

// Owner returns the claim's owner ID.
func (l *Lease) Owner() string { return l.info.Owner }

// TTL returns the claim's time-to-live between renewals.
func (l *Lease) TTL() time.Duration { return l.ttl }

// Release removes the claim file if this lease still owns it, freeing
// the journal for the next acquirer without waiting out the TTL. The
// file goes while Release holds its lock, so an operation waiting on
// that lock finds the path no longer names the file it locked.
func (l *Lease) Release() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.freed {
		return nil
	}
	l.freed = true
	if l.lost {
		return nil // stolen: the file belongs to the new owner now
	}
	return withClaim(l.fsys, l.path, os.O_RDWR, func(_ File, cur LeaseInfo, exists bool) error {
		if !exists || cur.Epoch != l.info.Epoch || cur.Owner != l.info.Owner {
			return nil
		}
		return l.fsys.Remove(l.path)
	})
}

// --- on-disk plumbing ---

// The claim file is its own lock: every operation holds its advisory
// lock (File.TryLock) from reading the claim to writing it back, so
// two stealers racing an expired claim cannot both write epoch+1. A
// lock is never broken: the real filesystem drops a dead holder's
// flock with its process, and a live holder keeps it only for one
// rewrite. An operation that cannot take it polls every
// leaseLockPoll and gives up after leaseLockTimeout.
const (
	leaseLockPoll    = time.Millisecond
	leaseLockTimeout = 5 * time.Second
)

// errLockTimeout ends a wait for the claim file's lock that outlasted
// leaseLockTimeout.
var errLockTimeout = errors.New("timed out")

// withClaim opens the claim file at path with flag, locks it
// (lockClaim), reads its claim and runs fn on the file and the claim,
// then closes the file, which drops the lock. O_CREATE is the one
// create a claim costs; without it a missing file is no claim, and fn
// gets a nil File. Bytes that do not parse as a claim, such as the
// empty or torn file a crash mid-rewrite leaves, are no claim either.
func withClaim(fsys FS, path string, flag int, fn func(f File, cur LeaseInfo, exists bool) error) error {
	f, err := lockClaim(fsys, path, flag)
	if errors.Is(err, os.ErrNotExist) && flag&os.O_CREATE == 0 {
		return fn(nil, LeaseInfo{}, false)
	}
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(f)
	if err == nil {
		var cur LeaseInfo
		exists := json.Unmarshal(raw, &cur) == nil
		if !exists {
			cur = LeaseInfo{}
		}
		err = fn(f, cur, exists)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// lockClaim opens the claim file at path with flag and takes its lock,
// exclusive when the file is open for writing and shared when it is
// read-only, waiting for other holders. Once locked, the path must
// still name the locked file: a Release that removed it meanwhile
// leaves the lock on an unlinked file, so the open is retried. That
// check needs an FS that reports file identity (sameFile).
func lockClaim(fsys FS, path string, flag int) (File, error) {
	exclusive := flag&(os.O_WRONLY|os.O_RDWR) != 0
	deadline := time.Now().Add(leaseLockTimeout)
	for {
		f, err := fsys.OpenFile(path, flag, 0o644)
		if err != nil {
			return nil, err
		}
		locked, err := f.TryLock(exclusive)
		if err == nil && locked {
			var named bool
			if named, err = namesFile(fsys, path, f); err == nil && named {
				return f, nil
			}
		}
		_ = f.Close() // nothing written; closing drops any lock taken
		if err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("store: lease lock %s: %w", path, errLockTimeout)
		}
		if !locked {
			time.Sleep(leaseLockPoll)
		}
	}
}

// namesFile reports whether path still names the open file f.
func namesFile(fsys FS, path string, f File) (bool, error) {
	at, err := fsys.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	held, err := f.Stat()
	if err != nil {
		return false, err
	}
	return sameFile(at, held), nil
}

// rewriteClaim replaces the locked claim file's contents with info in
// place: truncate, write, fsync. Power lost before the fsync returns
// leaves an empty or torn claim, which reads as no claim.
func rewriteClaim(f File, info LeaseInfo) error {
	raw, err := json.Marshal(info)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		return err
	}
	return f.Sync()
}
