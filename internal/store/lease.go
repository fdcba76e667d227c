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
	unlock, err := lockLease(fsys, path)
	if err != nil {
		return nil, err
	}
	defer unlock()

	prev, exists, err := readLease(fsys, path)
	if err != nil {
		return nil, err
	}
	t := now()
	if exists && prev.Expires > t.UnixNano() && !ownerDead(prev) {
		leaseHeld.Inc()
		return nil, &HeldError{Path: path, Info: prev}
	}
	info := LeaseInfo{
		Owner:   owner,
		Host:    hostID,
		PID:     os.Getpid(),
		Epoch:   prev.Epoch + 1,
		Expires: t.Add(ttl).UnixNano(),
	}
	if err := writeLease(fsys, path, info); err != nil {
		return nil, err
	}
	if exists {
		leaseStolen.Inc()
	} else {
		leaseAcquired.Inc()
	}
	return &Lease{fsys: fsys, path: path, now: now, info: info, ttl: ttl}, nil
}

// ReadLeaseInfo reports the current claim and whether it is still
// live at the given time (a dead same-host owner counts as not live).
func ReadLeaseInfo(fsys FS, path string, at time.Time) (LeaseInfo, bool) {
	info, exists, err := readLease(Resolve(fsys), path)
	if err != nil || !exists {
		return LeaseInfo{}, false
	}
	live := info.Expires > at.UnixNano() && !ownerDead(info)
	return info, live
}

// Renew extends the claim without changing the epoch. It re-reads the
// file first: if the epoch moved (stolen) or the claim expired and was
// removed, the lease is lost and every subsequent Fence fails.
func (l *Lease) Renew() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.freed {
		return ErrLeaseLost
	}
	if l.lost {
		return ErrLeaseLost
	}
	unlock, err := lockLease(l.fsys, l.path)
	if err != nil {
		return err
	}
	defer unlock()
	cur, exists, err := readLease(l.fsys, l.path)
	if err != nil {
		return err
	}
	if !exists || cur.Epoch != l.info.Epoch || cur.Owner != l.info.Owner {
		l.lost = true
		leaseLost.Inc()
		return fmt.Errorf("%w: epoch %d superseded by %d (owner %q)",
			ErrLeaseLost, l.info.Epoch, cur.Epoch, cur.Owner)
	}
	l.info.Expires = l.now().Add(l.ttl).UnixNano()
	if err := writeLease(l.fsys, l.path, l.info); err != nil {
		return err
	}
	leaseRenewed.Inc()
	return nil
}

// Fence guards a write: it fails with ErrLeaseLost once the claim has
// been stolen or has lapsed. While more than half the TTL remains the
// in-memory expiry is trusted (no I/O on the append fast path); inside
// that window Fence renews, which re-verifies the epoch on disk.
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
	if err := l.Renew(); err != nil {
		if !errors.Is(err, ErrLeaseLost) {
			// Treat an unreadable lease as lost: without a verified
			// claim, continuing to write risks interleaving with a
			// legitimate new owner.
			l.mu.Lock()
			l.lost = true
			l.mu.Unlock()
			leaseLost.Inc()
			err = fmt.Errorf("%w: %v", ErrLeaseLost, err)
		}
		return err
	}
	return nil
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
// the journal for the next acquirer without waiting out the TTL.
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
	unlock, err := lockLease(l.fsys, l.path)
	if err != nil {
		return err
	}
	defer unlock()
	cur, exists, err := readLease(l.fsys, l.path)
	if err != nil || !exists {
		return err
	}
	if cur.Epoch != l.info.Epoch || cur.Owner != l.info.Owner {
		return nil
	}
	return l.fsys.Remove(l.path)
}

// --- on-disk plumbing ---

// lockLease serializes lease mutations through an O_EXCL lock file, so
// two stealers racing an expired claim cannot both write epoch+1. The
// lock is advisory and short-lived; one left behind by a kill is
// broken after lockStaleAfter of real time.
const lockStaleAfter = 1 * time.Second

func lockLease(fsys FS, path string) (func(), error) {
	lock := path + ".lock"
	deadline := time.Now().Add(5 * time.Second)
	waited := time.Duration(0)
	for {
		f, err := fsys.OpenFile(lock, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			if cerr := f.Close(); cerr != nil {
				_ = fsys.Remove(lock)
				return nil, cerr
			}
			return func() { _ = fsys.Remove(lock) }, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, err
		}
		if waited >= lockStaleAfter {
			// Holder died mid-mutation; break the lock and retry.
			_ = fsys.Remove(lock)
			waited = 0
			continue
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("store: lease lock %s: timed out", lock)
		}
		time.Sleep(10 * time.Millisecond)
		waited += 10 * time.Millisecond
	}
}

func readLease(fsys FS, path string) (LeaseInfo, bool, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return LeaseInfo{}, false, nil
		}
		return LeaseInfo{}, false, err
	}
	raw, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil {
		return LeaseInfo{}, false, err
	}
	if cerr != nil {
		return LeaseInfo{}, false, cerr
	}
	var info LeaseInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		// A torn lease file (crash mid-write) is treated as no claim:
		// the journal itself is still fenced by epoch monotonicity.
		return LeaseInfo{}, false, nil
	}
	return info, true, nil
}

// writeLease replaces the claim atomically (temp + sync + rename) so a
// crash never leaves a half-written claim visible at the lease path.
func writeLease(fsys FS, path string, info LeaseInfo) error {
	raw, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return replaceFile(fsys, path, append(raw, '\n'))
}
