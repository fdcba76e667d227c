package faults

import (
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"capscale/internal/store"
)

// FaultFS is a seed-deterministic in-memory filesystem implementing
// store.FS, extending the injector's reach from measurement faults
// (faults.Injector) down to the storage layer the journals and leases
// live on. It models the failure surface a real disk presents:
//
//   - write errors (EIO) that apply nothing,
//   - short writes that persist only a prefix and report it,
//   - sync errors that leave durability unknown,
//   - ENOSPC once a byte budget is exhausted,
//   - crash-points: at the Nth mutating operation the "machine" loses
//     power — every byte written since the last successful fsync is
//     dropped (optionally leaving a torn prefix of the unsynced tail,
//     as a real disk tearing a sector boundary would), the faulting
//     goroutine panics with *CrashPoint, and all subsequent I/O fails
//     until Reboot.
//
// Every mutating operation (create, write, truncate, sync, rename,
// remove) advances one shared op counter; CrashAt arms a crash at a
// chosen op, so a harness can first count a clean run's ops and then
// replay it crashing at every single one. Advisory locks (TryLock)
// mutate nothing on disk and advance no op; a crash's Reboot drops
// them with the processes that held them. All randomness comes from
// the constructor's seed, in op order: the same seed and the same
// operation sequence produce the same faults.
//
// Like the measurement injector, the nil/disabled contract holds: the
// production stack takes a store.FS and a nil one means the real OS
// filesystem with zero added overhead.
type FaultFS struct {
	mu      sync.Mutex
	rng     *rand.Rand
	prof    FSProfile
	files   map[string]*memFile
	dirs    map[string]bool
	ops     int64
	crashAt int64 // 0 = disarmed
	crashed bool
	written int64 // bytes accepted by Write, for the ENOSPC budget
	lastID  store.FileID
	stats   FSStats
	// locks is the advisory lock table: per file, its holders and
	// whether each holds the lock exclusively.
	locks map[store.FileID]map[*memHandle]bool
}

// FSProfile sets the per-operation injection rates. The zero profile
// injects nothing (crash-points still fire when armed).
type FSProfile struct {
	// WriteErrRate is the per-write probability of EIO with nothing
	// applied.
	WriteErrRate float64
	// ShortWriteRate is the per-write probability that only a random
	// prefix is applied, reported via the (n, err) contract.
	ShortWriteRate float64
	// SyncErrRate is the per-fsync probability of EIO with durability
	// unchanged.
	SyncErrRate float64
	// ENOSPCBytes caps total bytes accepted by Write across the
	// filesystem's lifetime; past it writes fail with ENOSPC.
	// Zero means unlimited.
	ENOSPCBytes int64
	// CrashTornFrac is the per-file probability that a crash tears the
	// unsynced tail — keeping a random prefix of it — instead of
	// dropping it whole. This is what produces mid-record torn journal
	// tails for the salvage path.
	CrashTornFrac float64
}

// FSStats counts what the filesystem injected.
type FSStats struct {
	WriteErrs   int
	ShortWrites int
	SyncErrs    int
	ENOSPCs     int
	Crashes     int
	TornFiles   int
}

// CrashPoint is the panic value thrown when an armed crash-point
// fires.
type CrashPoint struct{ Op int64 }

func (c *CrashPoint) String() string {
	return "faults: simulated power loss at filesystem op " + itoa(c.Op)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// ErrCrashed is the error all I/O returns between a crash and Reboot.
var ErrCrashed = &os.PathError{Op: "io", Path: "(faultfs)", Err: syscall.EIO}

type memFile struct {
	data   []byte
	synced int // durable prefix length
	// id is the file's identity (its inode number), reported through
	// Stat so a reader can tell when a rename put another file at a
	// path it holds open.
	id store.FileID
}

// NewFaultFS returns a fault filesystem drawing every injection
// decision from seed.
func NewFaultFS(prof FSProfile, seed int64) *FaultFS {
	return &FaultFS{
		rng:   rand.New(rand.NewSource(seed)),
		prof:  prof,
		files: map[string]*memFile{},
		dirs:  map[string]bool{"/": true, ".": true},
		locks: map[store.FileID]map[*memHandle]bool{},
	}
}

// CrashAt arms a power loss at the opth mutating operation from now
// (1 = the very next one). Zero disarms.
func (f *FaultFS) CrashAt(op int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op <= 0 {
		f.crashAt = 0
		return
	}
	f.crashAt = f.ops + op
}

// Ops returns how many mutating operations have executed — run a
// clean pass first, read Ops, then replay with CrashAt(k) for every
// k ≤ Ops.
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Stats returns the injection counts so far.
func (f *FaultFS) Stats() FSStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Crashed reports whether the filesystem is down awaiting Reboot.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Reboot brings the filesystem back after a crash, disarmed: the
// recovery pass runs clean, on exactly the bytes that were durable.
func (f *FaultFS) Reboot() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
	f.crashAt = 0
	clear(f.locks)
}

// step advances the mutating-op counter and fires an armed
// crash-point. Callers hold f.mu (released by their defer before the
// panic unwinds further).
func (f *FaultFS) step() {
	f.ops++
	if f.crashAt > 0 && f.ops >= f.crashAt && !f.crashed {
		f.crash()
		panic(&CrashPoint{Op: f.ops})
	}
}

// crash models power loss: every file keeps only its durable prefix,
// except that with CrashTornFrac probability a file instead keeps a
// random partial prefix of its unsynced tail — the torn write.
func (f *FaultFS) crash() {
	f.crashed = true
	f.stats.Crashes++
	// Deterministic file order so the same seed tears the same files.
	names := make([]string, 0, len(f.files))
	for name := range f.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mf := f.files[name]
		unsynced := len(mf.data) - mf.synced
		if unsynced <= 0 {
			continue
		}
		keep := mf.synced
		if f.prof.CrashTornFrac > 0 && f.rng.Float64() < f.prof.CrashTornFrac {
			keep += f.rng.Intn(unsynced + 1)
			if keep > mf.synced {
				f.stats.TornFiles++
			}
		}
		mf.data = mf.data[:keep]
		mf.synced = keep
	}
	// Files created but never synced vanish entirely (their directory
	// entry was never durable either).
	for _, name := range names {
		if mf := f.files[name]; len(mf.data) == 0 && mf.synced == 0 {
			delete(f.files, name)
		}
	}
}

func clean(name string) string { return filepath.Clean(name) }

// --- store.FS ---

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	name = clean(name)
	mf, exists := f.files[name]
	if flag&os.O_CREATE != 0 {
		if exists && flag&os.O_EXCL != 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
		}
		if !exists {
			f.step() // creating a directory entry mutates the disk
			f.lastID++
			mf = &memFile{id: f.lastID}
			f.files[name] = mf
			f.markDirs(name)
			exists = true
		}
	}
	if !exists {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	if flag&os.O_TRUNC != 0 && len(mf.data) > 0 {
		f.step()
		mf.data = nil
		mf.synced = 0
	}
	h := &memHandle{
		fs:     f,
		mf:     mf,
		name:   name,
		write:  flag&(os.O_WRONLY|os.O_RDWR) != 0,
		read:   flag&os.O_WRONLY == 0,
		append: flag&os.O_APPEND != 0,
	}
	if !h.append && h.write {
		h.pos = 0
	}
	return h, nil
}

func (f *FaultFS) markDirs(name string) {
	for d := filepath.Dir(name); d != "." && d != "/" && d != ""; d = filepath.Dir(d) {
		f.dirs[d] = true
	}
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	oldpath, newpath = clean(oldpath), clean(newpath)
	mf, ok := f.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	f.step()
	// Rename is modeled as atomic and immediately durable, the
	// guarantee journaled filesystems give and the one the atomic
	// compaction (temp + fsync + rename) relies on. The file's own
	// unsynced tail stays unsynced across the move.
	delete(f.files, oldpath)
	f.files[newpath] = mf
	f.markDirs(newpath)
	return nil
}

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	name = clean(name)
	if _, ok := f.files[name]; ok {
		f.step()
		delete(f.files, name)
		return nil
	}
	if f.dirs[name] {
		for p := range f.files {
			if strings.HasPrefix(p, name+"/") {
				return &os.PathError{Op: "remove", Path: name, Err: syscall.ENOTEMPTY}
			}
		}
		f.step()
		delete(f.dirs, name)
		return nil
	}
	return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	name = clean(name)
	if mf, ok := f.files[name]; ok {
		return fileInfo{name: filepath.Base(name), size: int64(len(mf.data)), id: mf.id}, nil
	}
	if f.dirExists(name) {
		return fileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
}

func (f *FaultFS) dirExists(name string) bool {
	if f.dirs[name] {
		return true
	}
	for p := range f.files {
		if strings.HasPrefix(p, name+"/") {
			return true
		}
	}
	return false
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	name = clean(name)
	if !f.dirExists(name) {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: os.ErrNotExist}
	}
	seen := map[string]bool{}
	var out []fs.DirEntry
	add := func(base string, dir bool, size int64) {
		if !seen[base] {
			seen[base] = true
			out = append(out, dirEntry{fileInfo{name: base, dir: dir, size: size}})
		}
	}
	prefix := name + "/"
	if name == "." {
		prefix = ""
	}
	for p, mf := range f.files {
		if !strings.HasPrefix(p, prefix) || p == name {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			add(rest[:i], true, 0)
		} else {
			add(rest, false, int64(len(mf.data)))
		}
	}
	for d := range f.dirs {
		if !strings.HasPrefix(d, prefix) || d == name {
			continue
		}
		rest := strings.TrimPrefix(d, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		add(rest, true, 0)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	path = clean(path)
	if !f.dirs[path] {
		f.step()
		f.dirs[path] = true
		f.markDirs(path)
	}
	return nil
}

// memHandle is one open descriptor. It holds the memFile directly —
// the inode, not the name — so it stays valid across Rename and Remove
// exactly like a POSIX fd (the atomic temp+rename journal path writes
// through its handle after renaming the file into place).
type memHandle struct {
	fs     *FaultFS
	mf     *memFile
	name   string
	pos    int
	write  bool
	read   bool
	append bool
	closed bool
}

func (h *memHandle) file() (*memFile, error) {
	if h.closed {
		return nil, os.ErrClosed
	}
	if h.fs.crashed {
		return nil, ErrCrashed
	}
	return h.mf, nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return 0, err
	}
	if !h.read {
		return 0, &os.PathError{Op: "read", Path: h.name, Err: os.ErrInvalid}
	}
	if h.pos >= len(mf.data) {
		return 0, io.EOF
	}
	n := copy(p, mf.data[h.pos:])
	h.pos += n
	return n, nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekCurrent:
		offset += int64(h.pos)
	case io.SeekEnd:
		offset += int64(len(mf.data))
	}
	if offset < 0 || whence < io.SeekStart || whence > io.SeekEnd {
		return 0, &os.PathError{Op: "seek", Path: h.name, Err: os.ErrInvalid}
	}
	h.pos = int(offset)
	return offset, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return 0, err
	}
	if !h.write {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: os.ErrInvalid}
	}
	h.fs.step()
	fsp := &h.fs.prof
	if fsp.WriteErrRate > 0 && h.fs.rng.Float64() < fsp.WriteErrRate {
		h.fs.stats.WriteErrs++
		return 0, &os.PathError{Op: "write", Path: h.name, Err: syscall.EIO}
	}
	apply := p
	var werr error
	if fsp.ShortWriteRate > 0 && len(p) > 1 && h.fs.rng.Float64() < fsp.ShortWriteRate {
		h.fs.stats.ShortWrites++
		apply = p[:1+h.fs.rng.Intn(len(p)-1)]
		werr = io.ErrShortWrite
	}
	if fsp.ENOSPCBytes > 0 && h.fs.written+int64(len(apply)) > fsp.ENOSPCBytes {
		room := fsp.ENOSPCBytes - h.fs.written
		if room < 0 {
			room = 0
		}
		apply = apply[:room]
		h.fs.stats.ENOSPCs++
		werr = &os.PathError{Op: "write", Path: h.name, Err: syscall.ENOSPC}
	}
	if h.append {
		h.pos = len(mf.data)
	}
	end := h.pos + len(apply)
	if end > len(mf.data) {
		grown := make([]byte, end)
		copy(grown, mf.data)
		mf.data = grown
	}
	copy(mf.data[h.pos:], apply)
	h.pos += len(apply)
	h.fs.written += int64(len(apply))
	if werr != nil {
		return len(apply), werr
	}
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return err
	}
	h.fs.step()
	if h.fs.prof.SyncErrRate > 0 && h.fs.rng.Float64() < h.fs.prof.SyncErrRate {
		h.fs.stats.SyncErrs++
		return &os.PathError{Op: "sync", Path: h.name, Err: syscall.EIO}
	}
	mf.synced = len(mf.data)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return err
	}
	if !h.write {
		return &os.PathError{Op: "truncate", Path: h.name, Err: os.ErrInvalid}
	}
	h.fs.step()
	n := int(size)
	if n < 0 {
		return &os.PathError{Op: "truncate", Path: h.name, Err: os.ErrInvalid}
	}
	for len(mf.data) < n {
		mf.data = append(mf.data, 0)
	}
	mf.data = mf.data[:n]
	if mf.synced > n {
		mf.synced = n
	}
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	delete(h.fs.locks[h.mf.id], h)
	if len(h.fs.locks[h.mf.id]) == 0 {
		delete(h.fs.locks, h.mf.id)
	}
	return nil
}

// TryLock takes the file's advisory lock as flock(2) does: the lock
// belongs to this handle, another handle on the same file is refused a
// conflicting one, and Close drops it.
func (h *memHandle) TryLock(exclusive bool) (bool, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return false, err
	}
	holders := h.fs.locks[mf.id]
	for other, excl := range holders {
		if other != h && (exclusive || excl) {
			return false, nil
		}
	}
	if holders == nil {
		holders = map[*memHandle]bool{}
		h.fs.locks[mf.id] = holders
	}
	holders[h] = exclusive
	return true, nil
}

// Stat reports the open file, its identity included.
func (h *memHandle) Stat() (fs.FileInfo, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf, err := h.file()
	if err != nil {
		return nil, err
	}
	return fileInfo{name: filepath.Base(h.name), size: int64(len(mf.data)), id: mf.id}, nil
}

func (h *memHandle) Name() string { return h.name }

// fileInfo / dirEntry implement fs.FileInfo / fs.DirEntry for Stat and
// ReadDir. A file's Sys is its store.FileID; a directory's is zero.
type fileInfo struct {
	name string
	size int64
	dir  bool
	id   store.FileID
}

func (i fileInfo) Name() string { return i.name }
func (i fileInfo) Size() int64  { return i.size }
func (i fileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i fileInfo) ModTime() time.Time { return time.Time{} }
func (i fileInfo) IsDir() bool        { return i.dir }
func (i fileInfo) Sys() any           { return i.id }

type dirEntry struct{ fi fileInfo }

func (d dirEntry) Name() string               { return d.fi.name }
func (d dirEntry) IsDir() bool                { return d.fi.dir }
func (d dirEntry) Type() fs.FileMode          { return d.fi.Mode().Type() }
func (d dirEntry) Info() (fs.FileInfo, error) { return d.fi, nil }
