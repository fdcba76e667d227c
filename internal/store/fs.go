// Package store holds the fingerprint-keyed JSONL result store shared
// by the checkpoint journal (internal/workload) and the sweep service
// (internal/serve). Everything goes through an injectable filesystem
// interface so the crash and fault tests (internal/faults.FaultFS) can
// exercise torn writes, I/O errors and simulated power loss against
// the exact code paths production runs on.
//
// The package provides three layers:
//
//   - FS/File: the filesystem seam. Resolve(nil) returns the real OS
//     filesystem, so a nil FS everywhere means "no injection, zero
//     overhead" — the same contract the fault injector established.
//   - Lease: on-disk claim files (owner + monotonic epoch + TTL) that
//     let N replicas share one store directory, each its own lock. See
//     lease.go.
//   - Journal: append-only JSONL files written with explicit fsync
//     barriers and atomic (temp+fsync+rename) compaction. See
//     journal.go.
package store

import (
	"errors"
	"io/fs"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
)

// File is the subset of *os.File the store reads and writes through,
// plus an advisory lock. Sync is the durability barrier: data written
// but not yet synced is exactly what a crash may lose (or tear). Seek
// lets a JournalReader resume where its last read stopped, and Stat
// lets it tell whether its path still names the file it holds open.
// TryLock takes the open file's advisory lock without waiting,
// exclusive or shared with other shared holders, and reports false
// while another open file holds a conflicting one; Close releases it.
// It is what serializes a lease's claim file (lease.go).
type File interface {
	Read(p []byte) (int, error)
	Seek(offset int64, whence int) (int64, error)
	Write(p []byte) (int, error)
	Close() error
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
	Name() string
	TryLock(exclusive bool) (bool, error)
}

// FS is the filesystem seam. The real implementation is OS(); the
// fault-injecting one lives in internal/faults. All paths are plain
// slash-joined strings, same as the os package.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
}

// osFS is the passthrough to the real filesystem.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// osFile is an open real file; its lock is flock(2), which belongs to
// the open file description, so two opens in one process exclude each
// other as two processes do, and the kernel drops it when the holder
// closes the file or dies.
type osFile struct{ *os.File }

func (f osFile) TryLock(exclusive bool) (bool, error) {
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	err := syscall.Flock(int(f.Fd()), how|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return false, nil
	}
	if err != nil {
		return false, &os.PathError{Op: "flock", Path: f.Name(), Err: err}
	}
	return true, nil
}

func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

var theOS FS = osFS{}

// FileID is the file identity an FS other than the real one reports
// through fs.FileInfo.Sys: two FileInfos carrying the same non-zero
// FileID describe one file, as equal device and inode numbers do on
// the real filesystem.
type FileID uint64

// sameFile reports whether a and b describe one file, by the real
// filesystem's device and inode or by an injected FS's FileID. Without
// an identity to compare, files are never the same.
func sameFile(a, b fs.FileInfo) bool {
	if os.SameFile(a, b) {
		return true
	}
	ia, oka := a.Sys().(FileID)
	ib, okb := b.Sys().(FileID)
	return oka && okb && ia != 0 && ia == ib
}

// OS returns the real filesystem.
func OS() FS { return theOS }

// Resolve maps the nil FS to the real filesystem, preserving the
// "nil means no injection" contract at every call site.
func Resolve(fsys FS) FS {
	if fsys == nil {
		return theOS
	}
	return fsys
}

// tmpSeq makes temp names unique within a process without consulting
// the clock or a global RNG (keeps fault-FS runs deterministic).
var tmpSeq atomic.Uint64

// tempPath returns a sibling temp name for path. The suffix never
// matches the store's journal extension, so half-written temps are
// invisible to Fingerprints and harmless as debris after a real kill.
func tempPath(path string) string {
	return path + ".tmp-" + strconv.Itoa(os.Getpid()) + "-" +
		strconv.FormatUint(tmpSeq.Add(1), 10)
}

// replaceFile atomically replaces path with data: a sibling temp file
// is written, fsynced, closed and renamed over path, and removed again
// on any failure, so a crash leaves either the old file or the new.
func replaceFile(fsys FS, path string, data []byte) error {
	tmp := tempPath(path)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
	}
	return err
}
