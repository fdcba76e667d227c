package store

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Ext is the journal extension in a store directory: one JSONL file
// per sweep fingerprint.
const Ext = ".jsonl"

// reqExt is the request sidecar extension: the raw sweep request body
// older stores saved next to the journal. The request now rides in the
// journal's header (Header.Request) and nothing reads sidecars; only
// SaveRequest writes them, for capbench.
const reqExt = ".req"

// Store is a fingerprint-keyed directory of result journals shared by
// any number of replicas; all claims go through the lease files next
// to each journal.
type Store struct {
	dir  string
	fsys FS
}

// Open ensures dir exists and returns the store. A nil fsys means the
// real filesystem.
func Open(dir string, fsys FS) (*Store, error) {
	fsys = Resolve(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, fsys: fsys}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// FS returns the filesystem the store operates through.
func (s *Store) FS() FS { return s.fsys }

// Path returns the journal path for a fingerprint.
func (s *Store) Path(fp string) string { return filepath.Join(s.dir, fp+Ext) }

// LeasePath returns the claim-file path for a fingerprint's journal.
func (s *Store) LeasePath(fp string) string { return LeasePath(s.Path(fp)) }

// Has reports whether a journal exists for the fingerprint.
func (s *Store) Has(fp string) bool {
	_, err := s.fsys.Stat(s.Path(fp))
	return err == nil
}

// Fingerprints lists the stored fingerprints in sorted order. Lease
// files, request sidecars, quarantined journals and temp debris all
// carry different suffixes and are excluded.
func (s *Store) Fingerprints() ([]string, error) {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var fps []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, ok := strings.CutSuffix(e.Name(), Ext)
		if !ok || !ValidFingerprint(name) {
			continue
		}
		fps = append(fps, name)
	}
	sort.Strings(fps)
	return fps, nil
}

// reqPath returns the request sidecar path for a fingerprint.
func (s *Store) reqPath(fp string) string { return filepath.Join(s.dir, fp+reqExt) }

// SaveRequest persists the raw sweep request body for fp as a sidecar,
// atomically (temp file, fsync, rename), the way older stores did. The
// sweep server neither writes nor reads sidecars; SaveRequest is kept
// only because capbench times one (its sidecar_ms_p50 metric).
func (s *Store) SaveRequest(fp string, body []byte) error {
	return replaceFile(s.fsys, s.reqPath(fp), body)
}

// ValidFingerprint reports whether fp looks like a sweep fingerprint:
// exactly 16 lowercase hex digits (the %016x FNV-64 the pipeline
// produces).
func ValidFingerprint(fp string) bool {
	if len(fp) != 16 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// IsNotExist reports whether err is a missing-file error from any FS
// implementation.
func IsNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }
