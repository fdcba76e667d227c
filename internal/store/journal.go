package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// Header is the first line of every journal: the layout version plus
// the configuration fingerprint of the results it holds, and for a
// served sweep the request it answers. Field order matches the
// original checkpoint header byte-for-byte, and a journal without a
// request (every one the CLIs write) still has exactly those bytes.
type Header struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Request is the raw JSON request of a served sweep: what lets a
	// recovering replica rebuild and resume a sweep it never saw from
	// the journal alone. It is durable with the header, which the
	// journal's first rename publishes.
	Request json.RawMessage `json:"request,omitempty"`
}

// ErrJournalClosed is returned by Append after Close.
var ErrJournalClosed = errors.New("store: journal closed")

// MaxRecord bounds one journal line: 64 MiB holds any traced record
// the pipeline produces while keeping a corrupt (newline-less) journal
// from ballooning memory on read.
const MaxRecord = 64 << 20

// ErrJournalRewritten is returned by JournalReader.Next when the file
// at the reader's path no longer has a line boundary where the reader
// stopped: it was replaced by one whose lines moved.
var ErrJournalRewritten = errors.New("store: journal rewritten under its reader")

// JournalReader reads one journal incrementally, and is the only way
// a journal is read: ScanJournal is one whole-file pass of it, and a
// subscriber streaming a live sweep calls Next on every wake. The file
// stays open between calls; each call checks that the path still
// names it and reopens the path when it does not, so an atomic
// compaction rename is seen. A call seeks to the end of the last whole
// line consumed and parses only what was appended since, so a reader
// parses each record once. Compaction rewrites the restorable records
// byte for byte in order, so a reader's offset survives it. Close
// releases the file.
type JournalReader struct {
	fsys      FS
	path      string
	maxRecord int
	f         File          // the journal, kept open between calls
	id        fs.FileInfo   // f's identity; nil when the FS reports none
	off       int64         // end of the last whole line consumed
	br        *bufio.Reader // reused across calls

	HeaderLine []byte // raw header line, newline stripped
	Header     Header
	HeaderOK   bool // header line parsed as JSON
	// Torn: the last Next stopped at bytes that are not a record.
	Torn bool
	// Unterminated: the last Next kept a final line that had no
	// newline (only when called with final set).
	Unterminated bool
	Oversized    int // records over maxRecord, skipped
}

// NewJournalReader returns a reader positioned before the header of
// the journal at path. Nothing is read until Next.
func NewJournalReader(fsys FS, path string, maxRecord int) *JournalReader {
	return &JournalReader{fsys: Resolve(fsys), path: path, maxRecord: maxRecord}
}

// Clean reports whether the journal needs no salvage.
func (r *JournalReader) Clean() bool {
	return r.HeaderOK && !r.Torn && !r.Unterminated && r.Oversized == 0
}

// Next hands fn, in journal order, every record line appended since
// the previous call (newline stripped; fn may keep it). fn returns
// false to stop before a line: that line stays unconsumed, and the
// next call starts at it. Next tolerates every kind of damage a crash
// can leave: an oversized record is skipped and counted, and a whole
// line that is not JSON stops the read with Torn set and everything
// before it consumed. A final line without its newline is an append
// still in progress and is left for a later call, unless final
// declares the file complete: then it is kept when it parses (a crash
// cut the newline alone) and is Torn otherwise. Returns the error
// opening the file (os.ErrNotExist before the journal exists).
func (r *JournalReader) Next(final bool, fn func(line []byte) bool) error {
	if err := r.open(); err != nil {
		return err
	}
	if r.br == nil {
		r.br = bufio.NewReaderSize(r.f, 64*1024)
	}
	br := r.br
	br.Reset(r.f)
	// Resume on the newline that ended the last consumed line.
	if _, err := r.f.Seek(max(r.off-1, 0), io.SeekStart); err != nil {
		return err
	}
	if r.off > 0 {
		if b, err := br.ReadByte(); err != nil || b != '\n' {
			return ErrJournalRewritten
		}
	}
	r.Torn, r.Unterminated = false, false
	for {
		line, n, tooLong, err := readJournalLine(br, r.maxRecord)
		if n == 0 || (err != nil && !final) {
			return nil // end of journal, or a line still being appended
		}
		switch {
		case !r.HeaderOK:
			if tooLong || json.Unmarshal(line, &r.Header) != nil {
				r.Torn = true
				return nil
			}
			r.HeaderLine, r.HeaderOK = line, true
			r.Unterminated = err != nil
		case tooLong:
			r.Oversized++
		case !json.Valid(line):
			// A record cut mid-write by a crash; everything before it
			// is intact and restorable.
			r.Torn = true
			return nil
		default:
			if !fn(line) {
				return nil
			}
			r.Unterminated = err != nil
		}
		r.off += int64(n)
	}
}

// open makes r.f the file at r.path: the one kept from the previous
// call while the path still names it, else the path opened afresh —
// on the first call, and after a compaction renamed a new journal
// over the old one. An FS that reports no file identity is reopened
// on every call.
func (r *JournalReader) open() error {
	if r.f != nil {
		if fi, err := r.fsys.Stat(r.path); err == nil && r.id != nil && sameFile(fi, r.id) {
			return nil
		}
		_ = r.Close() // a read-only handle: nothing to lose
	}
	f, err := r.fsys.OpenFile(r.path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	r.f = f
	if r.id, err = f.Stat(); err != nil {
		r.id = nil
	}
	return nil
}

// Close releases the file the reader keeps open between calls. The
// reader stays usable: a later Next opens the path again.
func (r *JournalReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f, r.id = nil, nil
	return err
}

// Scan is one whole-file pass of a JournalReader: what is restorable,
// and what damage (if any) the file carries. Records are the raw lines
// without their trailing newline, in journal order.
type Scan struct {
	JournalReader
	Records [][]byte
}

// ScanJournal reads the whole journal at path through fsys as a file
// nothing appends to any more (see JournalReader.Next with final set).
// Returns the underlying error (e.g. os.ErrNotExist) if the file
// cannot be opened.
func ScanJournal(fsys FS, path string, maxRecord int) (*Scan, error) {
	sc := &Scan{JournalReader: *NewJournalReader(fsys, path, maxRecord)}
	err := sc.Next(true, func(line []byte) bool {
		sc.Records = append(sc.Records, line)
		return true
	})
	_ = sc.Close() // a read-only handle: nothing to lose
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// readJournalLine reads one line of at most maxRecord bytes, returning
// it without its newline plus the n bytes consumed. Oversized lines
// are consumed to their newline and reported as tooLong with no
// content, so the caller can keep reading from the next record. A nil
// err means the line was whole (newline-terminated).
func readJournalLine(br *bufio.Reader, maxRecord int) (line []byte, n int, tooLong bool, err error) {
	for {
		chunk, err := br.ReadSlice('\n')
		n += len(chunk)
		if !tooLong {
			line = append(line, chunk...)
			if len(line) > maxRecord {
				line = nil
				tooLong = true
			}
		}
		switch err {
		case bufio.ErrBufferFull:
			continue // line spans buffer chunks; keep accumulating
		case nil:
			if !tooLong {
				line = line[:len(line)-1] // strip the newline
			}
			return line, n, tooLong, nil
		default:
			// EOF (possibly with a final unterminated line) or a read
			// error: hand back what accumulated.
			return line, n, tooLong, err
		}
	}
}

// Journal is an open, appendable journal file. Appends are fenced by
// the lease (when one is attached), written as whole lines, synced
// before returning, and rolled back on failure so the file never holds
// a half-line in its interior, nor a line whose sync failed.
type Journal struct {
	mu     sync.Mutex
	fsys   FS
	f      File
	path   string
	lease  *Lease
	offset int64 // bytes of complete, synced lines in the file
	broken bool  // a failed append could not be rolled back
}

// CreateJournal atomically replaces the journal at path with one
// holding headerLine plus records (the compaction step), then keeps it
// open for appends. The new content goes to a sibling temp file that
// is fsynced and renamed over path only once complete, so a crash at
// any instant leaves either the old complete journal or the new one —
// never a truncated in-between. preRename (the crash-window test hook)
// runs between the sync and the rename; lease, when non-nil, fences
// every subsequent Append and must already be held by the caller.
func CreateJournal(fsys FS, path string, headerLine []byte, records [][]byte, lease *Lease, preRename func()) (*Journal, error) {
	fsys = Resolve(fsys)
	tmp := tempPath(path)
	// O_APPEND so that a rolled-back append (Truncate) repositions the
	// next write at the new end instead of leaving a hole.
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Journal, error) {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return nil, err
	}
	j := &Journal{fsys: fsys, f: f, path: path, lease: lease}
	if err := j.writeLine(headerLine); err != nil {
		return fail(err)
	}
	for _, rec := range records {
		if err := j.writeLine(rec); err != nil {
			return fail(err)
		}
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if preRename != nil {
		// Crash-window test hook: the live journal has not been touched
		// yet, so a kill here loses nothing.
		preRename()
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fail(err)
	}
	return j, nil
}

// writeLine appends line plus newline without fencing or syncing —
// the compaction path batches many lines under one sync.
func (j *Journal) writeLine(line []byte) error {
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	n, err := j.f.Write(buf)
	if err == nil && n != len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return err
	}
	j.offset += int64(n)
	return nil
}

// Append journals record lines, a newline added to each, with one
// write and one sync: the lines are committed together and survive the
// process dying right afterwards. A write or sync that fails is rolled
// back with Truncate to the end of the last committed line, so no line
// of a failed append stays in the file: none is read as durable, and a
// resumed sweep recomputes its cells. If even the rollback fails the
// journal is marked broken and refuses further appends rather than
// corrupt records already on disk.
func (j *Journal) Append(lines ...[]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrJournalClosed
	}
	if j.broken {
		return fmt.Errorf("store: journal %s: disabled by an earlier unrecoverable append failure", j.path)
	}
	if j.lease != nil {
		if err := j.lease.Fence(); err != nil {
			return err
		}
	}
	size := 0
	for _, line := range lines {
		size += len(line) + 1
	}
	buf := make([]byte, 0, size)
	for _, line := range lines {
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	n, err := j.f.Write(buf)
	if err == nil && n != len(buf) {
		err = io.ErrShortWrite
	}
	op := "append"
	if err == nil {
		// A failed sync leaves the lines' durability unknown: roll them
		// back like a failed write.
		op, err = "sync", j.f.Sync()
	}
	if err != nil {
		if n > 0 {
			if terr := j.f.Truncate(j.offset); terr != nil {
				j.broken = true
				return fmt.Errorf("store: journal %s: %s failed (%v) and rollback failed (%v); journal disabled", j.path, op, err, terr)
			}
		}
		return fmt.Errorf("store: journal %s: %s: %w", j.path, op, err)
	}
	j.offset += int64(n)
	return nil
}

// Path returns the journal's live path.
func (j *Journal) Path() string { return j.path }

// Close closes the journal file. Appends after Close are rejected.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// SalvageJournal repairs the journal at path in place: a torn tail,
// an unterminated final record, or oversized interior junk is rewritten
// away via the same atomic temp+rename path the compaction uses, and a
// journal whose header no longer parses (nothing attributes its
// records to a configuration) is quarantined aside as path+".corrupt".
// Returns whether the file changed. A missing file is not an error.
func SalvageJournal(fsys FS, path string, maxRecord int) (changed bool, err error) {
	fsys = Resolve(fsys)
	sc, err := ScanJournal(fsys, path, maxRecord)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	if !sc.HeaderOK {
		if len(sc.HeaderLine) == 0 && !sc.Torn {
			return false, nil // empty file: harmless
		}
		if err := fsys.Rename(path, path+".corrupt"); err != nil {
			return false, err
		}
		return true, nil
	}
	if sc.Clean() {
		return false, nil
	}
	j, err := CreateJournal(fsys, path, sc.HeaderLine, sc.Records, nil, nil)
	if err != nil {
		return false, err
	}
	return true, j.Close()
}

// ReplayJournal streams the journal's record lines verbatim to w (the
// header is validated against version and skipped), returning the
// record and skipped-oversized counts. Torn tails stop the replay
// silently — callers get exactly the restorable prefix, byte-identical
// on every replay.
func ReplayJournal(fsys FS, path string, version, maxRecord int, w io.Writer) (records, oversized int, err error) {
	sc, err := ScanJournal(fsys, path, maxRecord)
	if err != nil {
		return 0, 0, err
	}
	if !sc.HeaderOK {
		return 0, 0, fmt.Errorf("store: journal %s: unreadable header", path)
	}
	if sc.Header.Version != version {
		return 0, 0, fmt.Errorf("store: journal %s: bad header", path)
	}
	for _, line := range sc.Records {
		if _, werr := fmt.Fprintf(w, "%s\n", line); werr != nil {
			return records, sc.Oversized, werr
		}
		records++
	}
	return records, sc.Oversized, nil
}
