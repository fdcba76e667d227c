package faults

import (
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
	"testing"

	"capscale/internal/store"
)

// TestFaultFSRoundTrip: the zero-profile filesystem behaves like a
// filesystem — create, write, sync, rename, stat, list, remove.
func TestFaultFSRoundTrip(t *testing.T) {
	ffs := NewFaultFS(FSProfile{}, 1)
	if err := ffs.MkdirAll("dir/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := ffs.OpenFile("dir/sub/a.txt", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.OpenFile("dir/sub/a.txt", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644); !errors.Is(err, os.ErrExist) {
		t.Fatalf("O_EXCL on existing file = %v, want ErrExist", err)
	}
	if err := ffs.Rename("dir/sub/a.txt", "dir/sub/b.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.Stat("dir/sub/a.txt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stat after rename = %v, want ErrNotExist", err)
	}
	g, err := ffs.OpenFile("dir/sub/b.txt", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(g)
	if err != nil || string(raw) != "hello" {
		t.Fatalf("read back %q, %v", raw, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ffs.ReadDir("dir/sub")
	if err != nil || len(entries) != 1 || entries[0].Name() != "b.txt" {
		t.Fatalf("readdir = %v, %v", entries, err)
	}
	if err := ffs.Remove("dir/sub/b.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.Stat("dir/sub/b.txt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stat after remove = %v", err)
	}
}

// TestCrashDropsUnsyncedData: power loss keeps exactly the durable
// prefix of each file, vaporizes never-synced files, and fails all I/O
// until Reboot.
func TestCrashDropsUnsyncedData(t *testing.T) {
	ffs := NewFaultFS(FSProfile{}, 1)
	f, err := ffs.OpenFile("a", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable|")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	g, err := ffs.OpenFile("never-synced", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("gone")); err != nil {
		t.Fatal(err)
	}

	ffs.CrashAt(1)
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("armed crash-point did not fire")
			} else if _, ok := p.(*CrashPoint); !ok {
				panic(p)
			}
		}()
		_, _ = f.Write([]byte("x"))
	}()
	if !ffs.Crashed() {
		t.Fatal("filesystem not down after crash")
	}
	if _, err := ffs.OpenFile("a", os.O_RDONLY, 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("open while crashed = %v, want EIO", err)
	}

	ffs.Reboot()
	h, err := ffs.OpenFile("a", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(h)
	if err != nil || string(raw) != "durable|" {
		t.Fatalf("after reboot file a = %q, %v (want only the synced prefix)", raw, err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.Stat("never-synced"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("never-synced file survived the crash: %v", err)
	}
	if ffs.Stats().Crashes != 1 {
		t.Fatalf("crash count = %d", ffs.Stats().Crashes)
	}
}

// TestWriteErrInjection: EIO and ENOSPC surface through the standard
// (n, err) contract with errors.Is-compatible wrapping.
func TestWriteErrInjection(t *testing.T) {
	ffs := NewFaultFS(FSProfile{WriteErrRate: 1}, 42)
	f, err := ffs.OpenFile("a", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("data")); n != 0 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("injected write = (%d, %v), want (0, EIO)", n, err)
	}
	if ffs.Stats().WriteErrs == 0 {
		t.Fatal("write error not counted")
	}

	nospc := NewFaultFS(FSProfile{ENOSPCBytes: 10}, 42)
	g, err := nospc.OpenFile("b", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("12345678")); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	if n, err := g.Write([]byte("overflow")); !errors.Is(err, syscall.ENOSPC) || n >= len("overflow") {
		t.Fatalf("over-budget write = (%d, %v), want partial + ENOSPC", n, err)
	}
	if nospc.Stats().ENOSPCs == 0 {
		t.Fatal("ENOSPC not counted")
	}
}

// TestJournalENOSPCRollback: when the disk fills mid-append, the
// journal rolls the partial line back — the file stays clean and holds
// exactly the records whose appends succeeded.
func TestJournalENOSPCRollback(t *testing.T) {
	header := []byte(`{"version":1,"fingerprint":"0123456789abcdef"}`)
	// Budget: the header and first record fit; a later append trips it.
	ffs := NewFaultFS(FSProfile{ENOSPCBytes: int64(len(header)) + 40}, 7)
	j, err := store.CreateJournal(ffs, "sweep.jsonl", header, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ok int
	for i := 0; i < 5; i++ {
		rec := fmt.Sprintf(`{"key":"cell-%d"}`, i)
		if err := j.Append([]byte(rec)); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d: %v", i, err)
			}
			break
		}
		ok++
	}
	if ok == 0 || ok == 5 {
		t.Fatalf("want some appends to succeed and some to hit ENOSPC; %d succeeded", ok)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := store.ScanJournal(ffs, "sweep.jsonl", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Clean() {
		t.Fatalf("journal dirty after rolled-back append: torn=%v unterminated=%v", sc.Torn, sc.Unterminated)
	}
	if len(sc.Records) != ok {
		t.Fatalf("journal holds %d records, want the %d successful appends", len(sc.Records), ok)
	}
}

// TestJournalCrashEveryOp: the journal-level crash oracle. A reference
// run writes a journal through N mutating ops; then, for every k ≤ N,
// a fresh filesystem replays the same sequence with power loss at op k
// (torn tails enabled). After reboot + salvage the journal must be
// clean and hold a strict prefix of the reference records — never a
// corrupt or reordered file.
func TestJournalCrashEveryOp(t *testing.T) {
	header := []byte(`{"version":1,"fingerprint":"0123456789abcdef"}`)
	records := make([][]byte, 6)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"key":"cell-%d","joules":%d.5}`, i, i*3))
	}
	run := func(ffs *FaultFS) error {
		j, err := store.CreateJournal(ffs, "sweep.jsonl", header, nil, nil, nil)
		if err != nil {
			return err
		}
		for _, rec := range records {
			if err := j.Append(rec); err != nil {
				return err
			}
		}
		return j.Close()
	}

	clean := NewFaultFS(FSProfile{}, 99)
	if err := run(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	if total < int64(len(records)) {
		t.Fatalf("implausible op count %d", total)
	}

	for k := int64(1); k <= total; k++ {
		ffs := NewFaultFS(FSProfile{CrashTornFrac: 0.5}, 1000+k)
		ffs.CrashAt(k)
		crashed := false
		func() {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(*CrashPoint); !ok {
						panic(p)
					}
					crashed = true
				}
			}()
			_ = run(ffs)
		}()
		if !crashed {
			t.Fatalf("k=%d: crash-point did not fire (total ops %d)", k, total)
		}
		ffs.Reboot()
		if _, err := store.SalvageJournal(ffs, "sweep.jsonl", 1<<20); err != nil {
			t.Fatalf("k=%d: salvage: %v", k, err)
		}
		sc, err := store.ScanJournal(ffs, "sweep.jsonl", 1<<20)
		if errors.Is(err, os.ErrNotExist) {
			continue // crashed before the journal became durable: clean slate
		}
		if err != nil {
			t.Fatalf("k=%d: scan: %v", k, err)
		}
		if len(sc.Records) > 0 && !sc.HeaderOK {
			t.Fatalf("k=%d: records without a header after salvage", k)
		}
		if !sc.Clean() && sc.HeaderOK {
			t.Fatalf("k=%d: journal not clean after salvage: torn=%v unterminated=%v", k, sc.Torn, sc.Unterminated)
		}
		if len(sc.Records) > len(records) {
			t.Fatalf("k=%d: more records than were written: %d", k, len(sc.Records))
		}
		for i, rec := range sc.Records {
			if string(rec) != string(records[i]) {
				t.Fatalf("k=%d: record %d = %q, want prefix of reference (%q)", k, i, rec, records[i])
			}
		}
	}
}

// TestJournalSyncErrRollback: an append whose fsync fails is rolled
// back whole, so the journal stays clean and holds, in order, exactly
// the records of the appends that returned nil.
func TestJournalSyncErrRollback(t *testing.T) {
	header := []byte(`{"version":1,"fingerprint":"0123456789abcdef"}`)
	ffs := NewFaultFS(FSProfile{}, 3)
	j, err := store.CreateJournal(ffs, "sweep.jsonl", header, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ffs.prof.SyncErrRate = 0.5
	var want []string
	for i := 0; i < 20; i++ {
		batch := []string{fmt.Sprintf(`{"key":"cell-%d-a"}`, i), fmt.Sprintf(`{"key":"cell-%d-b"}`, i)}
		switch err := j.Append([]byte(batch[0]), []byte(batch[1])); {
		case err == nil:
			want = append(want, batch...)
		case !errors.Is(err, syscall.EIO):
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if len(want) == 0 || len(want) == 40 {
		t.Fatalf("want some appends to commit and some to fail their sync; %d of 40 records committed", len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := store.ScanJournal(ffs, "sweep.jsonl", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Clean() || len(sc.Records) != len(want) {
		t.Fatalf("journal clean=%v with %d records, want clean with the %d committed", sc.Clean(), len(sc.Records), len(want))
	}
	for i, rec := range sc.Records {
		if string(rec) != want[i] {
			t.Fatalf("record %d = %s, want %s", i, rec, want[i])
		}
	}
}

// TestFaultFSReportsFileIdentity: a path's Stat and an open handle's
// Stat carry the same identity until a rename puts another file at the
// path, as device and inode numbers do on a real filesystem.
func TestFaultFSReportsFileIdentity(t *testing.T) {
	ffs := NewFaultFS(FSProfile{}, 1)
	create := func(name string) store.File {
		f, err := ffs.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	identity := func(fi os.FileInfo, err error) any {
		if err != nil {
			t.Fatal(err)
		}
		return fi.Sys()
	}
	held := create("journal")
	if a, b := identity(ffs.Stat("journal")), identity(held.Stat()); a != b || a == store.FileID(0) {
		t.Fatalf("path identity %v, handle identity %v; want one non-zero identity", a, b)
	}
	if err := create("journal.tmp").Close(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename("journal.tmp", "journal"); err != nil {
		t.Fatal(err)
	}
	if a, b := identity(ffs.Stat("journal")), identity(held.Stat()); a == b {
		t.Fatalf("after a rename over the path, it still names the held file (identity %v)", a)
	}
}

// TestFaultFSLocksLikeFlock: advisory locks act as flock(2) does
// between handles: an exclusive lock refuses every other handle on the
// file, shared locks admit each other, and the lock stays with the
// file when its path is removed. Close and Reboot drop locks, and
// taking one is not a mutating op.
func TestFaultFSLocksLikeFlock(t *testing.T) {
	ffs := NewFaultFS(FSProfile{}, 1)
	open := func() store.File {
		f, err := ffs.OpenFile("claim", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	lock := func(f store.File, exclusive, want bool) {
		t.Helper()
		if got, err := f.TryLock(exclusive); err != nil || got != want {
			t.Fatalf("TryLock(exclusive %v) = %v, %v; want %v", exclusive, got, err, want)
		}
	}
	a, b, c := open(), open(), open()
	ops := ffs.Ops()
	lock(a, true, true)
	lock(b, true, false)
	lock(b, false, false)
	if got := ffs.Ops(); got != ops {
		t.Fatalf("taking locks moved the op counter from %d to %d", ops, got)
	}
	if err := ffs.Remove("claim"); err != nil {
		t.Fatal(err)
	}
	lock(open(), true, true) // a new file at the path has a lock of its own
	lock(b, false, false)    // the removed file's stays with its holder
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	lock(b, false, true)
	lock(c, false, true)
	lock(c, true, false)
	ffs.Reboot()
	lock(c, true, true)
}
