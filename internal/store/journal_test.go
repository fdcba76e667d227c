package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testHeader = `{"version":1,"fingerprint":"0123456789abcdef"}`

func writeJournalFile(t *testing.T, path string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScanJournalTornTail: a crash mid-append leaves a half-line tail;
// the scan keeps every record before it.
func TestScanJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	writeJournalFile(t, path,
		testHeader+"\n",
		`{"key":"a"}`+"\n",
		`{"key":"b"}`+"\n",
		`{"key":"c","run`) // torn: cut mid-record, no newline
	sc, err := ScanJournal(nil, path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.HeaderOK || !sc.Torn || sc.Clean() {
		t.Fatalf("scan flags: headerOK=%v torn=%v clean=%v", sc.HeaderOK, sc.Torn, sc.Clean())
	}
	if len(sc.Records) != 2 || string(sc.Records[1]) != `{"key":"b"}` {
		t.Fatalf("restorable prefix = %q", sc.Records)
	}
}

// TestScanJournalUnterminatedFinalRecord: a record that is whole JSON
// but lost its newline to a crash is kept — the data survived even if
// the line ending did not.
func TestScanJournalUnterminatedFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	writeJournalFile(t, path, testHeader+"\n", `{"key":"a"}`+"\n", `{"key":"b"}`)
	sc, err := ScanJournal(nil, path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Unterminated || sc.Torn {
		t.Fatalf("scan flags: unterminated=%v torn=%v", sc.Unterminated, sc.Torn)
	}
	if len(sc.Records) != 2 || string(sc.Records[1]) != `{"key":"b"}` {
		t.Fatalf("records = %q", sc.Records)
	}
}

// TestSalvageJournalRewritesTornTail: salvage rewrites the journal to
// its restorable prefix, atomically, and the replay bytes before and
// after salvage are identical.
func TestSalvageJournalRewritesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	writeJournalFile(t, path,
		testHeader+"\n",
		`{"key":"a"}`+"\n",
		`{"key":"b"}`+"\n",
		"\x00\x00garbage")

	var before bytes.Buffer
	if _, _, err := ReplayJournal(nil, path, 1, 1<<20, &before); err != nil {
		t.Fatal(err)
	}
	changed, err := SalvageJournal(nil, path, 1<<20)
	if err != nil || !changed {
		t.Fatalf("salvage: changed=%v err=%v", changed, err)
	}
	var after bytes.Buffer
	if _, _, err := ReplayJournal(nil, path, 1, 1<<20, &after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("replay changed across salvage:\nbefore %q\nafter  %q", before.Bytes(), after.Bytes())
	}
	sc, err := ScanJournal(nil, path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Clean() {
		t.Fatal("journal not clean after salvage")
	}
	// Salvage is idempotent.
	if changed, err := SalvageJournal(nil, path, 1<<20); err != nil || changed {
		t.Fatalf("second salvage: changed=%v err=%v", changed, err)
	}
	// And leaves no temp debris behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.jsonl" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after salvage: %v", names)
	}
}

// TestSalvageJournalQuarantinesHeaderless: a journal whose header no
// longer parses cannot attribute its records to any configuration; it
// is moved aside, not deleted and not trusted.
func TestSalvageJournalQuarantinesHeaderless(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	writeJournalFile(t, path, "\x7fELF not a journal\n", `{"key":"a"}`+"\n")
	changed, err := SalvageJournal(nil, path, 1<<20)
	if err != nil || !changed {
		t.Fatalf("salvage: changed=%v err=%v", changed, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("headerless journal still at live path (stat err %v)", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

// TestScanJournalOversizedRecordSkipped: an absurdly long line (fault
// or corruption) is skipped and counted; scanning resumes at the next
// record rather than abandoning the journal.
func TestScanJournalOversizedRecordSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	writeJournalFile(t, path,
		testHeader+"\n",
		`{"key":"a"}`+"\n",
		`{"key":"huge","pad":"`+strings.Repeat("x", 4096)+`"}`+"\n",
		`{"key":"b"}`+"\n")
	sc, err := ScanJournal(nil, path, 256)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Oversized != 1 || len(sc.Records) != 2 {
		t.Fatalf("oversized=%d records=%q", sc.Oversized, sc.Records)
	}
}

// TestJournalAppendDurableOrder: records appended one by one land in
// order and replay byte-identically.
func TestJournalAppendDurableOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(nil, path, []byte(testHeader), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"key":"a"}`, `{"key":"b"}`, `{"key":"c"}`}
	for _, rec := range want {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("late")); err != ErrJournalClosed {
		t.Fatalf("append after close = %v, want ErrJournalClosed", err)
	}
	sc, err := ScanJournal(nil, path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Clean() || len(sc.Records) != len(want) {
		t.Fatalf("clean=%v records=%q", sc.Clean(), sc.Records)
	}
	for i, rec := range want {
		if string(sc.Records[i]) != rec {
			t.Fatalf("record %d = %q, want %q", i, sc.Records[i], rec)
		}
	}
}

// TestJournalReaderReadsOnlyAppendedLines: each Next hands back only
// the whole lines appended since the previous one, leaves a line still
// being written for later, sees a compaction rename that keeps the
// records' bytes, and reports a rewrite that moved them.
func TestJournalReaderReadsOnlyAppendedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	r := NewJournalReader(nil, path, 1<<20)
	var got []string
	next := func() error {
		got = got[:0]
		return r.Next(false, func(line []byte) bool {
			got = append(got, string(line))
			return true
		})
	}
	if err := next(); !os.IsNotExist(err) {
		t.Fatalf("Next before the journal exists = %v, want not-exist", err)
	}

	writeJournalFile(t, path, testHeader+"\n", `{"key":"a"}`+"\n", `{"key":"b"`)
	if err := next(); err != nil || !r.HeaderOK || strings.Join(got, ",") != `{"key":"a"}` {
		t.Fatalf("first read: err=%v headerOK=%v records=%q", err, r.HeaderOK, got)
	}
	appendJournalFile(t, path, `}`+"\n"+`{"key":"c"}`+"\n")
	if err := next(); err != nil || strings.Join(got, ",") != `{"key":"b"},{"key":"c"}` {
		t.Fatalf("second read: err=%v records=%q", err, got)
	}
	if err := next(); err != nil || len(got) != 0 {
		t.Fatalf("read with nothing appended: err=%v records=%q", err, got)
	}

	// An atomic rewrite that keeps every record's bytes (compaction)
	// is read on from where the reader stopped.
	tmp := path + ".tmp"
	writeJournalFile(t, tmp, testHeader+"\n", `{"key":"a"}`+"\n", `{"key":"b"}`+"\n", `{"key":"c"}`+"\n", `{"key":"d"}`+"\n")
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	if err := next(); err != nil || strings.Join(got, ",") != `{"key":"d"}` {
		t.Fatalf("read after compaction: err=%v records=%q", err, got)
	}

	// One that moved the line boundaries is reported, not misread.
	writeJournalFile(t, path, testHeader+"\n", `{"key":"a","x":1}`+"\n", `{"key":"e"}`+"\n", `{"key":"f"}`+"\n", `{"key":"g"}`+"\n")
	if err := next(); err != ErrJournalRewritten {
		t.Fatalf("read after a rewrite = %v (records %q), want ErrJournalRewritten", err, got)
	}
}

func appendJournalFile(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
