package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzJournalReader appends arbitrary bytes to a journal in arbitrary
// splits, reading after every append with one reader that keeps the
// file open, and once renames a byte-identical copy over the journal
// (what compaction does). The reader must never fail or panic, must
// yield nothing once it has met a torn line, and must end up with
// exactly what one ScanJournal pass of the final file yields. Run with
// `go test -fuzz=FuzzJournalReader ./internal/store`; the seed corpus
// runs under plain `go test`.
func FuzzJournalReader(f *testing.F) {
	const maxRecord = 48
	header := testHeader + "\n"
	f.Add([]byte(header+`{"key":"a"}`+"\n"+`{"key":"b"}`+"\n"), []byte{5, 11, 3}, -1)
	f.Add([]byte(header+`{"key":"a"}`+"\n"+`{"key":"c","ru`), []byte{60, 2}, -1)
	f.Add([]byte(header+`{"key":"a"}`+"\n"+`{"key":"long","pad":"`+string(bytes.Repeat([]byte("x"), 64))+`"}`+"\n"+`{"key":"b"}`+"\n"), []byte{7, 40}, -1)
	f.Add([]byte(header+`{"key":"a"}`+"\n"+`{"key":"b"}`+"\n"+`{"key":"c"}`+"\n"), []byte{30, 9}, 1)
	f.Add([]byte(header+`{"key":"a"}`+"\n"+"garbage\n"+`{"key":"b"}`+"\n"), []byte{4}, 2)
	f.Fuzz(func(t *testing.T, data, cuts []byte, renameAt int) {
		if len(data) > 1<<12 {
			return
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "sweep.jsonl")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewJournalReader(nil, path, maxRecord)
		defer func() { _ = r.Close() }()
		var got [][]byte
		torn := false
		read := func(final bool) {
			err := r.Next(final, func(line []byte) bool {
				if torn {
					t.Fatalf("record %q yielded after a torn line", line)
				}
				got = append(got, line)
				return true
			})
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			torn = torn || r.Torn
		}
		written := 0
		for chunk := 0; written < len(data); chunk++ {
			n := len(data) - written
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[chunk%len(cuts)]))
			}
			file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := file.Write(data[written : written+n]); err != nil {
				t.Fatal(err)
			}
			if err := file.Close(); err != nil {
				t.Fatal(err)
			}
			written += n
			if chunk == renameAt {
				tmp := path + ".tmp"
				if err := os.WriteFile(tmp, data[:written], 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Rename(tmp, path); err != nil {
					t.Fatal(err)
				}
			}
			read(false)
		}
		read(true)

		sc, err := ScanJournal(nil, path, maxRecord)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(sc.Records) {
			t.Fatalf("incremental reads yielded %d records, one scan %d", len(got), len(sc.Records))
		}
		for i := range got {
			if !bytes.Equal(got[i], sc.Records[i]) {
				t.Fatalf("record %d: incremental %q, scan %q", i, got[i], sc.Records[i])
			}
		}
		if r.HeaderOK != sc.HeaderOK || r.Torn != sc.Torn || r.Unterminated != sc.Unterminated || r.Oversized != sc.Oversized {
			t.Fatalf("incremental reads: header %v, torn %v, unterminated %v, %d oversized; one scan: %v, %v, %v, %d",
				r.HeaderOK, r.Torn, r.Unterminated, r.Oversized, sc.HeaderOK, sc.Torn, sc.Unterminated, sc.Oversized)
		}
	})
}

// FuzzLeaseFile writes arbitrary bytes to a lease path and acquires
// the lease at a fixed fake time. The acquire must never panic. Bytes
// that do not parse as a claim act as no claim: the acquire succeeds
// with epoch 1. A refusal (*HeldError) carries exactly the claim the
// bytes parse to, and an acquire over a parsed claim takes its epoch
// + 1, in uint64 arithmetic. The acquire rewrites the file in place,
// so afterwards it holds exactly one claim line, the acquirer's, with
// nothing of the old bytes left behind it, and ReadLeaseInfo returns
// that claim. Run with
// `go test -fuzz=FuzzLeaseFile ./internal/store`; the seed corpus runs
// under plain `go test`.
func FuzzLeaseFile(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
	claim := func(epoch string, expires time.Time) []byte {
		return []byte(fmt.Sprintf(`{"owner":"replica-a","host":"elsewhere","pid":1,"epoch":%s,"expires_unix_nano":%d}`+"\n",
			epoch, expires.UnixNano()))
	}
	live := claim("7", now.Add(time.Second))
	f.Add(live)
	f.Add(claim("7", now.Add(-time.Second)))
	f.Add(live[:len(live)/2])
	f.Add([]byte{})
	f.Add(claim("18446744073709551615", now.Add(time.Second)))
	f.Add(claim("18446744073709551615", now.Add(-time.Second)))
	for _, epoch := range []string{"-1", "1e3", "123456789012345678901234567890"} {
		f.Add(claim(epoch, now.Add(time.Second)))
	}
	// Longer than any claim the acquire writes, so a rewrite that does
	// not truncate leaves a tail: garbage after a claim is no claim,
	// trailing spaces still parse.
	f.Add(append(claim("7", now.Add(-time.Second)), bytes.Repeat([]byte("x"), 200)...))
	f.Add(append(claim("7", now.Add(-time.Second)), bytes.Repeat([]byte(" "), 200)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sweep.jsonl.lease")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want LeaseInfo
		parsed := json.Unmarshal(data, &want) == nil
		l, err := AcquireLease(nil, path, "fuzz", time.Second, func() time.Time { return now })
		var held *HeldError
		switch {
		case errors.As(err, &held):
			if !parsed {
				t.Fatalf("bytes that are no claim held the lease: %+v", held.Info)
			}
			if held.Info != want {
				t.Fatalf("refusal carries claim %+v, the file holds %+v", held.Info, want)
			}
		case err != nil:
			t.Fatalf("acquire: %v", err)
		case !parsed && l.Epoch() != 1:
			t.Fatalf("acquire over no claim took epoch %d, want 1", l.Epoch())
		case parsed && l.Epoch() != want.Epoch+1:
			t.Fatalf("acquire over epoch %d took epoch %d", want.Epoch, l.Epoch())
		}
		if err != nil {
			return
		}
		mine := LeaseInfo{Owner: "fuzz", Host: hostID, PID: os.Getpid(), Epoch: l.Epoch(),
			Expires: now.Add(time.Second).UnixNano()}
		line, err := json.Marshal(mine)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(line, '\n')) {
			t.Fatalf("after the acquire the file holds %q, want the one claim line %q", got, line)
		}
		if info, live := ReadLeaseInfo(nil, path, now); !live || info != mine {
			t.Fatalf("ReadLeaseInfo = %+v (live %v), want the acquirer's claim %+v", info, live, mine)
		}
	})
}
