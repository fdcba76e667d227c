package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"capscale/internal/store"
)

// journalFS is the real filesystem with hooks on the sweep journal's
// writes and fsyncs: the compaction temp file's, which the rename
// makes the live journal. A hook sees the 1-based count of that kind
// of journal operation; a write hook's error fails the write with
// nothing applied, and a sync-error hook's error fails the sync after
// onSync has run, with the written bytes left unsynced.
type journalFS struct {
	store.FS
	onWrite func(n int) error
	onSync  func(n int)
	syncErr func(n int) error

	writes, syncs atomic.Int64
}

func (f *journalFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.Contains(filepath.Base(name), store.Ext+".tmp-") {
		return file, err
	}
	return &journalFile{File: file, fs: f}, nil
}

type journalFile struct {
	store.File
	fs *journalFS
}

func (j *journalFile) Write(p []byte) (int, error) {
	if n := j.fs.writes.Add(1); j.fs.onWrite != nil {
		if err := j.fs.onWrite(int(n)); err != nil {
			return 0, err
		}
	}
	return j.File.Write(p)
}

func (j *journalFile) Sync() error {
	n := j.fs.syncs.Add(1)
	if j.fs.onSync != nil {
		j.fs.onSync(int(n))
	}
	if j.fs.syncErr != nil {
		if err := j.fs.syncErr(int(n)); err != nil {
			return err
		}
	}
	return j.File.Sync()
}

// replayBody is what GET /v1/result returns for these records.
func replayBody(records [][]byte) []byte {
	var b bytes.Buffer
	for _, r := range records {
		b.Write(r)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestStreamNeverOutrunsTheStore: a cell whose journal append fails is
// not streamed. Either the journal's third write (header, first
// record, then the second record) fails with ENOSPC, or its second
// sync (compaction, then the first record) fails with EIO and the
// append is rolled back; the POST streams exactly what GET replays,
// and its trailer says where the journal stops.
func TestStreamNeverOutrunsTheStore(t *testing.T) {
	for name, fsys := range map[string]*journalFS{
		"write_ENOSPC": {FS: store.OS(), onWrite: func(n int) error {
			if n == 3 {
				return &os.PathError{Op: "write", Path: "journal", Err: syscall.ENOSPC}
			}
			return nil
		}},
		"sync_EIO": {FS: store.OS(), syncErr: func(n int) error {
			if n == 2 {
				return &os.PathError{Op: "sync", Path: "journal", Err: syscall.EIO}
			}
			return nil
		}},
	} {
		t.Run(name, func(t *testing.T) {
			srv, ts := testServer(t, Config{FS: fsys, Parallelism: 1})
			records, tr, status := postSweep(t, ts, smokeRequest(), "c1")
			if status != http.StatusOK {
				t.Fatalf("POST status %d", status)
			}
			srv.wg.Wait()
			status, replay := getResult(t, ts, tr.Fingerprint, "")
			if status != http.StatusOK {
				t.Fatalf("GET status %d: %s", status, replay)
			}
			if got := replayBody(records); !bytes.Equal(got, replay) {
				t.Fatalf("POST streamed what the store lacks:\nstreamed %s\nstored   %s", got, replay)
			}
			if len(records) != 1 || tr.Complete || !tr.Resumable || tr.NextFrom != 1 {
				t.Fatalf("%d records, trailer %+v; want 1 record and complete:false, resumable:true, next_from:1", len(records), tr)
			}
		})
	}
}

// TestRecordVisibleOnlyOnceDurable: a subscriber receives a cell only
// after its journal append, fsync included, has returned. The second
// record's fsync is held, and a second client attaches while it is —
// when that record's line is already in the file. Through 200 ms of
// the hold each client has exactly the first record.
func TestRecordVisibleOnlyOnceDurable(t *testing.T) {
	holding, release := make(chan struct{}), make(chan struct{})
	fsys := &journalFS{FS: store.OS(), onSync: func(n int) {
		if n == 3 { // compaction, first record, second record
			close(holding)
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
	}}
	_, ts := testServer(t, Config{FS: fsys, Parallelism: 1})
	body, _ := json.Marshal(smokeRequest())
	starter := tailSweep(t, ts, body)
	select {
	case <-holding:
	case <-time.After(10 * time.Second):
		t.Fatal("second record's fsync never started")
	}
	attacher := tailSweep(t, ts, body)
	for deadline := time.Now().Add(5 * time.Second); attacher.records.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	for name, c := range map[string]*tail{"starter": starter, "attacher": attacher} {
		if n := c.records.Load(); n != 1 {
			t.Errorf("%s: while the second record's fsync is held, the client has %d records, want 1", name, n)
		}
	}
	close(release)
	for name, c := range map[string]*tail{"starter": starter, "attacher": attacher} {
		<-c.done
		var tr trailer
		if err := json.Unmarshal(c.last, &tr); err != nil || !tr.Complete || c.records.Load() != 2 {
			t.Errorf("%s after the fsync: %d records, trailer %s", name, c.records.Load(), c.last)
		}
	}
}

// tail is a POST whose stream a goroutine reads as it arrives.
type tail struct {
	records atomic.Int64
	last    []byte // the final line; read after done
	done    chan struct{}
}

// tailSweep POSTs body in the background, since a stream's headers
// reach the client only with its first record.
func tailSweep(t *testing.T, ts *httptest.Server, body []byte) *tail {
	c := &tail{done: make(chan struct{})}
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			close(c.done)
			return
		}
		defer resp.Body.Close()
		c.read(resp.Body)
	}()
	return c
}

// read counts the stream's records as they arrive and keeps its last
// line, then closes done.
func (c *tail) read(body io.Reader) {
	defer close(c.done)
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if c.last = append([]byte(nil), sc.Bytes()...); bytes.HasPrefix(c.last, []byte(`{"key":`)) {
			c.records.Add(1)
		}
	}
}

// streamSweep POSTs body (with query) as client and reads the NDJSON
// stream, cutting the connection after cut records when cut > 0. It
// returns the records and, unless cut, the trailer.
func streamSweep(t *testing.T, ts *httptest.Server, client string, body []byte, query string, cut int) ([][]byte, *trailer) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep"+query, bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	hr.Header.Set("X-Client-ID", client)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST%s: status %d", query, resp.StatusCode)
		return nil, nil
	}
	var records [][]byte
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Errorf("POST%s: stream ended without a trailer after %d records: %v", query, len(records), err)
			return records, nil
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		if bytes.HasPrefix(line, []byte(`{"done":`)) {
			tr := &trailer{}
			if err := json.Unmarshal(line, tr); err != nil {
				t.Error(err)
			}
			return records, tr
		}
		if records = append(records, line); len(records) == cut {
			return records, nil
		}
	}
}

// TestStreamsFollowJournalOrder: under concurrency every client —
// POSTs racing to start one sweep, late attachers, and clients that
// cut their stream after k records and resume with ?from=k — receives
// the journal's records in journal order, byte for byte what GET
// replays, and every trailer's next_from is the journal's record
// count.
func TestStreamsFollowJournalOrder(t *testing.T) {
	srv, ts := testServer(t, Config{Parallelism: 2})
	req := SweepRequest{
		Algorithms: []string{"OpenBLAS", "Strassen", "CAPS"},
		Sizes:      []int{512, 1024},
		Threads:    []int{1, 2},
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	cells := cfg.CellCount()
	if cells != 12 {
		t.Fatalf("request has %d cells, want 12", cells)
	}
	body, _ := json.Marshal(req)

	const clients = 8
	got := make([][][]byte, clients)
	trailers := make([][]*trailer, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each client names itself: the quota counts open requests
			// per client, and a cut stream stays open until the server
			// sees the cut, so eight clients sharing the one quota of
			// their host could be refused the resume.
			id := fmt.Sprintf("client-%d", i)
			switch i % 3 {
			case 0: // plain POST
				recs, tr := streamSweep(t, ts, id, body, "", 0)
				got[i], trailers[i] = recs, []*trailer{tr}
			case 1: // late attacher
				time.Sleep(time.Duration(i) * 3 * time.Millisecond)
				recs, tr := streamSweep(t, ts, id, body, "", 0)
				got[i], trailers[i] = recs, []*trailer{tr}
			case 2: // cut after k records, then resume from k
				k := 1 + i
				head, _ := streamSweep(t, ts, id, body, "", k)
				tail, tr := streamSweep(t, ts, id, body, fmt.Sprintf("?from=%d", len(head)), 0)
				got[i], trailers[i] = append(head, tail...), []*trailer{tr}
			}
		}(i)
	}
	wg.Wait()
	srv.wg.Wait()
	want := waitResult(t, ts, cfg.Fingerprint(), 5*time.Second)
	if n := bytes.Count(want, []byte("\n")); n != cells {
		t.Fatalf("journal holds %d records, want %d", n, cells)
	}
	for i := 0; i < clients; i++ {
		if b := replayBody(got[i]); !bytes.Equal(b, want) {
			t.Errorf("client %d received, in order:\n%s\nGET replays:\n%s", i, b, want)
		}
		for _, tr := range trailers[i] {
			if tr == nil || !tr.Complete || tr.NextFrom != cells {
				t.Errorf("client %d: trailer %+v, want complete with next_from %d", i, tr, cells)
			}
		}
	}
}

// countFS counts the operations a sweep makes its work durable with:
// file creations, renames and fsyncs.
type countFS struct {
	store.FS
	creates, renames, syncs atomic.Int64
}

func (f *countFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 {
		f.creates.Add(1)
	}
	return &countFile{File: file, fs: f}, nil
}

func (f *countFS) Rename(oldpath, newpath string) error {
	f.renames.Add(1)
	return f.FS.Rename(oldpath, newpath)
}

type countFile struct {
	store.File
	fs *countFS
}

func (c *countFile) Sync() error {
	c.fs.syncs.Add(1)
	return c.File.Sync()
}

// TestCachedSweepCommitsOnce: on a warm server, an 8-cell POST whose
// every cell is a run-cache hit makes its records durable with one
// commit. The whole POST takes 3 fsyncs (lease, journal creation, the
// commit), 2 file creations (the lease's claim file and the journal's)
// and 1 rename (the journal's), and while the commit's fsync is held
// no subscriber, starter or attacher, has received a record.
func TestCachedSweepCommitsOnce(t *testing.T) {
	var commit atomic.Int64 // the journal fsync to hold; 0 = none
	holding, release := make(chan struct{}), make(chan struct{})
	jfs := &journalFS{FS: store.OS(), onSync: func(n int) {
		if int64(n) == commit.Load() {
			close(holding)
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
	}}
	fsys := &countFS{FS: jfs}
	srv, ts := testServer(t, Config{FS: fsys, Parallelism: 2})
	warm := SweepRequest{
		Algorithms: []string{"OpenBLAS", "Strassen"},
		Sizes:      []int{64, 96},
		Threads:    []int{1, 2},
	}
	if _, tr, status := postSweep(t, ts, warm, "warm"); status != http.StatusOK || !tr.Complete || tr.Cells != 8 {
		t.Fatalf("warm-up sweep: status %d trailer %+v", status, tr)
	}
	srv.wg.Wait()

	// The same cells under a new fingerprint: every one a cache hit.
	hot := warm
	hot.QuiesceSeconds = 2
	body, _ := json.Marshal(hot)
	commit.Store(jfs.syncs.Load() + 2) // compaction, then the commit
	creates, renames, syncs := fsys.creates.Load(), fsys.renames.Load(), fsys.syncs.Load()
	exec := executedDelta()
	starter := tailSweep(t, ts, body)
	select {
	case <-holding:
	case <-time.After(10 * time.Second):
		t.Fatal("the commit's fsync never started")
	}
	attached := mAttached.Value()
	attacher := tailSweep(t, ts, body)
	for deadline := time.Now().Add(5 * time.Second); mAttached.Value() == attached && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	for name, c := range map[string]*tail{"starter": starter, "attacher": attacher} {
		if n := c.records.Load(); n != 0 {
			t.Errorf("%s: while the commit's fsync is held, the client has %d records, want 0", name, n)
		}
	}
	close(release)
	for name, c := range map[string]*tail{"starter": starter, "attacher": attacher} {
		<-c.done
		var tr trailer
		if err := json.Unmarshal(c.last, &tr); err != nil || !tr.Complete || c.records.Load() != 8 {
			t.Errorf("%s after the commit: %d records, trailer %s", name, c.records.Load(), c.last)
		}
	}
	srv.wg.Wait()
	if d := exec(); d != 0 {
		t.Errorf("the cached sweep simulated %d cells, want 0", d)
	}
	got := [3]int64{fsys.syncs.Load() - syncs, fsys.creates.Load() - creates, fsys.renames.Load() - renames}
	if want := [3]int64{3, 2, 1}; got != want {
		t.Errorf("the cached POST made %d fsyncs, %d creations and %d renames; want %d, %d and %d",
			got[0], got[1], got[2], want[0], want[1], want[2])
	}
}
