package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"capscale/internal/faults"
	"capscale/internal/store"
)

// silentServer is httptest.NewServer with net/http's panic logging
// discarded — the crash tests panic handlers on purpose, hundreds of
// times.
func silentServer(h http.Handler) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	return ts
}

// getResult GETs /v1/result/{fp}, returning status and body.
func getResult(t *testing.T, ts *httptest.Server, fp, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/result/" + fp + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// waitResult polls GET /v1/result/{fp} until it returns 200 (409 while
// the sweep is in flight) or the deadline passes.
func waitResult(t *testing.T, ts *httptest.Server, fp string, deadline time.Duration) []byte {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		status, body := getResult(t, ts, fp, "")
		if status == http.StatusOK {
			return body
		}
		if time.Now().After(end) {
			t.Fatalf("result for %s not available: last status %d: %s", fp, status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashEveryPointRecoversByteIdentical is the crash oracle for the
// whole service stack: a reference run counts the mutating filesystem
// operations a sweep performs (lease claim, request sidecar, journal
// creation, per-cell appends, release); then, for every k up to that
// count, a fresh fault filesystem replays the sweep with simulated
// power loss at op k — torn tails enabled — and a recovering server
// (salvage + lease takeover + checkpoint resume) must converge to a
// GET /v1/result replay byte-identical to the uninterrupted run.
// Parallelism 1 keeps the mutating-op sequence deterministic.
func TestCrashEveryPointRecoversByteIdentical(t *testing.T) {
	const dir = "crash-store"
	prof := faults.FSProfile{CrashTornFrac: 0.4}
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()
	body, _ := json.Marshal(req)

	post := func(ts *httptest.Server) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			return // connection killed by a crash mid-handler: expected
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}

	// Reference: the uninterrupted run, and the op count to crash within.
	ref := faults.NewFaultFS(prof, 1)
	refSrv, err := New(Config{StoreDir: dir, FS: ref, Parallelism: 1, ReplicaID: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	refTS := silentServer(refSrv.Handler())
	// CrashAt is relative to the op counter at arming time (after New's
	// MkdirAll), so count only the ops the POST itself performs.
	base := ref.Ops()
	post(refTS)
	refSrv.wg.Wait()
	want := waitResult(t, refTS, fp, 5*time.Second)
	refTS.Close()
	total := ref.Ops() - base
	if len(want) == 0 || total < 10 {
		t.Fatalf("implausible reference: %d bytes, %d ops", len(want), total)
	}

	for k := int64(1); k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("op%03d", k), func(t *testing.T) {
			ffs := faults.NewFaultFS(prof, 1_000+k)
			srv, err := New(Config{StoreDir: dir, FS: ffs, Parallelism: 1, ReplicaID: "victim"})
			if err != nil {
				t.Fatal(err)
			}
			ts := silentServer(srv.Handler())
			ffs.CrashAt(k)
			post(ts)
			srv.wg.Wait()
			ts.Close()
			if ffs.Stats().Crashes != 1 {
				t.Fatalf("crash-point %d did not fire (crashes=%d, total ops this run %d)",
					k, ffs.Stats().Crashes, ffs.Ops())
			}

			// Power back on. The victim's lease file may have survived
			// (it was written durably before the crash); in production
			// the dead PID or the TTL frees it — in-process, the PID is
			// alive, so model expiry by removing it.
			ffs.Reboot()
			_ = ffs.Remove(dir + "/" + fp + storeExt + ".lease")

			rec, err := New(Config{StoreDir: dir, FS: ffs, Parallelism: 1, ReplicaID: "recoverer"})
			if err != nil {
				t.Fatal(err)
			}
			recTS := silentServer(rec.Handler())
			defer recTS.Close()
			rec.Recover(nil)
			// A crash before anything durable hit the disk leaves nothing
			// for Recover to resume; the client's bounded-retry contract
			// covers that — it re-POSTs. Do the same unconditionally:
			// it attaches to a recovered sweep, restores a complete
			// journal, or restarts from scratch, whichever applies.
			post(recTS)
			rec.wg.Wait()

			got := waitResult(t, recTS, fp, 10*time.Second)
			if !bytes.Equal(got, want) {
				t.Fatalf("crash at op %d: recovered replay differs from uninterrupted run:\nwant %d bytes:\n%s\ngot %d bytes:\n%s",
					k, len(want), want, len(got), got)
			}
		})
	}
}

// TestRecoverResumesInterruptedSweep: a journal with a partial prefix,
// the request in its header, and no live lease is picked up by Recover
// without any client asking, and the finished result replays
// completely.
func TestRecoverResumesInterruptedSweep(t *testing.T) {
	dir := t.TempDir()
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()

	// Phase 1: run the sweep completely, then truncate the journal to a
	// strict prefix — a faithful image of a crash after the first cell.
	srv1, ts1 := testServer(t, Config{StoreDir: dir, Parallelism: 1})
	if _, tr, status := postSweep(t, ts1, req, "c1"); status != http.StatusOK || !tr.Complete {
		t.Fatalf("seed sweep: status %d trailer %+v", status, tr)
	}
	srv1.wg.Wait()
	full := waitResult(t, ts1, fp, 5*time.Second)

	path := srv1.store.Path(fp)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal too small to truncate: %d lines", len(lines))
	}
	// Keep header + first record only.
	if err := os.WriteFile(path, append(append([]byte(nil), lines[0]...), lines[1]...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh replica recovers the store on startup.
	exec := executedDelta()
	srv2, err := New(Config{StoreDir: dir, Parallelism: 1, ReplicaID: "recoverer"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resumed, _ := srv2.Recover(nil)
	if resumed != 1 {
		t.Fatalf("Recover resumed %d sweeps, want 1", resumed)
	}
	srv2.wg.Wait()
	got := waitResult(t, ts2, fp, 5*time.Second)
	if !bytes.Equal(got, full) {
		t.Fatalf("recovered result differs:\nwant %s\ngot  %s", full, got)
	}
	if d := exec(); d >= int64(cfg.CellCount()) {
		t.Fatalf("recovery re-executed everything (%d cells executed, sweep has %d); the journaled cell should have been restored", d, cfg.CellCount())
	}
}

// TestFollowerStreamsLeaseholderSweep: a replica asked for a sweep
// whose lease another replica holds cannot claim it, so it follows the
// holder's journal and still delivers the complete record stream. The
// test itself plays the leaseholder — it claims the lease as
// "replica-a" and journals cells one at a time — so the follower path
// is forced deterministically instead of racing a real sweep that
// might finish (and release the lease) before the second POST lands.
func TestFollowerStreamsLeaseholderSweep(t *testing.T) {
	req := SweepRequest{
		Algorithms: []string{"OpenBLAS", "Strassen"},
		Sizes:      []int{64, 96},
		Threads:    []int{1, 2},
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	cells := cfg.CellCount()
	fp := cfg.Fingerprint()

	// Harvest genuine journal bytes from a scratch run so the journal
	// the fake leaseholder feeds is indistinguishable from one written
	// by a live replica.
	scratch, tsS := testServer(t, Config{Parallelism: 1})
	if _, tr, status := postSweep(t, tsS, req, "seed"); status != http.StatusOK || !tr.Complete {
		t.Fatalf("scratch sweep: status %d trailer %+v", status, tr)
	}
	scratch.wg.Wait()
	raw, err := os.ReadFile(scratch.store.Path(fp))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != cells+1 {
		t.Fatalf("scratch journal has %d lines, want header + %d records", len(lines), cells)
	}
	header, recs := lines[0], lines[1:]

	srvB, tsB := testServer(t, Config{Parallelism: 1, ReplicaID: "replica-b",
		FollowPoll: time.Millisecond})
	jpath := srvB.store.Path(fp)
	lease, err := store.AcquireLease(nil, store.LeasePath(jpath), "replica-a", time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lease.Release() }()
	j, err := store.CreateJournal(nil, jpath, header, recs[:1], lease, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	// Feed the remaining cells while the follower is streaming; the
	// lease stays held throughout, so B can never take the sweep over.
	go func() {
		for _, rec := range recs[1:] {
			time.Sleep(2 * time.Millisecond)
			if err := j.Append(rec); err != nil {
				return
			}
		}
	}()

	records, tr, status := postSweep(t, tsB, req, "client-b")
	if status != http.StatusOK {
		t.Fatalf("follower POST status %d", status)
	}
	if !tr.Complete || tr.Error != "" {
		t.Fatalf("follower trailer: %+v", tr)
	}
	if len(records) != cells {
		t.Fatalf("follower streamed %d records, want %d", len(records), cells)
	}
	if tr.NextFrom != cells {
		t.Fatalf("follower trailer next_from = %d, want %d (journal-backed streams carry exact tokens)", tr.NextFrom, cells)
	}
	for i, rec := range records {
		if !bytes.Equal(rec, recs[i]) {
			t.Fatalf("follower record %d diverges from the leaseholder's journal:\n got %s\nwant %s", i, rec, recs[i])
		}
	}
}

// TestResumeTokenExactContinuation: ?from=N on a finished sweep
// returns exactly the records after N — re-POSTing with the trailer's
// next_from replays nothing twice and loses nothing.
func TestResumeTokenExactContinuation(t *testing.T) {
	srv, ts := testServer(t, Config{Parallelism: 1})
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()
	cells := cfg.CellCount()

	if _, tr, status := postSweep(t, ts, req, "c1"); status != http.StatusOK || !tr.Complete {
		t.Fatalf("seed sweep: status %d trailer %+v", status, tr)
	}
	srv.wg.Wait()
	full := waitResult(t, ts, fp, 5*time.Second)
	fullLines := bytes.SplitAfter(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if len(fullLines) != cells {
		t.Fatalf("replay has %d lines, want %d", len(fullLines), cells)
	}

	// Every 200 GET carries the stored record count in X-Next-From.
	for _, query := range []string{"", "?from=0"} {
		resp, err := http.Get(ts.URL + "/v1/result/" + fp + query)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if got := resp.Header.Get("X-Next-From"); resp.StatusCode != http.StatusOK || got != strconv.Itoa(cells) {
			t.Fatalf("GET %q: status %d, X-Next-From %q, want %d", query, resp.StatusCode, got, cells)
		}
	}

	// GET with ?from=1 returns the tail plus the exact next token.
	status, tail := getResult(t, ts, fp, "?from=1")
	if status != http.StatusOK {
		t.Fatalf("GET ?from=1 status %d: %s", status, tail)
	}
	wantTail := bytes.Join(fullLines[1:], nil)
	if !bytes.Equal(bytes.TrimSuffix(tail, []byte("\n")), bytes.TrimSuffix(wantTail, []byte("\n"))) {
		t.Fatalf("?from=1 tail mismatch:\nwant %s\ngot  %s", wantTail, tail)
	}

	// POST with ?from=1 streams the same tail and a complete trailer
	// carrying next_from == total records.
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweep?from=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST ?from=1: status %d err %v", resp.StatusCode, err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	var tr trailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Complete || tr.NextFrom != cells || len(lines)-1 != cells-1 {
		t.Fatalf("resumed stream: %d records, trailer %+v (want %d records, next_from %d)",
			len(lines)-1, tr, cells-1, cells)
	}
	for i, line := range lines[:len(lines)-1] {
		if !bytes.Equal(line, bytes.TrimSuffix(fullLines[i+1], []byte("\n"))) {
			t.Fatalf("resumed record %d differs:\nwant %s\ngot  %s", i, fullLines[i+1], line)
		}
	}

	// Beyond-the-end and malformed tokens are client errors. (The
	// resumed POST restarted an executor to guarantee progress; let it
	// finish restoring first.)
	srv.wg.Wait()
	waitResult(t, ts, fp, 5*time.Second)
	if status, body := getResult(t, ts, fp, "?from=99"); status != http.StatusBadRequest {
		t.Fatalf("?from=99 status %d: %s", status, body)
	}
	if status, body := getResult(t, ts, fp, "?from=-1"); status != http.StatusBadRequest {
		t.Fatalf("?from=-1 status %d: %s", status, body)
	}
}

// TestTakeoverOfDeadReplica: a store holds a partial journal and a
// lease owned by a verifiably dead process. A follower asked for the
// sweep detects the dead holder, steals the lease, and completes the
// sweep — each remaining cell executed exactly once.
func TestTakeoverOfDeadReplica(t *testing.T) {
	dir := t.TempDir()
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()

	// Seed a complete run, truncate to a prefix, and plant a dead
	// holder's lease with a far-future expiry — only the PID liveness
	// probe can free it.
	srv1, ts1 := testServer(t, Config{StoreDir: dir, Parallelism: 1})
	if _, tr, status := postSweep(t, ts1, req, "c1"); status != http.StatusOK || !tr.Complete {
		t.Fatalf("seed sweep: status %d trailer %+v", status, tr)
	}
	srv1.wg.Wait()
	full := waitResult(t, ts1, fp, 5*time.Second)
	path := srv1.store.Path(fp)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if err := os.WriteFile(path, append(append([]byte(nil), lines[0]...), lines[1]...), 0o644); err != nil {
		t.Fatal(err)
	}
	planted := plantDeadLease(t, srv1.store.LeasePath(fp))

	srv2, ts2 := testServer(t, Config{StoreDir: dir, Parallelism: 1, ReplicaID: "survivor",
		FollowPoll: 5 * time.Millisecond})
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts2.URL+"/v1/sweep?from=0", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("takeover POST: status %d err %v", resp.StatusCode, err)
	}
	sLines := bytes.Split(bytes.TrimSuffix(streamed, []byte("\n")), []byte("\n"))
	var tr trailer
	if err := json.Unmarshal(sLines[len(sLines)-1], &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Complete {
		t.Fatalf("takeover stream incomplete: %+v", tr)
	}
	srv2.wg.Wait()
	got := waitResult(t, ts2, fp, 5*time.Second)
	if !bytes.Equal(got, full) {
		t.Fatalf("post-takeover replay differs:\nwant %s\ngot  %s", full, got)
	}
	// The survivor's claim must fence the dead epoch behind it.
	if info, _ := store.ReadLeaseInfo(nil, srv2.store.LeasePath(fp), time.Now()); info.Owner != "" && info.Epoch <= planted.Epoch {
		t.Fatalf("lease epoch did not advance past the dead holder's: %+v", info)
	}
}

// plantDeadLease writes a lease owned by a dead PID on this host and
// returns it.
func plantDeadLease(t *testing.T, path string) store.LeaseInfo {
	t.Helper()
	host, err := os.Hostname()
	if err != nil {
		t.Fatal(err)
	}
	// Spawn a process and wait for it: its PID is verifiably dead.
	pid := deadPID(t)
	info := store.LeaseInfo{
		Owner:   "dead-replica",
		Host:    host,
		PID:     pid,
		Epoch:   3,
		Expires: time.Now().Add(time.Hour).UnixNano(),
	}
	raw, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, live := store.ReadLeaseInfo(nil, path, time.Now()); live {
		t.Skip("planted dead PID reads as live on this platform")
	}
	return info
}

// deadPID returns a PID with no process behind it.
func deadPID(t *testing.T) int {
	t.Helper()
	for pid := 1 << 21; pid > 1<<20; pid-- {
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			return pid
		}
	}
	t.Skip("no dead PID found")
	return 0
}

// TestRecoverReadsRequestFromHeaderOrSidecar: the request rides in
// the journal's header, and no sidecar is written. A resumed sweep's
// compacted journal keeps the request, so a second crash still
// resumes.
func TestRecoverReadsRequestFromHeaderOrSidecar(t *testing.T) {
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()
	body, _ := json.Marshal(req)

	dir := t.TempDir()
	srv1, ts1 := testServer(t, Config{StoreDir: dir, Parallelism: 1})
	if _, tr, status := postSweep(t, ts1, req, "c1"); status != http.StatusOK || !tr.Complete {
		t.Fatalf("seed sweep: status %d trailer %+v", status, tr)
	}
	srv1.wg.Wait()
	full := waitResult(t, ts1, fp, 5*time.Second)
	if reqs, err := filepath.Glob(filepath.Join(dir, "*.req")); err != nil || len(reqs) != 0 {
		t.Fatalf("request sidecars %v (err %v), want none", reqs, err)
	}
	path := srv1.store.Path(fp)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	var hdr store.Header
	if err := json.Unmarshal(lines[0], &hdr); err != nil || !bytes.Equal(hdr.Request, body) {
		t.Fatalf("journal header %s (err %v), want the request %s in it", lines[0], err, body)
	}

	// resume starts a fresh replica on dir and wants it to resume the
	// sweep by itself, complete it, and leave the request in the
	// journal's header.
	resume := func(name, dir string) {
		t.Helper()
		srv, err := New(Config{StoreDir: dir, Parallelism: 1, ReplicaID: name})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if resumed, _ := srv.Recover(nil); resumed != 1 {
			t.Fatalf("%s: Recover resumed %d sweeps, want 1", name, resumed)
		}
		srv.wg.Wait()
		if got := waitResult(t, ts, fp, 5*time.Second); !bytes.Equal(got, full) {
			t.Fatalf("%s: recovered result differs:\nwant %s\ngot  %s", name, full, got)
		}
		sc, err := store.ScanJournal(nil, srv.store.Path(fp), store.MaxRecord)
		if err != nil || !bytes.Equal(sc.Header.Request, body) {
			t.Fatalf("%s: the resumed journal's header is %s (err %v), want the request in it", name, sc.HeaderLine, err)
		}
	}
	// A crash after the first cell, twice over: each time the journal
	// holds the header and the first record alone.
	for _, name := range []string{"first-recoverer", "second-recoverer"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(raw, []byte("\n"))
		if err := os.WriteFile(path, append(append([]byte(nil), lines[0]...), lines[1]...), 0o644); err != nil {
			t.Fatal(err)
		}
		resume(name, dir)
	}
}

// TestCrashEveryPointOfCachedSweepRecovers is the crash oracle for the
// commit of run-cache hits: the sweep of
// TestCrashEveryPointRecoversByteIdentical, POSTed to a server whose
// warm-up sweep (another fingerprint, the same cells) left every cell
// in its run cache, so all records are journaled with one write and
// one fsync. Power is lost at every mutating op the POST performs,
// torn tails enabled, and a recovering server must converge to the
// uninterrupted run's replay.
func TestCrashEveryPointOfCachedSweepRecovers(t *testing.T) {
	const dir = "cached-crash-store"
	prof := faults.FSProfile{CrashTornFrac: 0.4}
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()
	warm := req
	warm.QuiesceSeconds = 2
	body, _ := json.Marshal(req)
	warmBody, _ := json.Marshal(warm)

	post := func(ts *httptest.Server, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			return // connection killed by a crash mid-handler: expected
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	// start returns a warmed-up server on ffs.
	start := func(ffs *faults.FaultFS, id string) (*Server, *httptest.Server) {
		srv, err := New(Config{StoreDir: dir, FS: ffs, Parallelism: 1, ReplicaID: id})
		if err != nil {
			t.Fatal(err)
		}
		ts := silentServer(srv.Handler())
		post(ts, warmBody)
		srv.wg.Wait()
		return srv, ts
	}

	ref := faults.NewFaultFS(prof, 1)
	refSrv, refTS := start(ref, "ref")
	base := ref.Ops()
	exec := executedDelta()
	post(refTS, body)
	refSrv.wg.Wait()
	if d := exec(); d != 0 {
		t.Fatalf("the reference sweep simulated %d cells; its cells should all be cached", d)
	}
	want := waitResult(t, refTS, fp, 5*time.Second)
	refTS.Close()
	total := ref.Ops() - base
	if len(want) == 0 || total < 10 {
		t.Fatalf("implausible reference: %d bytes, %d ops", len(want), total)
	}

	for k := int64(1); k <= total; k++ {
		t.Run(fmt.Sprintf("op%03d", k), func(t *testing.T) {
			ffs := faults.NewFaultFS(prof, 2_000+k)
			srv, ts := start(ffs, "victim")
			ffs.CrashAt(k)
			post(ts, body)
			srv.wg.Wait()
			ts.Close()
			if ffs.Stats().Crashes != 1 {
				t.Fatalf("crash-point %d did not fire (crashes=%d)", k, ffs.Stats().Crashes)
			}
			ffs.Reboot()
			_ = ffs.Remove(dir + "/" + fp + storeExt + ".lease")

			rec, err := New(Config{StoreDir: dir, FS: ffs, Parallelism: 1, ReplicaID: "recoverer"})
			if err != nil {
				t.Fatal(err)
			}
			recTS := silentServer(rec.Handler())
			defer recTS.Close()
			rec.Recover(nil)
			post(recTS, body)
			rec.wg.Wait()
			if got := waitResult(t, recTS, fp, 10*time.Second); !bytes.Equal(got, want) {
				t.Fatalf("crash at op %d: recovered replay differs from uninterrupted run:\nwant %s\ngot  %s", k, want, got)
			}
		})
	}
}
