package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"capscale/internal/obs"
	"capscale/internal/store"
	"capscale/internal/workload"
)

// storeExt is the journal filename extension in a store directory.
const storeExt = store.Ext

// testServer returns a Server over a fresh temp store plus an
// httptest front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// smokeRequest is a fast 2-cell sweep request.
func smokeRequest() SweepRequest {
	return SweepRequest{
		Algorithms: []string{"OpenBLAS", "Strassen"},
		Sizes:      []int{64},
		Threads:    []int{1},
	}
}

// postSweep POSTs the request and splits the NDJSON response into
// record lines and the trailer.
func postSweep(t *testing.T, ts *httptest.Server, req SweepRequest, client string) (records [][]byte, tr trailer, status int) {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest("POST", ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		hr.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, trailer{}, resp.StatusCode
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var probe struct {
			Done bool   `json:"done"`
			Key  string `json:"key"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if probe.Key == "" {
			t.Fatalf("record line without key: %s", line)
		}
		records = append(records, append([]byte(nil), line...))
	}
	return records, tr, resp.StatusCode
}

func executedDelta() func() int64 {
	c := obs.GetCounter("workload.cells.executed")
	start := c.Value()
	return func() int64 { return c.Value() - start }
}

// TestSweepStreamAndReplay: a POSTed sweep streams every cell record
// plus a complete trailer, and GET /v1/result/{fp} replays the same
// records byte-identically (and stably across replays).
func TestSweepStreamAndReplay(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	cells := cfg.CellCount()

	records, tr, status := postSweep(t, ts, req, "c1")
	if status != http.StatusOK {
		t.Fatalf("POST status %d", status)
	}
	if len(records) != cells {
		t.Fatalf("streamed %d records, want %d", len(records), cells)
	}
	if !tr.Done || !tr.Complete || tr.Error != "" || tr.Cells != cells {
		t.Fatalf("bad trailer: %+v", tr)
	}
	if tr.Fingerprint != cfg.Fingerprint() {
		t.Fatalf("trailer fingerprint %s, want %s", tr.Fingerprint, cfg.Fingerprint())
	}
	// Every streamed line parses as a journal record.
	for _, line := range records {
		if _, _, err := workload.UnmarshalRunRecord(line); err != nil {
			t.Fatal(err)
		}
	}

	get := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/result/" + tr.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET status %d", resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	replay1, replay2 := get(), get()
	if !bytes.Equal(replay1, replay2) {
		t.Fatal("replays of one stored result differ")
	}
	// The replay's record lines are byte-identical to the streamed
	// ones (order may differ: the stream is completion order).
	sortLines := func(lines [][]byte) []string {
		out := make([]string, len(lines))
		for i, l := range lines {
			out[i] = string(l)
		}
		sort.Strings(out)
		return out
	}
	replayed := bytes.Split(bytes.TrimSuffix(replay1, []byte("\n")), []byte("\n"))
	got, want := sortLines(replayed), sortLines(records)
	if len(got) != len(want) {
		t.Fatalf("replay has %d records, stream had %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("replayed record differs from streamed record:\n%s\n%s", got[i], want[i])
		}
	}
}

// TestConcurrentSweepsSingleFlight is the acceptance test: N clients
// POST the identical sweep concurrently; every client receives every
// cell record, yet each cell executes exactly once across the whole
// server (single-flight at the sweep level, run-cache and checkpoint
// dedup underneath).
func TestConcurrentSweepsSingleFlight(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	cells := cfg.CellCount()
	delta := executedDelta()

	const clients = 4
	var wg sync.WaitGroup
	recCounts := make([]int, clients)
	complete := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			records, tr, status := postSweep(t, ts, req, fmt.Sprintf("client-%d", i))
			if status != http.StatusOK {
				return
			}
			recCounts[i] = len(records)
			complete[i] = tr.Complete
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if recCounts[i] != cells || !complete[i] {
			t.Fatalf("client %d: %d records (want %d), complete=%v", i, recCounts[i], cells, complete[i])
		}
	}
	if d := delta(); d != int64(cells) {
		t.Fatalf("%d concurrent identical sweeps executed %d cells, want %d (each cell exactly once)", clients, d, cells)
	}

	// A later identical POST resumes entirely from the store: zero new
	// executions, full result.
	delta2 := executedDelta()
	records, tr, status := postSweep(t, ts, req, "late")
	if status != http.StatusOK || len(records) != cells || !tr.Complete {
		t.Fatalf("resume POST: status %d, %d records, complete=%v", status, len(records), tr.Complete)
	}
	if d := delta2(); d != 0 {
		t.Fatalf("resumed sweep re-executed %d cells, want 0", d)
	}
}

// TestAttachDoesNotExecute: requests arriving while a sweep with the
// same fingerprint is in flight attach to it instead of executing —
// even when the executor slot limit is exhausted.
func TestAttachDoesNotExecute(t *testing.T) {
	srv, ts := testServer(t, Config{MaxActiveSweeps: 1})
	req := smokeRequest()
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp := cfg.Fingerprint()

	// Plant an in-flight sweep so the POST below must attach: its
	// state, and the journal its executor would have written.
	header := fmt.Sprintf(`{"version":1,"fingerprint":%q}`, fp)
	if err := os.WriteFile(srv.store.Path(fp), []byte(header+"\n"+`{"key":"planted"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := newSweepState(fp, cfg.CellCount())
	srv.mu.Lock()
	srv.sweeps[fp] = st
	srv.active = srv.cfg.MaxActiveSweeps
	srv.mu.Unlock()

	attached0 := obs.GetCounter("serve.sweeps.attached").Value()
	delta := executedDelta()
	type result struct {
		records [][]byte
		tr      trailer
		status  int
	}
	resc := make(chan result, 1)
	go func() {
		records, tr, status := postSweep(t, ts, req, "attacher")
		resc <- result{records, tr, status}
	}()

	// Wait for the subscriber, then feed the planted sweep.
	deadline := time.Now().Add(5 * time.Second)
	for obs.GetCounter("serve.sweeps.attached").Value() == attached0 {
		if time.Now().After(deadline) {
			t.Fatal("POST never attached")
		}
		time.Sleep(time.Millisecond)
	}
	st.announce("planted")
	st.finish("", true)

	res := <-resc
	if res.status != http.StatusOK || len(res.records) != 1 || string(res.records[0]) != `{"key":"planted"}` {
		t.Fatalf("attached stream: status %d, records %q", res.status, res.records)
	}
	if d := delta(); d != 0 {
		t.Fatalf("attach executed %d cells, want 0", d)
	}

	srv.mu.Lock()
	delete(srv.sweeps, fp)
	srv.active = 0
	srv.mu.Unlock()
}

// TestBackpressure: when every executor slot is busy, a
// new-fingerprint POST gets 429 with Retry-After instead of queueing.
func TestBackpressure(t *testing.T) {
	srv, ts := testServer(t, Config{MaxActiveSweeps: 1})
	srv.mu.Lock()
	srv.active = 1 // all slots busy
	srv.mu.Unlock()
	defer func() {
		srv.mu.Lock()
		srv.active = 0
		srv.mu.Unlock()
	}()

	body, _ := json.Marshal(smokeRequest())
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestClientQuota: a client at its open-request quota gets 429; other
// clients are unaffected.
func TestClientQuota(t *testing.T) {
	srv, _ := testServer(t, Config{ClientQuota: 2})
	hr := httptest.NewRequest("GET", "/v1/status", nil)
	hr.Header.Set("X-Client-ID", "greedy")

	for i := 0; i < 2; i++ {
		if _, ok := srv.admit(httptest.NewRecorder(), hr); !ok {
			t.Fatalf("request %d rejected under quota", i)
		}
	}
	w := httptest.NewRecorder()
	if _, ok := srv.admit(w, hr); ok {
		t.Fatal("request over quota admitted")
	}
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", w.Code)
	}
	other := httptest.NewRequest("GET", "/v1/status", nil)
	other.Header.Set("X-Client-ID", "polite")
	if _, ok := srv.admit(httptest.NewRecorder(), other); !ok {
		t.Fatal("unrelated client rejected")
	}
	srv.release("polite")
	srv.release("greedy")
	srv.release("greedy")
	// Quota frees with release.
	if _, ok := srv.admit(httptest.NewRecorder(), hr); !ok {
		t.Fatal("request rejected after quota freed")
	}
	srv.release("greedy")

	// Without the header the client is the remote host, whatever the
	// port of the connection.
	solo, _ := testServer(t, Config{ClientQuota: 1})
	from := func(addr string) *http.Request {
		r := httptest.NewRequest("GET", "/v1/status", nil)
		r.RemoteAddr = addr
		return r
	}
	first, ok := solo.admit(httptest.NewRecorder(), from("192.0.2.1:1111"))
	if !ok {
		t.Fatal("first connection of a host rejected under quota")
	}
	w = httptest.NewRecorder()
	if _, ok := solo.admit(w, from("192.0.2.1:2222")); ok || w.Code != http.StatusTooManyRequests {
		t.Fatalf("second connection of the host admitted (status %d), want 429", w.Code)
	}
	second, ok := solo.admit(httptest.NewRecorder(), from("198.51.100.7:1111"))
	if !ok {
		t.Fatal("another host rejected")
	}
	solo.release(first)
	solo.release(second)
}

// TestDrainRejectsNewWork: after Drain, requests get 503 and the
// status document reports draining.
func TestDrainRejectsNewWork(t *testing.T) {
	srv, ts := testServer(t, Config{})
	if !srv.Drain(time.Second) {
		t.Fatal("idle server did not drain")
	}
	body, _ := json.Marshal(smokeRequest())
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

// TestResultEndpointValidation: malformed fingerprints are rejected
// (they are also the path-traversal surface), unknown ones 404.
func TestResultEndpointValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for path, want := range map[string]int{
		"/v1/result/not-hex-at-all!":   http.StatusBadRequest,
		"/v1/result/..%2f..%2fetc":     http.StatusBadRequest,
		"/v1/result/0123456789abcdef":  http.StatusNotFound,
		"/v1/result/0123456789ABCDEF":  http.StatusBadRequest, // fingerprints are lower-case
		"/v1/result/0123456789abcdef0": http.StatusBadRequest, // 17 digits
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestSweepRequestValidation: bad requests are answered 400 with a
// usable message, not executed.
func TestSweepRequestValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"bad JSON", `{`, "bad request JSON"},
		{"unknown algorithm", `{"algorithms":["FFT"]}`, "unknown algorithm"},
		{"unknown machine", `{"machine":"Cray-1"}`, "unknown machine"},
		{"unknown plan", `{"plan":"psychic"}`, "unknown plan"},
		{"distributed without clusters", `{"algorithms":["SUMMA"]}`, "cluster"},
		{"non-finite cluster memory", `{"algorithms":["SUMMA"],"clusters":["16x1GbE@NaN"]}`, "bad memory"},
		// A repeated value names one cell twice: the sweep would count
		// it twice, journal it once and never report complete.
		{"repeated size", repeatedSizeBody, "repeated"},
		{"repeated cluster spec", `{"algorithms":["SUMMA"],"clusters":["4x1GbE","4x1GbE@8GiB"]}`, "repeated"},
		// Bodies under the read limit whose matrices once ran the
		// process out of memory while their cells were counted.
		{"40,000 repeated sizes and threads", string(repeatedAxesBody()), "repeated"},
		{"20,000 sizes × 20,000 cluster specs", string(distinctAxesBody()), "split the sweep"},
		// One cell each that would run the server out of memory.
		{"Strassen at n=32768", hugeSizeBody, "served limit"},
		{"DStrassen on 256 nodes", manyNodesBody, "served limit"},
		{"DStrassen on 4096 nodes", hugeClusterBody, "served limit"},
	}
	// An over-the-cell-limit matrix (3 algorithms × 400 sizes × 4
	// threads) is refused before executing anything.
	big := smokeRequest()
	big.Algorithms = nil
	big.Threads = []int{1, 2, 3, 4}
	big.Sizes = nil
	for n := 64; len(big.Sizes) < 400; n += 16 {
		big.Sizes = append(big.Sizes, n)
	}
	bigBody, _ := json.Marshal(big)
	cases = append(cases, struct {
		name string
		body string
		want string
	}{"oversized matrix", string(bigBody), "split the sweep"})
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, msg, tc.want)
		}
	}
}

// TestStatusAndVars: the status document reflects the counters and
// /debug/vars exposes the obs registry.
func TestStatusAndVars(t *testing.T) {
	_, ts := testServer(t, Config{})
	if _, tr, status := postSweep(t, ts, smokeRequest(), "c1"); status != http.StatusOK || !tr.Complete {
		t.Fatalf("sweep failed: status %d, trailer %+v", status, tr)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var doc statusJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.SweepsStarted < 1 || doc.SweepsCompleted < 1 || doc.CellsStreamed < 2 {
		t.Fatalf("status counters did not advance: %+v", doc)
	}
	if doc.StoredResults != 1 {
		t.Fatalf("stored_results = %d, want 1", doc.StoredResults)
	}
	if doc.ActiveSweeps != 0 || doc.Draining {
		t.Fatalf("idle server reports %+v", doc)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, key := range []string{"obs.serve.sweeps.started", "obs.workload.cells.executed"} {
		if !strings.Contains(string(vars), key) {
			t.Errorf("/debug/vars misses %s", key)
		}
	}
}
