package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"capscale/internal/serve"
	"capscale/internal/workload"
)

// The served workloads drive a real epscaled, built from this checkout
// before timing starts, over HTTP from this process: two client
// goroutines, at most two connections, closed loop. Every instance is
// a fresh daemon on an empty store directory that is removed
// afterwards, so no instance replays results an earlier one stored.
//
// serve-cold: every request is the same 24-cell matrix with a poll
// interval no earlier request of the run had, so every request has a
// new fingerprint and a new run-cache key and every cell is simulated.
//
// serve-hot: set-up sweeps a 48-cell universe once. Then a seeded coin
// picks each client's next operation: a POST of a random non-empty
// sub-matrix of the universe with a quiesce gap no earlier request had
// (new fingerprint, every cell a run-cache hit, so the time goes to
// lease, sidecar, journal create, per-record fsync, marshal and HTTP),
// or a GET replay of a fingerprint the run already completed.

const (
	// clients is the number of closed-loop client goroutines.
	clients = 2
	// getShare is serve-hot's probability that an operation is a GET.
	getShare = 0.5
	// getSettle is how long a completed sweep waits before serve-hot
	// may GET it: the daemon drops its in-flight entry just after the
	// trailer, and a GET inside that gap is answered 409.
	getSettle = 50 * time.Millisecond
	// recheckRequests is how many served requests (serve-cold) or
	// universe cells (serve-hot) are re-executed in-process with
	// workload.ExecuteOne after the window and compared byte for byte.
	recheckRequests = 5
)

var paperAlgorithms = []string{"OpenBLAS", "Strassen", "CAPS"}

// coldRequest is serve-cold's matrix: 3 algorithms × n {512, 1024} ×
// threads 1–4 on the paper platform.
func coldRequest() serve.SweepRequest {
	return serve.SweepRequest{Algorithms: paperAlgorithms, Sizes: []int{512, 1024}, Threads: []int{1, 2, 3, 4}}
}

// universeRequest is serve-hot's universe: 3 algorithms × n {256, 512,
// 1024, 2048} × threads 1–4.
func universeRequest() serve.SweepRequest {
	return serve.SweepRequest{Algorithms: paperAlgorithms, Sizes: []int{256, 512, 1024, 2048}, Threads: []int{1, 2, 3, 4}}
}

// seededRand derives an independent stream from the seed, the
// workload and a purpose, so values are namespaced per (seed,
// workload) and the streams do not move each other.
func seededRand(seed int64, parts ...string) *rand.Rand {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// sweepRequest is one prepared POST with what its response must hold.
type sweepRequest struct {
	req   serve.SweepRequest
	body  []byte
	fp    string
	cells int
	keys  map[string]bool
	// collision marks a fingerprint the run already used.
	collision bool
}

// requestGen hands out the run's requests in a seeded sequence. The
// unique value (serve-cold's poll interval, serve-hot's quiesce gap) is
// drawn without repeats, and fingerprints are checked for collisions.
type requestGen struct {
	mu     sync.Mutex
	rng    *rand.Rand
	hot    bool
	values map[float64]bool
	fps    map[string]bool
}

func newRequestGen(seed int64, name string) *requestGen {
	return &requestGen{
		rng:    seededRand(seed, name, "requests"),
		hot:    name == "serve-hot",
		values: map[float64]bool{},
		fps:    map[string]bool{},
	}
}

// unique draws a value from [lo, hi) that no earlier request had.
func (g *requestGen) unique(lo, hi float64) float64 {
	for {
		v := lo + (hi-lo)*g.rng.Float64()
		if !g.values[v] {
			g.values[v] = true
			return v
		}
	}
}

func (g *requestGen) next() (*sweepRequest, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var req serve.SweepRequest
	if g.hot {
		u := universeRequest()
		req = serve.SweepRequest{
			Algorithms:     subset(g.rng, u.Algorithms),
			Sizes:          subset(g.rng, u.Sizes),
			Threads:        subset(g.rng, u.Threads),
			QuiesceSeconds: g.unique(2, 62),
		}
	} else {
		req = coldRequest()
		req.PollInterval = g.unique(0.005, 0.02)
	}
	return g.prepare(req)
}

// prepare resolves a request into its body, fingerprint and expected
// cell keys.
func (g *requestGen) prepare(req serve.SweepRequest) (*sweepRequest, error) {
	cfg, err := req.Config()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	sr := &sweepRequest{req: req, body: body, fp: cfg.Fingerprint(), cells: cfg.CellCount(), keys: map[string]bool{}}
	for _, a := range cfg.Algorithms {
		for _, n := range cfg.Sizes {
			for _, p := range cfg.Threads {
				sr.keys[fmt.Sprintf("%s/%d/%d", a, n, p)] = true
			}
		}
	}
	sr.collision = g.fps[sr.fp]
	g.fps[sr.fp] = true
	return sr, nil
}

// subset returns a random non-empty subset of xs, in xs's order.
func subset[T any](rng *rand.Rand, xs []T) []T {
	for {
		var out []T
		for _, x := range xs {
			if rng.IntN(2) == 1 {
				out = append(out, x)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

// daemon is one running epscaled on its own empty store.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	store  string
	exited chan struct{} // closed once Wait returned
}

func startDaemon(ctx context.Context, bin string, log io.Writer) (*daemon, error) {
	dir, err := os.MkdirTemp("", "capbench-store-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", dir,
		"-parallel", strconv.Itoa(gomaxprocs), "-drain-timeout", "5s")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("starting epscaled: %w", err)
	}
	d := &daemon{cmd: cmd, store: dir, exited: make(chan struct{})}
	addrc := make(chan string, 1) // the one address line; never blocks the reader
	go func() {
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on "); ok && !sent {
				if f := strings.Fields(rest); len(f) > 0 {
					addrc <- f[0]
					sent = true
				}
			}
		}
		_ = cmd.Wait() // the exit status carries nothing stop does not already know
		close(d.exited)
	}()
	select {
	case addr := <-addrc:
		d.addr = addr
		return d, nil
	case <-d.exited:
		err = fmt.Errorf("epscaled exited before serving")
	case <-ctx.Done():
		err = ctx.Err()
	}
	return nil, errors.Join(err, d.stop())
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs),
// waits for it to exit and removes its store.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	return os.RemoveAll(d.store)
}

// vars reads the daemon's expvar counters (GET /debug/vars).
func (d *daemon) vars(ctx context.Context, hc *http.Client) (map[string]json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	return vars, json.NewDecoder(resp.Body).Decode(&vars)
}

// counter reads one obs counter from a /debug/vars snapshot.
func counter(vars map[string]json.RawMessage, name string) float64 {
	var v float64
	_ = json.Unmarshal(vars["obs."+name], &v) // an absent counter reads as 0
	return v
}

// histogram reads one obs histogram's count and sum from a
// /debug/vars snapshot.
func histogram(vars map[string]json.RawMessage, name string) (count, sum float64) {
	var h struct{ Count, Mean float64 }
	_ = json.Unmarshal(vars["obs."+name], &h) // an absent histogram reads as empty
	return h.Count, h.Count * h.Mean
}

// trailer is the last line of a POST /v1/sweep stream.
type trailer struct {
	Done        bool   `json:"done"`
	Fingerprint string `json:"fingerprint"`
	Streamed    int    `json:"streamed"`
	Complete    bool   `json:"complete"`
	Error       string `json:"error"`
}

// sweepResponse is one streamed POST: the delays from sending it to
// each record line and to the trailer, and the lines.
type sweepResponse struct {
	cellTimes []time.Duration
	total     time.Duration
	records   [][]byte
	trailer   trailer
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

func post(ctx context.Context, hc *http.Client, base, clientID string, body []byte) (*sweepResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("POST answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sr := &sweepResponse{}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
			if bytes.HasPrefix(line, []byte(`{"done":`)) {
				sr.total = time.Since(start)
				if err := json.Unmarshal(line, &sr.trailer); err != nil {
					return nil, fmt.Errorf("bad trailer: %w", err)
				}
				_, err := io.Copy(io.Discard, br)
				return sr, err
			}
			sr.cellTimes = append(sr.cellTimes, time.Since(start))
			sr.records = append(sr.records, line)
		}
		if err != nil {
			return nil, fmt.Errorf("stream ended without a trailer after %d records: %w", len(sr.records), err)
		}
	}
}

// getResult replays a stored sweep. A 409 (the sweep's in-flight entry
// has not been dropped yet) is retried briefly; retries are counted.
func getResult(ctx context.Context, hc *http.Client, base, clientID, fp string) (body []byte, retries int, err error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/result/"+fp, nil)
		if err != nil {
			return nil, retries, err
		}
		req.Header.Set("X-Client-ID", clientID)
		resp, err := hc.Do(req)
		if err != nil {
			return nil, retries, err
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return nil, retries, err
		case resp.StatusCode == http.StatusConflict && retries < 20:
			retries++
			time.Sleep(5 * time.Millisecond)
		case resp.StatusCode != http.StatusOK:
			return nil, retries, fmt.Errorf("GET answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		default:
			return body, retries, nil
		}
	}
}

// recordKey extracts a record line's cell key without a full parse:
// records are {"key":"...","run":{...}}.
func recordKey(line []byte) (string, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"key":"`))
	if !ok {
		return "", false
	}
	key, _, ok := bytes.Cut(rest, []byte{'"'})
	return string(key), ok
}

// linesDigest hashes a multiset of lines (order-free).
func linesDigest(lines [][]byte) [32]byte {
	sorted := slices.Clone(lines)
	slices.SortFunc(sorted, bytes.Compare)
	h := sha256.New()
	for _, l := range sorted {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// verifyStream checks one POST response against its request: exactly
// the requested cells, each once, a complete trailer with the
// request's fingerprint, and (serve-hot) every record byte-equal to
// the universe warm-up's line for the same cell.
func verifyStream(sr *sweepRequest, resp *sweepResponse, universe map[string][]byte) error {
	if len(resp.records) != sr.cells {
		return fmt.Errorf("sweep %s streamed %d records, want %d", sr.fp, len(resp.records), sr.cells)
	}
	seen := make(map[string]bool, len(resp.records))
	for _, line := range resp.records {
		key, ok := recordKey(line)
		switch {
		case !ok:
			return fmt.Errorf("sweep %s: record without a key: %.80s", sr.fp, line)
		case !sr.keys[key] || seen[key]:
			return fmt.Errorf("sweep %s: unexpected or repeated cell %s", sr.fp, key)
		case universe != nil && !bytes.Equal(line, universe[key]):
			return fmt.Errorf("sweep %s: cell %s differs from the universe warm-up's record", sr.fp, key)
		}
		seen[key] = true
	}
	t := resp.trailer
	if !t.Done || !t.Complete || t.Error != "" || t.Fingerprint != sr.fp || t.Streamed != sr.cells {
		return fmt.Errorf("sweep %s: bad trailer %+v", sr.fp, t)
	}
	return nil
}

// completedSweep is a fingerprint serve-hot may GET.
type completedSweep struct {
	fp     string
	at     time.Time
	digest [32]byte
}

// postedSweep is a serve-cold request kept for the after-window checks.
type postedSweep struct {
	req     *sweepRequest
	records [][]byte
}

// instance is one daemon's share of a served run.
type instance struct {
	name     string
	hc       *http.Client
	base     string
	gen      *requestGen
	tr       *tracer // nil on untraced runs
	universe map[string][]byte

	mu        sync.Mutex
	attempted int
	failures  []string
	posts     []*sweepResponse
	getSecs   []float64
	getBytes  int
	retries   int
	records   int
	completed []completedSweep
	posted    []postedSweep
}

func (in *instance) fail(err error) {
	in.mu.Lock()
	in.failures = append(in.failures, err.Error())
	in.mu.Unlock()
}

// doPost sends one request and checks what comes back.
func (in *instance) doPost(ctx context.Context, clientID string, sr *sweepRequest, track string) error {
	sp := in.tr.start(track, "POST /v1/sweep")
	resp, err := post(ctx, in.hc, in.base, clientID, sr.body)
	sp.End()
	in.mu.Lock()
	in.attempted++
	in.mu.Unlock()
	if err == nil && sr.collision {
		err = fmt.Errorf("fingerprint %s was already used by an earlier request of this run", sr.fp)
	}
	if err == nil {
		err = verifyStream(sr, resp, in.universe)
	}
	if err != nil {
		return err
	}
	done := completedSweep{fp: sr.fp, digest: linesDigest(resp.records)}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.posts = append(in.posts, resp)
	in.records += len(resp.records)
	// Stamped under the lock so in.completed stays sorted by at, as
	// pickStored's binary search needs.
	done.at = time.Now()
	in.completed = append(in.completed, done)
	if !in.gen.hot {
		in.posted = append(in.posted, postedSweep{req: sr, records: resp.records})
	}
	return nil
}

// pickStored returns a random sweep completed at least getSettle ago;
// false when there is none yet.
func (in *instance) pickStored(rng *rand.Rand) (completedSweep, bool) {
	cutoff := time.Now().Add(-getSettle)
	in.mu.Lock()
	defer in.mu.Unlock()
	n := sort.Search(len(in.completed), func(i int) bool { return in.completed[i].at.After(cutoff) })
	if n == 0 {
		return completedSweep{}, false
	}
	return in.completed[rng.IntN(n)], true
}

// doGet replays one stored sweep and checks it holds the same lines
// its POST streamed.
func (in *instance) doGet(ctx context.Context, clientID string, c completedSweep, track string) error {
	sp := in.tr.start(track, "GET /v1/result")
	start := time.Now()
	body, retries, err := getResult(ctx, in.hc, in.base, clientID, c.fp)
	secs := time.Since(start).Seconds()
	sp.End()
	in.mu.Lock()
	in.attempted++
	in.retries += retries
	in.mu.Unlock()
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
	if linesDigest(lines) != c.digest {
		return fmt.Errorf("GET %s: replayed lines differ from the ones its POST streamed", c.fp)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.getSecs = append(in.getSecs, secs)
	in.getBytes += len(body)
	in.records += len(lines)
	return nil
}

// warmUp is the last step of an instance's set-up: serve-cold sends
// one ordinary request, serve-hot sweeps the universe and keeps its
// lines as the reference every later record must equal.
func (in *instance) warmUp(ctx context.Context) error {
	if !in.gen.hot {
		sr, err := in.gen.next()
		if err != nil {
			return err
		}
		if err := in.doPost(ctx, "warm-up", sr, "set-up"); err != nil {
			in.fail(err)
		}
		return nil
	}
	sr, err := in.gen.prepare(universeRequest())
	if err != nil {
		return err
	}
	resp, err := post(ctx, in.hc, in.base, "warm-up", sr.body)
	in.attempted++
	if err == nil {
		err = verifyStream(sr, resp, nil)
	}
	if err != nil {
		in.fail(err)
		return nil
	}
	in.universe = map[string][]byte{}
	for _, line := range resp.records {
		key, run, err := workload.UnmarshalRunRecord(line)
		if err == nil {
			err = checkRun(key, &run)
		}
		if err != nil {
			in.fail(err)
		}
		in.universe[key] = line
	}
	in.completed = append(in.completed, completedSweep{fp: sr.fp, at: time.Now(), digest: linesDigest(resp.records)})
	return nil
}

// load runs the closed loop until the deadline and returns the wall
// time from its start to the last operation's end.
func (in *instance) load(ctx context.Context, seed int64, idx int, seconds float64) float64 {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("client-%d", c)
			rng := seededRand(seed, in.name, "coin", strconv.Itoa(idx), id)
			op := func() error {
				if in.gen.hot && rng.Float64() < getShare {
					if stored, ok := in.pickStored(rng); ok {
						return in.doGet(ctx, id, stored, id)
					}
				}
				sr, err := in.gen.next()
				if err != nil {
					return err
				}
				return in.doPost(ctx, id, sr, id)
			}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if err := op(); err != nil {
					in.fail(err)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// servedResult is one instance's measurements.
type servedResult struct {
	*instance
	setup, window, rssMB float64
	vars0, vars1         map[string]json.RawMessage
}

// runInstance starts a daemon, warms it up, loads it for seconds and
// stops it. With tr non-nil it also snapshots /debug/vars around the
// window.
func runInstance(ctx context.Context, o options, idx int, seconds float64, gen *requestGen, tr *tracer, log io.Writer) (*servedResult, error) {
	start := time.Now()
	d, err := startDaemon(ctx, o.epscaled, log)
	if err != nil {
		return nil, err
	}
	in := &instance{name: o.workload, hc: newHTTPClient(), base: "http://" + d.addr, gen: gen, tr: tr}
	defer in.hc.CloseIdleConnections()
	res := &servedResult{instance: in}
	err = in.warmUp(ctx)
	res.setup = time.Since(start).Seconds()
	in.posts, in.records = nil, 0 // the warm-up is checked, not timed
	if err == nil && tr != nil {
		res.vars0, err = d.vars(ctx, in.hc)
	}
	if err == nil {
		res.window = in.load(ctx, o.seed, idx, seconds)
	}
	if err == nil && tr != nil {
		res.vars1, err = d.vars(ctx, in.hc)
	}
	if err == nil {
		res.rssMB, err = statusMB(d.cmd.Process.Pid, "VmHWM")
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err == nil {
		err = ctx.Err()
	}
	return res, err
}

// recheck re-executes a seeded sample in-process with
// workload.ExecuteOne and compares the bytes with what the daemon
// served, after every daemon has stopped. serve-cold samples whole
// requests (and fully parses every record served); serve-hot samples
// universe cells.
func (in *instance) recheck(seed int64, idx int) {
	rng := seededRand(seed, in.name, "recheck", strconv.Itoa(idx))
	type sample struct {
		cfg     workload.Config
		records [][]byte
	}
	var samples []sample
	if in.gen.hot {
		universe := universeRequest()
		cfg, err := universe.Config()
		if err != nil {
			in.fail(err)
			return
		}
		keys := make([]string, 0, len(in.universe))
		for k := range in.universe {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, i := range rng.Perm(len(keys))[:min(recheckRequests, len(keys))] {
			samples = append(samples, sample{cfg: cfg, records: [][]byte{in.universe[keys[i]]}})
		}
	} else {
		for _, p := range in.posted {
			in.attempted++
			for _, line := range p.records {
				key, run, err := workload.UnmarshalRunRecord(line)
				if err == nil {
					err = checkRun(key, &run)
				}
				if err != nil {
					in.fail(fmt.Errorf("sweep %s: %w", p.req.fp, err))
				}
			}
		}
		for _, i := range rng.Perm(len(in.posted))[:min(recheckRequests, len(in.posted))] {
			cfg, err := in.posted[i].req.req.Config()
			if err != nil {
				in.fail(err)
				continue
			}
			samples = append(samples, sample{cfg: cfg, records: in.posted[i].records})
		}
	}
	for _, s := range samples {
		s.cfg.NoCache = true
		for _, line := range s.records {
			in.attempted++
			key, run, err := workload.UnmarshalRunRecord(line)
			if err != nil {
				in.fail(err)
				continue
			}
			again := workload.ExecuteOne(s.cfg, run.Alg, run.N, run.Threads)
			want, err := workload.MarshalRunRecord(key, &again)
			if err != nil || !bytes.Equal(want, line) {
				in.fail(fmt.Errorf("cell %s: served record differs from an in-process ExecuteOne", key))
			}
		}
	}
}

// runServed is the untraced run of a served workload.
func runServed(ctx context.Context, o options, log io.Writer) (*outcome, error) {
	gen := newRequestGen(o.seed, o.workload)
	var results []*servedResult
	k := instanceCount(o.seconds)
	for i := range k {
		r, err := runInstance(ctx, o, i, o.seconds/float64(k), gen, nil, log)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	out := newOutcome()
	var m measured
	var getSecs []float64
	getBytes, retries := 0, 0
	for i, r := range results {
		r.recheck(o.seed, i)
		m.setup = append(m.setup, r.setup)
		m.rssMB = append(m.rssMB, r.rssMB)
		for _, p := range r.posts {
			m.sweep = append(m.sweep, p.total.Seconds())
			m.firstCell = append(m.firstCell, p.cellTimes[0].Seconds())
			for _, d := range p.cellTimes {
				m.cellLatency = append(m.cellLatency, d.Seconds())
			}
		}
		m.cells += r.records
		m.seconds += r.window
		getSecs = append(getSecs, r.getSecs...)
		getBytes += r.getBytes
		retries += r.retries
		out.attempted += r.attempted
		for _, f := range r.failures {
			out.fail("%s", f)
		}
	}
	m.into(out)
	if len(getSecs) > 0 {
		out.timings["get_s"] = timingOf(getSecs)
		total := 0.0
		for _, s := range getSecs {
			total += s
		}
		out.extra["replay_mb_per_s"] = float64(getBytes) / 1e6 / total
	}
	out.extra["get_409_retries"] = float64(retries)
	return out, nil
}
