// Package serve puts a long-running HTTP/JSON front end on the
// experiment pipeline: sweep-as-a-service. The paper's capability
// question — "which algorithm wins under this power budget on this
// machine?" — is a query, and everything a query service needs
// already exists in the pipeline: configurations fingerprint to
// content-addressed results (workload.Config.Fingerprint), completed
// cells journal crash-safely to JSONL (the checkpoint layer, reused
// here as the persistent result store), the run cache single-flights
// concurrent computes of one cell, and the obs metrics/span registry
// publishes through expvar as service telemetry for free.
//
// Endpoints:
//
//	POST /v1/sweep        a workload.Config subset (see SweepRequest)
//	                      → NDJSON stream of cell records as they
//	                      finish, then one trailer object. Requests
//	                      with equal fingerprints attach to one
//	                      in-flight execution (single-flight): each
//	                      cell is executed at most once no matter how
//	                      many clients ask for it. When a request
//	                      attaches to a sweep already under way, the
//	                      already-known cells are flushed immediately,
//	                      Predicted cells first (they are the cheap,
//	                      model-answered majority of a guided sweep).
//	                      With ?from=N (or a Last-Cell: N header) the
//	                      stream is journal-backed instead: record
//	                      lines are tailed straight out of the store
//	                      journal starting at record index N, and the
//	                      trailer's "next_from" is an exact resume
//	                      token — a client cut off mid-stream re-POSTs
//	                      with ?from=<next_from> and receives each
//	                      record exactly once, even across a replica
//	                      death.
//	GET  /v1/result/{fp}  replay a completed sweep's records from the
//	                      persistent store, byte-identical to the
//	                      lines streamed while it ran. ?from=N skips
//	                      the first N records (X-Next-From carries the
//	                      full count).
//	GET  /v1/status       service snapshot (uptime, replica ID,
//	                      in-flight sweeps, stored results, dedup and
//	                      recovery counters).
//	GET  /debug/vars      the expvar registry, including every obs.*
//	                      pipeline metric.
//
// Multi-replica operation: any number of servers may share one store
// directory. Each sweep journal is claimed by an on-disk lease (owner
// + monotonic epoch + TTL, renewed while the sweep runs; see
// internal/store). A replica asked for a sweep another replica is
// executing attaches as a read-only follower: it tails the journal and
// streams cells as the leaseholder lands them. If the leaseholder dies
// — its lease expires, or its process is verifiably gone on the same
// host — the follower (or a recovering replica) steals the lease with
// a bumped epoch and resumes the sweep through the normal
// checkpoint-resume path; epoch fencing makes the dead replica's
// late journal writes fail rather than interleave. On startup,
// Recover salvages torn journals (quarantining ones whose header is
// unreadable) and resumes any incomplete sweep whose request sidecar
// is on disk and whose lease is free.
//
// Client retry contract: bounded retries with jittered exponential
// backoff. On 429/503, honor Retry-After (add ±50% jitter); on a cut
// stream, re-POST the same request with ?from=<next_from from the last
// trailer, or the count of records already held> — resumed streams
// never repeat a record, restored cells cost no re-execution, and a
// few retries (5 with backoff capped at ~30s is plenty) ride out a
// replica death, because any replica sharing the store can continue
// the sweep. Give up, rather than retrying forever, on 400s: they are
// deterministic.
//
// Load shedding: at most MaxActiveSweeps distinct sweeps execute
// concurrently and each client (X-Client-ID header, else remote host)
// may hold ClientQuota open requests; beyond either, the server
// answers 429 so callers back off instead of queueing unboundedly.
// Attaching to an in-flight sweep does not count against
// MaxActiveSweeps — it costs a subscriber, not an executor.
//
// Draining: Drain stops admission (503 with Retry-After) and waits for
// in-flight sweeps. At the deadline it stops them instead: remaining
// cells resolve as interrupted at the next cell boundary
// (workload.Config.Stop), streams get a trailer with "complete":false
// and "resumable":true, and a short grace period lets executors close
// their journals and release their leases. Every completed cell is
// already journaled and fsynced in the store, so a drain deadline (or
// a kill -9) loses no finished work.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"capscale/internal/obs"
	"capscale/internal/store"
	"capscale/internal/workload"
)

// Config configures a sweep server.
type Config struct {
	// StoreDir is the persistent result store: one JSONL journal per
	// configuration fingerprint. Required. Multiple replicas may share
	// one directory; the lease files coordinate them.
	StoreDir string
	// Parallelism bounds each sweep's cell workers (0 = GOMAXPROCS,
	// matching workload.Config).
	Parallelism int
	// MaxActiveSweeps bounds concurrently executing sweeps; further
	// new-fingerprint requests get 429. 0 selects DefaultMaxActiveSweeps.
	MaxActiveSweeps int
	// ClientQuota bounds open requests per client (X-Client-ID header,
	// else remote host); 0 selects DefaultClientQuota. Negative
	// disables the quota.
	ClientQuota int
	// CacheCap bounds the server's run cache instance; 0 selects
	// workload.DefaultRunCacheCap.
	CacheCap int
	// FS routes all store, journal and lease I/O through an injectable
	// filesystem; nil selects the real one. The crash property tests
	// inject faults.FaultFS here.
	FS store.FS
	// ReplicaID names this server on store leases and in /v1/status;
	// empty selects "<host>:<pid>". Replicas sharing a store should
	// carry stable distinct IDs.
	ReplicaID string
	// LeaseTTL is the sweep-journal claim lifetime between renewals;
	// 0 selects store.DefaultLeaseTTL. Lower values speed up takeover
	// of a crashed replica's sweeps at the cost of more lease I/O.
	LeaseTTL time.Duration
	// FollowPoll is how often a read-only follower re-scans a journal
	// another replica is writing; 0 selects DefaultFollowPoll.
	FollowPoll time.Duration
}

// Defaults for the load-shedding knobs: small enough that an abusive
// client cannot monopolize the simulator, large enough for a busy
// interactive fleet.
const (
	DefaultMaxActiveSweeps = 4
	DefaultClientQuota     = 8
	DefaultFollowPoll      = 150 * time.Millisecond
)

// Server is a sweep-as-a-service instance. Create with New, call
// Recover to pick up interrupted sweeps, mount Handler, call Drain
// before exit.
type Server struct {
	cfg   Config
	store *Store
	fsys  store.FS
	cache *workload.RunCache
	start time.Time

	// stopSweeps flips at the drain deadline: every executing sweep
	// stops at its next cell boundary (workload.Config.Stop).
	stopSweeps atomic.Bool

	mu       sync.Mutex
	sweeps   map[string]*sweepState // in-flight, by fingerprint
	active   int                    // executing sweeps
	clients  map[string]int         // open requests per client
	draining bool
	wg       sync.WaitGroup // one per executing sweep
}

// Service metrics, published through expvar like every obs metric.
var (
	mReqs        = obs.GetCounter("serve.requests")
	mStarted     = obs.GetCounter("serve.sweeps.started")
	mAttached    = obs.GetCounter("serve.sweeps.attached")
	mCompleted   = obs.GetCounter("serve.sweeps.completed")
	mFailed      = obs.GetCounter("serve.sweeps.failed")
	mInterrupted = obs.GetCounter("serve.sweeps.interrupted")
	mFollowed    = obs.GetCounter("serve.sweeps.followed")
	mRecovered   = obs.GetCounter("serve.sweeps.recovered")
	mTakeovers   = obs.GetCounter("serve.sweeps.takeovers")
	mSalvaged    = obs.GetCounter("serve.journals.salvaged")
	mReplayed    = obs.GetCounter("serve.results.replayed")
	mShedQuota   = obs.GetCounter("serve.shed.quota")
	mShedBusy    = obs.GetCounter("serve.shed.backpressure")
	mCellsSent   = obs.GetCounter("serve.cells.streamed")
	mActive      = obs.GetGauge("serve.sweeps.active")
	mOpenReqs    = obs.GetGauge("serve.requests.open")
	mReqSeconds  = obs.GetHistogramUnit("serve.request.seconds", "s")
)

// New opens (creating if needed) the result store and returns a
// server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxActiveSweeps == 0 {
		cfg.MaxActiveSweeps = DefaultMaxActiveSweeps
	}
	if cfg.ClientQuota == 0 {
		cfg.ClientQuota = DefaultClientQuota
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = workload.DefaultRunCacheCap
	}
	if cfg.FollowPoll <= 0 {
		cfg.FollowPoll = DefaultFollowPoll
	}
	if cfg.ReplicaID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "replica"
		}
		cfg.ReplicaID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	st, err := OpenStore(cfg.StoreDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:     cfg,
		store:   st,
		fsys:    store.Resolve(cfg.FS),
		cache:   workload.NewRunCache(cfg.CacheCap),
		start:   time.Now(),
		sweeps:  make(map[string]*sweepState),
		clients: make(map[string]int),
	}, nil
}

// ReplicaID returns the ID this server claims leases under.
func (s *Server) ReplicaID() string { return s.cfg.ReplicaID }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/result/{fp}", s.handleResult)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// Recover scans the store for interrupted work: torn journal tails
// are salvaged (headerless journals quarantined aside), and every
// incomplete sweep with a request sidecar and a free lease is resumed
// through the normal checkpoint path. Call it on startup, after
// mounting nothing — it launches executor goroutines, not requests.
// logf (nil for silent) receives one line per action taken.
func (s *Server) Recover(logf func(format string, args ...any)) (resumed, salvaged int) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Union of journals and request sidecars: a crash between the
	// sidecar save and the journal's first rename leaves a sidecar with
	// no journal, and that sweep restarts from scratch.
	seen := make(map[string]bool)
	var fps []string
	for _, fp := range s.store.Fingerprints() {
		seen[fp] = true
		fps = append(fps, fp)
	}
	for _, fp := range s.store.RequestFingerprints() {
		if !seen[fp] {
			fps = append(fps, fp)
		}
	}
	for _, fp := range fps {
		if changed, err := workload.SalvageJournal(s.fsys, s.store.Path(fp)); err != nil {
			logf("recover %s: salvage: %v", fp, err)
			continue
		} else if changed {
			salvaged++
			mSalvaged.Inc()
			logf("recover %s: salvaged journal (torn tail or junk compacted away)", fp)
		}
		body, ok := s.store.LoadRequest(fp)
		if !ok {
			continue // nothing to reconstruct the sweep from
		}
		var req SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			logf("recover %s: unreadable request sidecar: %v", fp, err)
			continue
		}
		cfg, err := req.Config()
		if err != nil || cfg.Fingerprint() != fp {
			logf("recover %s: request sidecar does not reproduce the fingerprint; skipping", fp)
			continue
		}
		snap, err := workload.SnapshotJournal(s.fsys, s.store.Path(fp))
		if err != nil {
			logf("recover %s: %v", fp, err)
			continue
		}
		if snap.Unique >= cfg.CellCount() {
			continue // complete: replayable, nothing to resume
		}
		if info, live := store.ReadLeaseInfo(s.fsys, s.store.LeasePath(fp), time.Now()); live {
			logf("recover %s: leased by %q; leaving it to them", fp, info.Owner)
			continue
		}
		if _, attached, err := s.startOrAttach(fp, cfg, nil); err != nil {
			logf("recover %s: %v", fp, err)
		} else if !attached {
			resumed++
			mRecovered.Inc()
			logf("recover %s: resuming (%d/%d cells stored)", fp, snap.Unique, cfg.CellCount())
		}
	}
	return resumed, salvaged
}

// Drain stops admitting requests and waits up to timeout for in-flight
// sweeps to finish, returning true when everything drained. At the
// deadline the sweeps are stopped instead of waited out: remaining
// cells resolve as interrupted at the next cell boundary, clients'
// trailers carry "complete":false with "resumable":true, and a short
// grace period lets executors close journals and release leases —
// every completed cell is already journaled and fsynced, so nothing
// finished is lost.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	states := make([]*sweepState, 0, len(s.sweeps))
	for _, st := range s.sweeps {
		states = append(states, st)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
	}
	// Deadline expired: stop the sweeps at their next cell boundary and
	// cut the streams loose with a resumable trailer.
	s.stopSweeps.Store(true)
	for _, st := range states {
		st.finishResumable("server draining; completed cells are stored — resume with ?from=")
	}
	grace := timeout / 2
	if grace > 2*time.Second {
		grace = 2 * time.Second
	}
	if grace < 50*time.Millisecond {
		grace = 50 * time.Millisecond
	}
	select {
	case <-done:
	case <-time.After(grace):
	}
	return false
}

// clientID identifies a request's client for quota accounting.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	return r.RemoteAddr
}

// admit performs the shared admission checks (drain state, client
// quota), returning the client key and false when the request was
// already answered.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (string, bool) {
	mReqs.Inc()
	client := clientID(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		w.Header().Set("Retry-After", "10")
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return "", false
	}
	if q := s.cfg.ClientQuota; q > 0 && s.clients[client] >= q {
		mShedQuota.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("client %q has %d requests open (quota %d)", client, s.clients[client], q),
			http.StatusTooManyRequests)
		return "", false
	}
	s.clients[client]++
	mOpenReqs.Add(1)
	return client, true
}

// release undoes admit's accounting.
func (s *Server) release(client string) {
	s.mu.Lock()
	s.clients[client]--
	if s.clients[client] <= 0 {
		delete(s.clients, client)
	}
	s.mu.Unlock()
	mOpenReqs.Add(-1)
}

// resumeToken parses the cell-granularity resume token: ?from=N query
// parameter, else a Last-Cell: N header. N is the number of record
// lines the client already holds (equivalently: the next record index
// it wants) — exactly the "next_from" a journal-backed trailer
// carries.
func resumeToken(r *http.Request) (from int, ok bool, err error) {
	v := r.URL.Query().Get("from")
	if v == "" {
		v = r.Header.Get("Last-Cell")
	}
	if v == "" {
		return 0, false, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("bad resume token %q (want a non-negative record index)", v)
	}
	return n, true, nil
}

// handleSweep executes (or attaches to, or follows) a sweep and
// streams its cell records as NDJSON.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { mReqSeconds.Observe(time.Since(t0).Seconds()) }()

	client, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer s.release(client)

	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req SweepRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "bad request JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	cfg, err := req.Config()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := cfg.Fingerprint()
	from, hasFrom, err := resumeToken(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	if hasFrom {
		// Journal-backed stream: exact resume tokens, served whether
		// this replica executes the sweep, follows another replica's
		// journal, or replays a finished one. Make sure somebody is
		// executing it if it is incomplete.
		_, _, err := s.startOrAttach(fp, cfg, body)
		if err != nil && !errors.Is(err, store.ErrLeaseHeld) && !s.store.Has(fp) {
			mShedBusy.Inc()
			w.Header().Set("Retry-After", "5")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Sweep-Fingerprint", fp)
		w.WriteHeader(http.StatusOK)
		s.streamJournal(r.Context(), w, fp, cfg, from)
		return
	}

	st, attached, err := s.startOrAttach(fp, cfg, body)
	if err != nil {
		var held *store.HeldError
		if errors.As(err, &held) {
			// Another replica is executing this sweep: follow its
			// journal read-only, streaming cells as they land.
			mFollowed.Inc()
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Sweep-Fingerprint", fp)
			w.Header().Set("X-Sweep-Leaseholder", held.Info.Owner)
			w.WriteHeader(http.StatusOK)
			s.streamJournal(r.Context(), w, fp, cfg, 0)
			return
		}
		mShedBusy.Inc()
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	if attached {
		mAttached.Inc()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Fingerprint", fp)
	w.WriteHeader(http.StatusOK)
	st.stream(r.Context(), w)
}

// startOrAttach returns the in-flight sweep state for fp, launching
// the execution when this request is the first to ask for it. The
// launch claims the journal's on-disk lease; a *store.HeldError means
// another replica holds it (callers fall back to following its
// journal), any other error is executor backpressure. body, when
// non-nil, is saved as the request sidecar recovery resumes from.
func (s *Server) startOrAttach(fp string, cfg workload.Config, body []byte) (*sweepState, bool, error) {
	s.mu.Lock()
	if st, ok := s.sweeps[fp]; ok {
		s.mu.Unlock()
		return st, true, nil
	}
	if s.active >= s.cfg.MaxActiveSweeps {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("%d sweeps executing (limit %d); retry shortly",
			s.active, s.cfg.MaxActiveSweeps)
	}
	// Reserve the slot and publish the state before the lease I/O, so
	// concurrent identical requests attach instead of racing the claim.
	st := newSweepState(fp, cfg.CellCount())
	s.sweeps[fp] = st
	s.active++
	s.mu.Unlock()
	mActive.Add(1)

	lease, err := store.AcquireLease(s.fsys, s.store.LeasePath(fp), s.cfg.ReplicaID, s.cfg.LeaseTTL, nil)
	if err != nil {
		s.mu.Lock()
		delete(s.sweeps, fp)
		s.active--
		s.mu.Unlock()
		mActive.Add(-1)
		// Anyone who attached to the placeholder in the window gets a
		// resumable trailer pointing at the follower path.
		st.finishResumable("sweep not started here: " + err.Error() + " — re-POST to follow the holder's journal")
		return nil, false, err
	}
	if len(body) > 0 {
		if err := s.store.SaveRequest(fp, body); err != nil {
			// The sweep can proceed; only crash recovery of this
			// fingerprint is degraded. Worth a line on stderr.
			fmt.Fprintf(os.Stderr, "serve: saving request sidecar for %s: %v\n", fp, err)
		}
	}
	mStarted.Inc()
	s.wg.Add(1)
	go s.runSweep(st, cfg, lease)
	return st, false, nil
}

// runSweep executes one sweep, feeding completed cells into the state
// (and, via the checkpoint journal, the persistent store) as they
// finish.
func (s *Server) runSweep(st *sweepState, cfg workload.Config, lease *store.Lease) {
	defer s.wg.Done()
	cfg.CheckpointPath = s.store.Path(st.fp)
	cfg.FS = s.cfg.FS
	cfg.Lease = lease
	cfg.LeaseOwner = s.cfg.ReplicaID
	cfg.Stop = func() bool { return s.stopSweeps.Load() }
	cfg.Cache = s.cache
	cfg.Parallelism = s.cfg.Parallelism
	cfg.OnRun = func(key string, r *workload.Run) {
		line, err := workload.MarshalRunRecord(key, r)
		if err != nil {
			return
		}
		mCellsSent.Inc()
		st.append(line, r.Predicted)
	}

	var mx *workload.Matrix
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("sweep failed: %v", p)
			}
		}()
		mx = workload.Execute(cfg)
		return nil
	}()
	// Retire the sweep before publishing its trailer, so a client acting
	// on the trailer finds it finished: GET replays it instead of
	// answering 409, and status no longer counts it active.
	lost := lease.Lost()
	s.retire(st.fp, lease)
	switch {
	case err != nil:
		mFailed.Inc()
		st.finish(err.Error())
	case len(mx.InterruptedRuns()) > 0:
		// Drain deadline or lost lease: the sweep stopped at a cell
		// boundary with everything completed safely journaled.
		mInterrupted.Inc()
		reason := "drain deadline"
		if lost {
			reason = "journal lease lost to another replica"
		}
		st.finishResumable(fmt.Sprintf("sweep interrupted (%s): %d of %d cells not executed; completed cells are stored — resume with ?from=",
			reason, len(mx.InterruptedRuns()), st.cells))
	default:
		mCompleted.Inc()
		st.finish("")
	}
}

// retire releases a finished sweep's lease and drops its in-flight
// entry.
func (s *Server) retire(fp string, lease *store.Lease) {
	// The release itself can panic under the fault filesystem's
	// simulated power loss (in production the process would be dead
	// here anyway); contain it so the in-memory bookkeeping below still
	// runs.
	func() {
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(os.Stderr, "serve: releasing lease for %s: %v\n", fp, p)
			}
		}()
		if err := lease.Release(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: releasing lease for %s: %v\n", fp, err)
		}
	}()
	s.mu.Lock()
	delete(s.sweeps, fp)
	s.active--
	s.mu.Unlock()
	mActive.Add(-1)
}

// streamJournal streams record lines straight out of the store journal
// for fp, starting at record index from — the journal-backed stream
// whose indexes are exact resume tokens. It serves three cases with
// one loop: tailing a journal this replica is executing, following one
// another replica holds the lease on, and replaying a finished one.
// While the sweep is incomplete and nobody holds the lease, it
// triggers a takeover so the stream makes progress past a dead
// replica.
func (s *Server) streamJournal(ctx context.Context, w io.Writer, fp string, cfg workload.Config, from int) {
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	path := s.store.Path(fp)
	cells := cfg.CellCount()
	next, streamed := from, 0
	complete, resumable := false, true
	var errMsg string

loop:
	for {
		snap, err := workload.SnapshotJournal(s.fsys, path)
		if err != nil {
			errMsg = "journal read: " + err.Error()
			break
		}
		if snap.Fingerprint != "" && snap.Fingerprint != fp {
			errMsg = "stored journal belongs to a different configuration"
			resumable = false
			break
		}
		if next > len(snap.Records) {
			errMsg = fmt.Sprintf("resume token %d beyond the journal (%d records; it may have been salvaged) — restart from 0", next, len(snap.Records))
			break
		}
		wrote := false
		for ; next < len(snap.Records); next++ {
			if _, err := fmt.Fprintf(w, "%s\n", snap.Records[next]); err != nil {
				return // client gone; nothing more to say
			}
			streamed++
			mCellsSent.Inc()
			wrote = true
		}
		if wrote {
			flush()
		}
		if snap.Unique >= cells && cells > 0 {
			complete, resumable = true, false
			break
		}
		select {
		case <-ctx.Done():
			return
		default:
		}
		s.mu.Lock()
		_, inflight := s.sweeps[fp]
		draining := s.draining
		s.mu.Unlock()
		if draining && !inflight {
			errMsg = "server draining; resume against another replica"
			break
		}
		if !inflight {
			// Incomplete, and this replica is not executing it: take
			// over if the lease is free (the holder died), otherwise
			// keep following the holder's appends.
			if _, live := store.ReadLeaseInfo(s.fsys, s.store.LeasePath(fp), time.Now()); !live {
				if _, attached, err := s.startOrAttach(fp, cfg, nil); err == nil && !attached {
					mTakeovers.Inc()
				}
			}
		}
		t := time.NewTimer(s.cfg.FollowPoll)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		continue loop
	}
	tr := trailer{
		Done:        true,
		Fingerprint: fp,
		Cells:       cells,
		Streamed:    streamed,
		Complete:    complete,
		Error:       errMsg,
		Resumable:   resumable && !complete,
		NextFrom:    next,
	}
	line, _ := json.Marshal(tr)
	if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
		return
	}
	flush()
}

// handleResult replays a completed sweep's journal from the store,
// byte-identical across replays (and to the record lines streamed by
// the POST that produced it). ?from=N skips the first N records;
// X-Next-From carries the stored record count either way.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { mReqSeconds.Observe(time.Since(t0).Seconds()) }()
	client, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer s.release(client)

	fp := r.PathValue("fp")
	if !validFingerprint(fp) {
		http.Error(w, "malformed fingerprint", http.StatusBadRequest)
		return
	}
	from, hasFrom, err := resumeToken(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	_, inflight := s.sweeps[fp]
	s.mu.Unlock()
	if inflight {
		// The journal is being appended to; a partial replay would not
		// be byte-stable. Clients stream the POST instead.
		w.Header().Set("Retry-After", "5")
		http.Error(w, "sweep still executing; POST /v1/sweep to stream it", http.StatusConflict)
		return
	}
	if !s.store.Has(fp) {
		http.Error(w, "no stored result for fingerprint "+fp, http.StatusNotFound)
		return
	}
	if hasFrom {
		snap, err := workload.SnapshotJournal(s.fsys, s.store.Path(fp))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if from > len(snap.Records) {
			http.Error(w, fmt.Sprintf("resume token %d beyond the %d stored records", from, len(snap.Records)),
				http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Next-From", strconv.Itoa(len(snap.Records)))
		for _, line := range snap.Records[from:] {
			if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
				return
			}
		}
		mReplayed.Inc()
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	n, err := s.store.Replay(fp, w)
	if err != nil && n == 0 {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	mReplayed.Inc()
}

// statusJSON is the GET /v1/status document.
type statusJSON struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	ReplicaID        string  `json:"replica_id"`
	Draining         bool    `json:"draining"`
	ActiveSweeps     int     `json:"active_sweeps"`
	OpenRequests     int64   `json:"open_requests"`
	StoredResults    int     `json:"stored_results"`
	SweepsStarted    int64   `json:"sweeps_started"`
	SweepsAttached   int64   `json:"sweeps_attached"`
	SweepsCompleted  int64   `json:"sweeps_completed"`
	SweepsFailed     int64   `json:"sweeps_failed"`
	SweepsFollowed   int64   `json:"sweeps_followed"`
	SweepsRecovered  int64   `json:"sweeps_recovered"`
	SweepsTakenOver  int64   `json:"sweeps_taken_over"`
	JournalsSalvaged int64   `json:"journals_salvaged"`
	CellsStreamed    int64   `json:"cells_streamed"`
	CellsExecuted    int64   `json:"cells_executed"`
	CacheDeduped     int64   `json:"cells_deduplicated"`
	ShedQuota        int64   `json:"shed_quota"`
	ShedBusy         int64   `json:"shed_backpressure"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	active, draining := s.active, s.draining
	s.mu.Unlock()
	doc := statusJSON{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		ReplicaID:        s.cfg.ReplicaID,
		Draining:         draining,
		ActiveSweeps:     active,
		OpenRequests:     mOpenReqs.Value(),
		StoredResults:    len(s.store.Fingerprints()),
		SweepsStarted:    mStarted.Value(),
		SweepsAttached:   mAttached.Value(),
		SweepsCompleted:  mCompleted.Value(),
		SweepsFailed:     mFailed.Value(),
		SweepsFollowed:   mFollowed.Value(),
		SweepsRecovered:  mRecovered.Value(),
		SweepsTakenOver:  mTakeovers.Value(),
		JournalsSalvaged: mSalvaged.Value(),
		CellsStreamed:    mCellsSent.Value(),
		CellsExecuted:    obs.GetCounter("workload.cells.executed").Value(),
		CacheDeduped:     obs.GetCounter("workload.cache.singleflight").Value(),
		ShedQuota:        mShedQuota.Value(),
		ShedBusy:         mShedBusy.Value(),
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return
	}
}

// sweepState is one in-flight (or draining) sweep's fan-out buffer:
// record lines accumulate in completion order and every subscriber
// streams them at its own pace.
type sweepState struct {
	fp    string
	cells int

	mu        sync.Mutex
	cond      *sync.Cond
	lines     []recLine
	done      bool
	errMsg    string
	resumable bool
}

type recLine struct {
	data      []byte
	predicted bool
}

func newSweepState(fp string, cells int) *sweepState {
	st := &sweepState{fp: fp, cells: cells}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// append publishes one completed cell's record line to every
// subscriber.
func (st *sweepState) append(line []byte, predicted bool) {
	st.mu.Lock()
	if !st.done {
		st.lines = append(st.lines, recLine{data: line, predicted: predicted})
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// finish marks the sweep complete (errMsg "" on success). Idempotent;
// the first call wins.
func (st *sweepState) finish(errMsg string) {
	st.mu.Lock()
	if !st.done {
		st.done = true
		st.errMsg = errMsg
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// finishResumable is finish for interrupted-but-journaled sweeps: the
// trailer additionally carries "resumable":true, telling clients a
// re-POST (with ?from= for exact tokens) will pick up where the sweep
// stopped.
func (st *sweepState) finishResumable(errMsg string) {
	st.mu.Lock()
	if !st.done {
		st.done = true
		st.errMsg = errMsg
		st.resumable = true
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// trailer is the final NDJSON object of a sweep stream. Its "done"
// field distinguishes it from cell records (which carry "key").
// NextFrom is an exact resume token on journal-backed streams (?from=
// requests); on fan-out streams it is -1, because their completion-
// order lines do not map to journal indexes — resume those with
// ?from=0 (the journal replay dedups nothing, but restored cells cost
// no re-execution) or with the count of distinct records held.
type trailer struct {
	Done        bool   `json:"done"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	Streamed    int    `json:"streamed"`
	Complete    bool   `json:"complete"`
	Error       string `json:"error,omitempty"`
	Resumable   bool   `json:"resumable,omitempty"`
	NextFrom    int    `json:"next_from"`
}

// stream writes the sweep to w as NDJSON: the cells already known at
// attach time first (Predicted ones leading — the cheap, model-
// answered majority of a guided sweep), then live cells in completion
// order, then the trailer. Returns when the sweep finishes, the
// client disconnects, or ctx is canceled.
func (st *sweepState) stream(ctx interface{ Done() <-chan struct{} }, w io.Writer) {
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	// Wake the cond waiter when the client goes away.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			st.cond.Broadcast()
		case <-stop:
		}
	}()
	canceled := func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}

	st.mu.Lock()
	snapshot := append([]recLine(nil), st.lines...)
	st.mu.Unlock()
	sort.SliceStable(snapshot, func(i, j int) bool {
		return snapshot[i].predicted && !snapshot[j].predicted
	})
	streamed := 0
	for _, l := range snapshot {
		if _, err := fmt.Fprintf(w, "%s\n", l.data); err != nil {
			return
		}
		streamed++
	}
	flush()

	next := len(snapshot)
	for {
		st.mu.Lock()
		for next >= len(st.lines) && !st.done && !canceled() {
			st.cond.Wait()
		}
		batch := append([]recLine(nil), st.lines[next:]...)
		done, errMsg, resumable := st.done, st.errMsg, st.resumable
		st.mu.Unlock()

		for _, l := range batch {
			if _, err := fmt.Fprintf(w, "%s\n", l.data); err != nil {
				return
			}
			streamed++
			next++
		}
		if len(batch) > 0 {
			flush()
		}
		if canceled() {
			return
		}
		if done {
			tr := trailer{
				Done:        true,
				Fingerprint: st.fp,
				Cells:       st.cells,
				Streamed:    streamed,
				Complete:    errMsg == "" && streamed >= st.cells,
				Error:       errMsg,
				Resumable:   resumable,
				NextFrom:    -1,
			}
			line, _ := json.Marshal(tr)
			if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
				return
			}
			flush()
			return
		}
	}
}
