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
//	                      → NDJSON stream of cell records, then one
//	                      trailer object. Requests with equal
//	                      fingerprints attach to one in-flight
//	                      execution (single-flight): each cell is
//	                      executed at most once no matter how many
//	                      clients ask for it. Records arrive in journal
//	                      order, each once its journal append has
//	                      returned, and the trailer's "next_from" is
//	                      the exact journal index after the last record
//	                      sent. With ?from=N (or a Last-Cell: N header)
//	                      the stream starts at record index N: a client
//	                      cut off mid-stream re-POSTs with
//	                      ?from=<next_from> and receives each record
//	                      exactly once, even across a replica death.
//	GET  /v1/result/{fp}  replay a completed sweep's records from the
//	                      persistent store, byte-identical to the
//	                      lines streamed while it ran. ?from=N skips
//	                      the first N records; X-Next-From carries the
//	                      full count either way.
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
// unreadable) and resumes any incomplete sweep whose lease is free.
//
// What a sweep makes durable: its lease, its journal, and each
// record. The request lives in the journal's header (written by
// workload.Config.Request), so the journal alone is enough to resume
// the sweep. A sweep journals the cells the run cache already holds
// together, with one write and one fsync, before it simulates any
// cell, and announces them only after that commit; each simulated cell
// is appended and fsynced on its own as it completes. A sweep whose
// every cell is cached therefore costs three fsyncs: lease, journal
// creation and the commit.
//
// One read path: the journal is the stream. Every record a client
// receives — on the POST that started a sweep, an attached or
// following POST, a ?from= resume, or a GET — is read out of the store
// journal by one incremental store.JournalReader, so all of them see
// the same bytes in the same order. Subscribers of a sweep this
// replica executes wake on the executor's per-cell announcement
// (workload.Config.OnRun, which fires after the cell's journal append
// has returned); only followers of another replica's sweep poll the
// journal, every FollowPoll.
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
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
	// FollowPoll is how often a read-only follower polls a journal
	// another replica is writing; 0 selects DefaultFollowPoll.
	// Subscribers of a sweep this replica executes never poll.
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
	store *store.Store
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
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("serve: empty store directory")
	}
	st, err := store.Open(cfg.StoreDir, cfg.FS)
	if err != nil {
		return nil, fmt.Errorf("serve: creating store: %w", err)
	}
	return &Server{
		cfg:     cfg,
		store:   st,
		cache:   workload.NewRunCache(workload.DefaultRunCacheCap),
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
// incomplete sweep with a free lease and a request in its journal's
// header is resumed through the normal checkpoint path. Call it on
// startup, after mounting nothing — it launches executor goroutines,
// not requests. logf (nil for silent) receives one line per action
// taken.
func (s *Server) Recover(logf func(format string, args ...any)) (resumed, salvaged int) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// An unlistable store directory has nothing to recover.
	journals, _ := s.store.Fingerprints()
	for _, fp := range journals {
		if changed, err := store.SalvageJournal(s.store.FS(), s.store.Path(fp), store.MaxRecord); err != nil {
			logf("recover %s: salvage: %v", fp, err)
			continue
		} else if changed {
			salvaged++
			mSalvaged.Inc()
			logf("recover %s: salvaged journal (torn tail or junk compacted away)", fp)
		}
		stored, body, err := s.storedCells(fp)
		if err != nil {
			logf("recover %s: %v", fp, err)
			continue
		}
		if len(body) == 0 {
			continue // nothing to reconstruct the sweep from
		}
		var req SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			logf("recover %s: unreadable request: %v", fp, err)
			continue
		}
		cfg, err := req.Config()
		if err != nil || cfg.Fingerprint() != fp {
			logf("recover %s: stored request does not reproduce the fingerprint; skipping", fp)
			continue
		}
		cfg.Request = body
		if stored >= cfg.CellCount() {
			continue // complete: replayable, nothing to resume
		}
		if info, live := store.ReadLeaseInfo(s.store.FS(), s.store.LeasePath(fp), time.Now()); live {
			logf("recover %s: leased by %q; leaving it to them", fp, info.Owner)
			continue
		}
		if _, attached, err := s.startOrAttach(fp, cfg); err != nil {
			logf("recover %s: %v", fp, err)
		} else if !attached {
			resumed++
			mRecovered.Inc()
			logf("recover %s: resuming (%d/%d cells stored)", fp, stored, cfg.CellCount())
		}
	}
	return resumed, salvaged
}

// storedCells counts the distinct cells fp's journal holds and returns
// the request its header carries (none when there is no journal).
func (s *Server) storedCells(fp string) (int, []byte, error) {
	seen := make(map[string]bool)
	jr := store.NewJournalReader(s.store.FS(), s.store.Path(fp), store.MaxRecord)
	defer func() { _ = jr.Close() }()
	err := jr.Next(false, func(line []byte) bool {
		seen[recordKey(line)] = true
		return true
	})
	if store.IsNotExist(err) {
		err = nil
	}
	return len(seen), jr.Header.Request, err
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
		st.finish("server draining; completed cells are stored — resume with ?from=", true)
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

// clientID identifies a request's client for quota accounting: its
// X-Client-ID header, else the host part of its remote address, so
// that every connection of one host shares one quota.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
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
// it wants) — exactly the "next_from" every trailer carries. Absent,
// it is 0.
func resumeToken(r *http.Request) (int, error) {
	v := r.URL.Query().Get("from")
	if v == "" {
		v = r.Header.Get("Last-Cell")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad resume token %q (want a non-negative record index)", v)
	}
	return n, nil
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
	if len(body) > 0 {
		cfg.Request = body // journaled in the header, for Recover
	}
	fp := cfg.Fingerprint()
	from, err := resumeToken(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	st, attached, err := s.startOrAttach(fp, cfg)
	var held *store.HeldError
	switch {
	case err == nil && attached:
		mAttached.Inc()
	case errors.As(err, &held):
		// Another replica is executing this sweep: follow its journal.
		mFollowed.Inc()
		w.Header().Set("X-Sweep-Leaseholder", held.Info.Owner)
	case err != nil && !s.store.Has(fp):
		mShedBusy.Inc()
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Fingerprint", fp)
	w.WriteHeader(http.StatusOK)
	s.stream(r.Context(), w, fp, cfg, from, st)
}

// startOrAttach returns the in-flight sweep state for fp, launching
// the execution when this request is the first to ask for it. The
// launch claims the journal's on-disk lease; a *store.HeldError means
// another replica holds it (callers fall back to following its
// journal), any other error is executor backpressure. cfg.Request,
// the request recovery resumes from, goes into the journal's header.
func (s *Server) startOrAttach(fp string, cfg workload.Config) (*sweepState, bool, error) {
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

	lease, err := store.AcquireLease(s.store.FS(), s.store.LeasePath(fp), s.cfg.ReplicaID, s.cfg.LeaseTTL, nil)
	if err != nil {
		s.mu.Lock()
		delete(s.sweeps, fp)
		s.active--
		s.mu.Unlock()
		mActive.Add(-1)
		// Anyone who attached to the placeholder in the window gets a
		// resumable trailer pointing at the follower path.
		st.finish("sweep not started here: "+err.Error()+" — re-POST to follow the holder's journal", true)
		return nil, false, err
	}
	mStarted.Inc()
	s.wg.Add(1)
	go s.runSweep(st, cfg, lease)
	return st, false, nil
}

// runSweep executes one sweep into the store journal, announcing each
// cell to the state's subscribers once it has resolved.
func (s *Server) runSweep(st *sweepState, cfg workload.Config, lease *store.Lease) {
	defer s.wg.Done()
	cfg.CheckpointPath = s.store.Path(st.fp)
	cfg.FS = s.cfg.FS
	cfg.Lease = lease
	cfg.Stop = func() bool { return s.stopSweeps.Load() }
	cfg.Cache = s.cache
	cfg.Parallelism = s.cfg.Parallelism
	cfg.OnRun = func(key string, _ *workload.Run) { st.announce(key) }

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
		st.finish(err.Error(), false)
	case len(mx.InterruptedRuns()) > 0:
		// Drain deadline or lost lease: the sweep stopped at a cell
		// boundary with everything completed safely journaled.
		mInterrupted.Inc()
		reason := "drain deadline"
		if lost {
			reason = "journal lease lost to another replica"
		}
		st.finish(fmt.Sprintf("sweep interrupted (%s): %d of %d cells not executed; completed cells are stored — resume with ?from=",
			reason, len(mx.InterruptedRuns()), st.cells), true)
	default:
		mCompleted.Inc()
		st.finish("", true)
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

// stream writes fp's journal to w as NDJSON from record index from,
// then a trailer whose "next_from" is the journal index after the last
// record it covers. It is the one read path behind every POST. With st
// set this replica executes the sweep: the stream wakes on the
// executor's announcements and passes a record only once its cell was
// announced before the read began, that is once the fsync covering
// the record has returned; an append that fails rolls its lines back
// before its cells are announced, so the stream never passes them.
// With st nil another replica executes the sweep, or nobody does: the
// stream polls the journal every FollowPoll and takes the sweep over
// when it is incomplete and its lease is free.
func (s *Server) stream(ctx context.Context, w io.Writer, fp string, cfg workload.Config, from int, st *sweepState) {
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	jr := store.NewJournalReader(s.store.FS(), s.store.Path(fp), store.MaxRecord)
	defer func() { _ = jr.Close() }()
	cells := cfg.CellCount()
	seen := make(map[string]bool) // distinct cells among the records passed
	pos, streamed := 0, 0         // journal index of the next record; records sent
	tr := trailer{Done: true, Fingerprint: fp, Cells: cells, Resumable: true}
	for {
		var changed <-chan struct{}
		seq, done := 0, false
		if st != nil {
			changed, seq, done = st.watch()
		}
		// Until the first announcement the file at the journal path may
		// predate the executor's compaction: leave it unread.
		if st == nil || seq > 0 {
			var werr error
			before := pos
			err := jr.Next(false, func(line []byte) bool {
				key := recordKey(line)
				if jr.Header.Fingerprint != fp || (st != nil && !st.announcedBy(key, seq)) {
					return false
				}
				seen[key] = true
				if pos++; pos <= from {
					return true
				}
				if _, werr = fmt.Fprintf(w, "%s\n", line); werr != nil {
					return false
				}
				streamed++
				mCellsSent.Inc()
				return true
			})
			if werr != nil {
				return // client gone; nothing more to say
			}
			if pos > before {
				flush()
			}
			if err != nil && !store.IsNotExist(err) {
				tr.Error = "journal read: " + err.Error()
				break
			}
			if jr.HeaderOK && jr.Header.Fingerprint != fp {
				tr.Error, tr.Resumable = "stored journal belongs to a different configuration", false
				break
			}
		}
		if st != nil {
			if done {
				tr.Error, tr.Resumable = st.errMsg, st.resumable
				break
			}
			select {
			case <-changed:
			case <-ctx.Done():
				return
			}
			continue
		}
		if len(seen) >= cells {
			break
		}
		if st = s.adopt(fp, cfg); st == nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				tr.Error = "server draining; resume against another replica"
				break
			}
			t := time.NewTimer(s.cfg.FollowPoll)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
	}
	tr.Streamed, tr.NextFrom = streamed, max(pos, from)
	tr.Complete = len(seen) >= cells && from <= pos
	switch {
	case tr.Complete:
		tr.Error, tr.Resumable = "", false
	case len(seen) >= cells:
		tr.Error = fmt.Sprintf("resume token %d beyond the journal (%d records; it may have been salvaged) — restart from 0", from, pos)
	case tr.Error == "":
		tr.Error = fmt.Sprintf("the journal holds %d of %d cells; re-POST to execute the rest", len(seen), cells)
	}
	line, _ := json.Marshal(tr)
	if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
		return
	}
	flush()
}

// adopt returns this replica's execution of fp for a stream following
// the journal: the one in flight, or a takeover started when no live
// lease guards the sweep. Nil while another replica executes it, or
// while this one drains.
func (s *Server) adopt(fp string, cfg workload.Config) *sweepState {
	s.mu.Lock()
	st, draining := s.sweeps[fp], s.draining
	s.mu.Unlock()
	if st != nil || draining {
		return st
	}
	if _, live := store.ReadLeaseInfo(s.store.FS(), s.store.LeasePath(fp), time.Now()); live {
		return nil
	}
	st, attached, err := s.startOrAttach(fp, cfg)
	if err == nil && !attached {
		mTakeovers.Inc()
	}
	return st
}

// recordKey returns a journal record's cell key. Records are written
// as {"key":"...",...} with a plain key, so a prefix cut finds it;
// anything else takes a JSON parse.
func recordKey(line []byte) string {
	if rest, ok := bytes.CutPrefix(line, []byte(`{"key":"`)); ok {
		if key, _, ok := bytes.Cut(rest, []byte{'"'}); ok && bytes.IndexByte(key, '\\') < 0 {
			return string(key)
		}
	}
	var rec struct {
		Key string `json:"key"`
	}
	_ = json.Unmarshal(line, &rec) // a line that is no record has no key
	return rec.Key
}

// handleResult replays a completed sweep's journal from the store,
// byte-identical across replays (and to the record lines streamed by
// the POSTs that produced it). ?from=N skips the first N records;
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
	if !store.ValidFingerprint(fp) {
		http.Error(w, "malformed fingerprint", http.StatusBadRequest)
		return
	}
	from, err := resumeToken(r)
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
	var lines [][]byte
	jr := store.NewJournalReader(s.store.FS(), s.store.Path(fp), store.MaxRecord)
	err = jr.Next(false, func(line []byte) bool {
		lines = append(lines, line)
		return true
	})
	_ = jr.Close() // a read-only handle: nothing to lose
	switch {
	case store.IsNotExist(err):
		http.Error(w, "no stored result for fingerprint "+fp, http.StatusNotFound)
		return
	case err == nil && !jr.HeaderOK:
		err = fmt.Errorf("stored journal for %s has no readable header", fp)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if from > len(lines) {
		http.Error(w, fmt.Sprintf("resume token %d beyond the %d stored records", from, len(lines)),
			http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Next-From", strconv.Itoa(len(lines)))
	for _, line := range lines[from:] {
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return
		}
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
	stored, _ := s.store.Fingerprints() // an unlistable store reports none
	doc := statusJSON{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		ReplicaID:        s.cfg.ReplicaID,
		Draining:         draining,
		ActiveSweeps:     active,
		OpenRequests:     mOpenReqs.Value(),
		StoredResults:    len(stored),
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

// sweepState is one sweep this replica executes. It holds no records
// — subscribers read those from the journal — only which cells the
// executor has announced and how the sweep ended.
type sweepState struct {
	fp    string
	cells int

	mu        sync.Mutex
	changed   chan struct{}  // closed and replaced by every announce and by finish
	announced map[string]int // cells resolved (journaled, restored or failed), by announcement order from 1
	done      bool
	errMsg    string // fixed once done
	resumable bool
}

func newSweepState(fp string, cells int) *sweepState {
	return &sweepState{fp: fp, cells: cells, changed: make(chan struct{}), announced: make(map[string]int)}
}

// announce records that key's cell has resolved — its journal append
// has returned, it was restored, or it failed — and wakes every
// subscriber.
func (st *sweepState) announce(key string) {
	st.mu.Lock()
	if _, ok := st.announced[key]; !ok {
		st.announced[key] = len(st.announced) + 1
	}
	close(st.changed)
	st.changed = make(chan struct{})
	st.mu.Unlock()
}

// finish marks the sweep ended (errMsg "" on success); resumable tells
// clients a re-POST (with ?from=) picks up where the sweep stopped.
// Idempotent; the first call wins.
func (st *sweepState) finish(errMsg string, resumable bool) {
	st.mu.Lock()
	if !st.done {
		st.done, st.errMsg, st.resumable = true, errMsg, resumable
		close(st.changed)
		st.changed = make(chan struct{})
	}
	st.mu.Unlock()
}

// watch returns a channel the next announce or finish closes, how
// many cells have been announced so far, and whether the sweep has
// finished.
func (st *sweepState) watch() (changed <-chan struct{}, seq int, done bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.changed, len(st.announced), st.done
}

// announcedBy reports whether key's cell was among the first seq
// announced.
func (st *sweepState) announcedBy(key string, seq int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	n, ok := st.announced[key]
	return ok && n <= seq
}

// trailer is the final NDJSON object of a sweep stream. Its "done"
// field distinguishes it from cell records (which carry "key").
// NextFrom is the journal index after the last record the stream
// covers: the exact resume token for ?from=.
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
