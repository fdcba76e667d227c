// Command epscaled serves the experiment pipeline over HTTP:
// sweep-as-a-service. POST /v1/sweep streams a sweep's cell records
// as NDJSON while it executes (identical concurrent requests attach
// to one execution); GET /v1/result/{fingerprint} replays a stored
// sweep byte-identically; GET /v1/status and /debug/vars expose the
// service and pipeline telemetry. See internal/serve.
//
// Usage:
//
//	epscaled [-addr :8080] [-store DIR] [-parallel N] [-id REPLICA]
//	         [-max-sweeps N] [-client-quota N] [-lease-ttl 5s]
//	         [-drain-timeout 30s]
//
// Multiple replicas may share one -store directory: on-disk leases
// (owner -id, monotonic epoch, -lease-ttl) give each sweep journal one
// writer at a time. A replica asked for a sweep another replica is
// executing follows its journal read-only; if the leaseholder dies,
// any replica takes the sweep over and resumes it. On startup the
// store is recovered: torn journal tails are salvaged and incomplete
// unleased sweeps resume automatically from the request their journal
// header carries.
//
// On SIGINT/SIGTERM the server stops admitting work and drains
// in-flight sweeps up to -drain-timeout; at the deadline the sweeps
// are stopped at their next cell boundary instead, clients receive a
// resumable trailer, and every completed cell stays journaled in the
// store — interrupted sweeps resume where they stopped when
// re-requested (exactly, with ?from=<next_from>).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"capscale/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable body of main. When ready is non-nil it receives
// the bound listen address once the server is accepting requests.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("epscaled", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	store := fs.String("store", "epscaled-store", "result store directory (one JSONL journal per sweep fingerprint)")
	parallel := fs.Int("parallel", 0, "cell workers per sweep (0 = all cores)")
	maxSweeps := fs.Int("max-sweeps", serve.DefaultMaxActiveSweeps, "max concurrently executing sweeps (further requests get 429)")
	clientQuota := fs.Int("client-quota", serve.DefaultClientQuota, "max open requests per client (X-Client-ID header; <0 disables)")
	replicaID := fs.String("id", "", "replica ID stamped on store leases (default host:pid)")
	leaseTTL := fs.Duration("lease-ttl", 0, "sweep journal lease lifetime between renewals (0 = library default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight sweeps on shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "epscaled: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintln(stderr, "epscaled: -parallel must be >= 0")
		return 2
	}
	if *maxSweeps <= 0 {
		fmt.Fprintln(stderr, "epscaled: -max-sweeps must be positive")
		return 2
	}

	if *leaseTTL < 0 {
		fmt.Fprintln(stderr, "epscaled: -lease-ttl must be >= 0")
		return 2
	}

	srv, err := serve.New(serve.Config{
		StoreDir:        *store,
		Parallelism:     *parallel,
		MaxActiveSweeps: *maxSweeps,
		ClientQuota:     *clientQuota,
		ReplicaID:       *replicaID,
		LeaseTTL:        *leaseTTL,
	})
	if err != nil {
		fmt.Fprintf(stderr, "epscaled: %v\n", err)
		return 1
	}
	if resumed, salvaged := srv.Recover(func(format string, args ...any) {
		fmt.Fprintf(stdout, "epscaled: "+format+"\n", args...)
	}); resumed > 0 || salvaged > 0 {
		fmt.Fprintf(stdout, "epscaled: recovery: %d sweeps resumed, %d journals salvaged\n", resumed, salvaged)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	ln, err := newListener(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "epscaled: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "epscaled: replica %s serving on %s (store %s)\n", srv.ReplicaID(), ln.Addr(), *store)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "epscaled: serve: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "epscaled: %v — draining (up to %s)\n", s, *drainTimeout)
	}

	// Stop accepting, let open streams finish, then drain the sweeps.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := srv.Drain(*drainTimeout)
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "epscaled: shutdown: %v\n", err)
	}
	if !drained {
		fmt.Fprintln(stdout, "epscaled: drain deadline — in-flight sweeps stopped at a cell boundary; completed cells are journaled and clients were told to resume (trailer resumable:true)")
		return 1
	}
	fmt.Fprintln(stdout, "epscaled: drained cleanly")
	return 0
}
