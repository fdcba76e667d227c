// Command powertrace simulates one matrix-multiplication run and emits
// its sampled power trace as CSV (t_s, pkg_w, pp0_w, dram_w, total_w),
// the log a PAPI/RAPL poller would have produced on the paper's
// platform.
//
// Usage:
//
//	powertrace -alg caps -n 1024 -threads 4 -interval 0.001 > trace.csv
//	powertrace -alg caps -n 1024 -trace-out run.json >/dev/null
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"capscale/internal/cluster"
	"capscale/internal/faults"
	"capscale/internal/hw"
	"capscale/internal/obs"
	"capscale/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runFlags shape the single run and sessionFlags the session sweep;
// each mode refuses the other's.
var (
	runFlags     = map[string]bool{"alg": true, "n": true, "threads": true, "cluster": true}
	sessionFlags = map[string]bool{"j": true, "fault-rate": true, "checkpoint": true}
)

// run is the testable CLI body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powertrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg        = fs.String("alg", "openblas", "algorithm: "+strings.Join(workload.AlgorithmNames(), ", ")+" (distributed ones need -cluster)")
		n          = fs.Int("n", 1024, "square problem dimension")
		threads    = fs.Int("threads", 4, "thread count (1..4 on the paper's machine; -nodes raises the ceiling)")
		nodes      = fs.Int("nodes", 1, "replicate the machine across this many nodes (flat cluster)")
		interval   = fs.Float64("interval", 0.001, "sampling interval in seconds")
		session    = fs.Bool("session", false, "emit the whole 48-run experiment session (quick sizes) with 60s quiesce gaps instead of one run")
		jobs       = fs.Int("j", 0, "matrix cells to simulate concurrently in -session mode (0 = GOMAXPROCS)")
		traceOut   = fs.String("trace-out", "", "also write the run as Chrome trace-event JSON (load at ui.perfetto.dev)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
		faultSeed  = fs.Int64("faults", 0, "arm the deterministic fault injector with this seed (0 = off)")
		faultRate  = fs.Float64("fault-rate", 0.5, "fraction of session cells armed for injection (with -session and -faults)")
		checkpoint = fs.String("checkpoint", "", "journal completed session cells to this file and resume from it (requires -session)")
		cellRetry  = fs.Int("cell-retries", 0, "re-attempts per failed cell under -faults (0 = default, negative = none)")
		clusterStr = fs.String("cluster", "", "run the algorithm distributed on this cluster (NODESxFABRIC[@MEMGiB], e.g. 16x1GbE); requires a distributed -alg")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := workload.PaperConfig()
	if *nodes < 1 {
		fmt.Fprintf(stderr, "powertrace: -nodes must be >= 1, got %d\n", *nodes)
		return 2
	}
	if *nodes > 1 {
		cfg.Machine = hw.Cluster(cfg.Machine, *nodes)
	}
	switch {
	case *n <= 0:
		fmt.Fprintf(stderr, "powertrace: -n must be positive, got %d\n", *n)
		return 2
	case *threads < 1 || *threads > cfg.Machine.Cores:
		fmt.Fprintf(stderr, "powertrace: -threads must be in 1..%d on %q, got %d\n",
			cfg.Machine.Cores, cfg.Machine.Name, *threads)
		return 2
	case *interval <= 0:
		fmt.Fprintf(stderr, "powertrace: -interval must be positive, got %g\n", *interval)
		return 2
	case *jobs < 0:
		fmt.Fprintf(stderr, "powertrace: -j must be >= 0, got %d\n", *jobs)
		return 2
	}
	if *session {
		if set := setFlags(fs, func(name string) bool { return runFlags[name] }); set != "" {
			fmt.Fprintf(stderr, "powertrace: -session runs the paper's matrix, not one run; drop %s\n", set)
			return 2
		}
	} else if set := setFlags(fs, func(name string) bool { return sessionFlags[name] }); set != "" {
		fmt.Fprintf(stderr, "powertrace: a single run takes no session flags; drop %s\n", set)
		return 2
	}
	if *faultSeed == 0 {
		if set := setFlags(fs, func(name string) bool { return name == "fault-rate" || name == "cell-retries" }); set != "" {
			fmt.Fprintf(stderr, "powertrace: without -faults nothing is injected; drop %s\n", set)
			return 2
		}
	}
	cfg.MaxRetries = *cellRetry
	if *faultSeed != 0 {
		sch := faults.DefaultSchedule(*faultSeed)
		if *session {
			sch.CellFraction = *faultRate
		} else {
			sch.CellFraction = 1 // the one run under test is the armed cell
		}
		cfg.Faults = sch
	}
	if *session {
		cfg.Sizes = []int{512, 1024} // keep the emitted CSV manageable
		cfg.RecordTraces = true
		cfg.TraceSampleInterval = *interval
		cfg.Parallelism = *jobs
		cfg.CheckpointPath = *checkpoint
		if err := cfg.Validate(); err != nil {
			fmt.Fprintf(stderr, "powertrace: %v\n", err)
			return 2
		}
	}
	if cfg.Faults != nil {
		fmt.Fprintf(stderr, "powertrace: fault injection armed (seed %d, %.0f%% of cells)\n",
			*faultSeed, 100*cfg.Faults.CellFraction)
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "powertrace: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "powertrace: %v\n", err)
		}
	}()

	var spans *obs.Collector
	if *traceOut != "" {
		spans = obs.Enable()
		defer obs.Disable()
	}

	if *session {
		mx, err := execute(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "powertrace: %v\n", err)
			return 1
		}
		if n := mx.RestoredCells(); n > 0 {
			fmt.Fprintf(stderr, "powertrace: restored %d cell(s) from checkpoint %s\n", n, *checkpoint)
		}
		if s := mx.DegradationSummary(); s != "" {
			fmt.Fprintf(stderr, "powertrace: session degraded:\n%s", s)
		}
		tr := mx.SessionTrace()
		fmt.Fprintf(stderr, "powertrace: session of %d runs, %.1f s total\n", len(mx.Runs), tr.Duration())
		if *traceOut != "" {
			if err := writeTraceFile(*traceOut, func(w io.Writer) error {
				return workload.WriteMatrixChromeTrace(w, mx, spans)
			}); err != nil {
				fmt.Fprintf(stderr, "powertrace: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "powertrace: wrote trace to %s (load at ui.perfetto.dev)\n", *traceOut)
		}
		if err := tr.WriteCSV(stdout); err != nil {
			fmt.Fprintf(stderr, "powertrace: %v\n", err)
			return 1
		}
		return 0
	}

	a, err := workload.ParseAlgorithm(*alg)
	if err != nil {
		fmt.Fprintf(stderr, "powertrace: %v\n", err)
		return 2
	}
	if a.Distributed() != (*clusterStr != "") {
		if a.Distributed() {
			fmt.Fprintf(stderr, "powertrace: %v needs -cluster (e.g. -cluster 16x1GbE)\n", a)
		} else {
			fmt.Fprintf(stderr, "powertrace: -cluster needs a distributed -alg (summa, 2.5d, dstrassen, dcaps)\n")
		}
		return 2
	}

	cfg.RecordTraces = true
	cfg.RecordSchedule = *traceOut != "" && !a.Distributed() // the trace's worker tracks need leaf placement
	cfg.TraceSampleInterval = *interval
	var run workload.Run
	if a.Distributed() {
		spec, err := cluster.ParseSpec(*clusterStr)
		if err != nil {
			fmt.Fprintf(stderr, "powertrace: -cluster: %v\n", err)
			return 2
		}
		run = workload.ExecuteOneCluster(cfg, a, *n, spec)
	} else {
		run = workload.ExecuteOne(cfg, a, *n, *threads)
	}
	if run.Failed() {
		fmt.Fprintf(stderr, "powertrace: run FAILED after %d attempt(s): %s\n", run.Attempts, run.Err)
		return 1
	}

	if a.Distributed() {
		fmt.Fprintf(stderr, "powertrace: %v n=%d on %s (%d ranks): %.4fs, %.2f MB on the wire in %d messages, NIC %.2f J + switch %.2f J\n",
			a, *n, run.Cluster, run.Ranks, run.Seconds, run.WireBytes/1e6, run.Messages,
			run.NICJoules, run.SwitchJoules)
	} else {
		fmt.Fprintf(stderr, "powertrace: %v n=%d threads=%d: %.4fs, %.2f W avg (PKG %.2f + DRAM %.2f)\n",
			a, *n, *threads, run.Seconds, run.WattsTotal(), run.WattsPKG(), run.WattsDRAM())
	}
	fmt.Fprintf(stderr, "powertrace: monitor reconciled %d samples, max rel.err vs ground truth %.2e\n",
		run.MeasSamples, run.MeasurementErr())
	if run.Degraded {
		fmt.Fprintf(stderr, "powertrace: run degraded (%d read errors, %d dropped samples, quarantined: %s) — flagged figures are not clean measurements\n",
			run.MeasReadErrors, run.MeasDrops, strings.Join(run.QuarantinedPlanes, "+"))
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, func(w io.Writer) error {
			return workload.WriteRunChromeTrace(w, &run, spans)
		}); err != nil {
			fmt.Fprintf(stderr, "powertrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "powertrace: wrote trace to %s (load at ui.perfetto.dev)\n", *traceOut)
	}
	if err := run.Trace.WriteCSV(stdout); err != nil {
		fmt.Fprintf(stderr, "powertrace: %v\n", err)
		return 1
	}
	return 0
}

// execute runs cfg's sweep, returning a panic out of workload.Execute
// (a checkpoint journal it cannot open or another process leases) as
// an error, so the CLI reports it on one line.
func execute(cfg workload.Config) (mx *workload.Matrix, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return workload.Execute(cfg), nil
}

// setFlags returns the flags given on the command line that match, as
// "-name" words in name order, or "" when none does.
func setFlags(fs *flag.FlagSet, match func(name string) bool) string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if match(f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	return strings.Join(set, " ")
}

func writeTraceFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
