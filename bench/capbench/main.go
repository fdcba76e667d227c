// Command capbench is the end-to-end benchmark of the sweep pipeline
// and the sweep service. One invocation runs one workload:
//
//	capbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	         [-epscaled BIN] [-out DIR]
//
// The untraced run (-trace 0) starts K fresh instances of the workload
// — a child process for the in-process sweeps, an epscaled daemon on an
// empty store for the served ones — gives each S/K seconds of closed-
// loop load after its set-up, checks every output, and prints each
// end-to-end metric. K is 3, or fewer when S is under 15 s (see
// instanceCount). The traced run (-trace 1) runs one short instance
// for the daemon's own counters and then re-composes the workload's
// cell path from the layers' public functions, timing each call from
// outside, and prints each per-layer metric; its spans go to a Chrome
// trace that must pass obs.ValidateChromeTrace.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. A longer JSON result (environment,
// sample counts, p90s, failures) goes to -out. The exit code is 0 only
// when every output checked out. bench/README.md describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gomaxprocs is the processor budget of every process doing the
// measured work (the benchmark itself, child processes, daemons): the
// two cores of the reference box, whatever the host has.
const gomaxprocs = 2

// runDeadline bounds one invocation, so a hang is reported as a failed
// run instead of outliving the caller's limit.
const runDeadline = 170 * time.Second

// instanceCount is how many fresh instances share a window of the
// given length: three, so setup_s and peak_rss_mb are medians, but
// fewer when that would leave an instance under five seconds.
func instanceCount(seconds float64) int {
	return min(3, max(1, int(seconds/5)))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	epscaled string
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured window in seconds, shared by the instances")
	traceLevel := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.epscaled, "epscaled", "", "epscaled binary for the served workloads")
	fs.StringVar(&o.outDir, "out", filepath.Join(os.TempDir(), "capbench"), "directory for the JSON result file and the Chrome trace")
	child := fs.String("child", "", "run one in-process workload instance and report on stdout (used by capbench itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		if err := runChild(*child, o.seconds, stdout); err != nil {
			fmt.Fprintf(stderr, "capbench child: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[o.workload]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "capbench: unexpected arguments %v\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "capbench: unknown workload %q (valid: %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case o.seconds <= 0:
		fmt.Fprintln(stderr, "capbench: -seconds must be positive")
		return 2
	case *traceLevel != 0 && *traceLevel != 1:
		fmt.Fprintln(stderr, "capbench: -trace must be 0 or 1")
		return 2
	case w.served && o.epscaled == "":
		fmt.Fprintln(stderr, "capbench: served workloads need -epscaled")
		return 2
	}
	o.trace = *traceLevel == 1
	runtime.GOMAXPROCS(gomaxprocs)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	env := describeEnvironment(o)
	fmt.Fprintln(stderr, env.header())

	var out *outcome
	var err error
	if o.trace {
		out, err = runTraced(ctx, w, o, stderr)
	} else {
		out, err = w.run(ctx, o, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "capbench: %s: %v\n", o.workload, err)
		return 1
	}
	res := out.result(o.trace)
	for _, line := range out.describe(o.trace) {
		fmt.Fprintln(stdout, line)
	}
	if path, err := writeReport(o, env, out, res); err != nil {
		fmt.Fprintf(stderr, "capbench: writing result file: %v\n", err)
	} else {
		fmt.Fprintf(stderr, "capbench: result file %s\n", path)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "capbench: FAILED: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "capbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadDef is one traffic mix; run performs its untraced run.
type workloadDef struct {
	served bool
	run    func(ctx context.Context, o options, log io.Writer) (*outcome, error)
}

var workloads = map[string]workloadDef{
	"paper-sweep": {run: runInProcess},
	"scale-sweep": {run: runInProcess},
	"serve-cold":  {served: true, run: runServed},
	"serve-hot":   {served: true, run: runServed},
}

func workloadNames() []string {
	return sortedKeys(workloads)
}

// metric is one printed value, in the final line's format.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timing is one timed population: its median always, its p90 only
// when at least ten samples lie beyond it.
type timing struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90,omitempty"`
}

func timingOf(xs []float64) timing {
	t := timing{N: len(xs), P50: quantile(xs, 0.5)}
	if len(xs) >= 100 {
		t.P90 = quantile(xs, 0.9)
	}
	return t
}

// outcome is what a run measured, before formatting.
type outcome struct {
	attempted, failed int
	failures          []string
	endToEnd          map[string]metric
	perLayer          map[string]metric
	// timings holds every timed population behind a metric, with its
	// sample count, plus tails the final line does not carry.
	timings map[string]timing
	// extra holds diagnostics for the result file only.
	extra map[string]float64
}

func newOutcome() *outcome {
	return &outcome{
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		timings:  map[string]timing{},
		extra:    map[string]float64{},
	}
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// metrics is what the final line carries: the per-layer metrics of a
// traced run, the end-to-end ones otherwise.
func (o *outcome) metrics(traced bool) map[string]metric {
	if traced {
		return o.perLayer
	}
	return o.endToEnd
}

func (o *outcome) result(traced bool) result {
	return result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   o.metrics(traced),
	}
}

// describe renders the human-readable lines: each metric, with the
// sample count (and p90, where it has one) of its timing, then the
// timings that are not metrics.
func (o *outcome) describe(traced bool) []string {
	ms := o.metrics(traced)
	var lines []string
	for _, n := range sortedKeys(ms) {
		m := ms[n]
		line := fmt.Sprintf("%-28s %14.6g %s", n, m.Value, m.Unit)
		if t, ok := o.timings[n]; ok {
			line += fmt.Sprintf("  n=%d", t.N)
			if t.P90 > 0 {
				line += fmt.Sprintf("  p90=%.6g", t.P90)
			}
		}
		lines = append(lines, line)
	}
	for _, n := range sortedKeys(o.timings) {
		if _, ok := ms[n]; ok || traced {
			continue
		}
		t := o.timings[n]
		line := fmt.Sprintf("%-28s %14.6g s  n=%d  (timing, not gated)", n, t.P50, t.N)
		if t.P90 > 0 {
			line += fmt.Sprintf("  p90=%.6g", t.P90)
		}
		lines = append(lines, line)
	}
	return append(lines, fmt.Sprintf("operations: %d attempted, %d failed", o.attempted, o.failed))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report is the JSON result file.
type report struct {
	Environment environment        `json:"environment"`
	Result      result             `json:"result"`
	Timings     map[string]timing  `json:"timings"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
}

func writeReport(o options, env environment, out *outcome, res result) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, mode))
	body, err := json.MarshalIndent(report{
		Environment: env, Result: res, Timings: out.timings, Extra: out.extra, Failures: out.failures,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(body, '\n'), 0o644)
}
