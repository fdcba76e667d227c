package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/obs"
	"capscale/internal/workload"
)

// The in-process workloads run workload.Execute back to back, which is
// what an epscale user pays for a sweep. Their input is fixed — the
// paper's matrix, and a scaled-out matrix beside it — so the seed does
// not change it; the golden digests pin the results instead. Each
// instance is a child process (capbench -child NAME), so heap growth
// and peak RSS never carry over from one instance to the next.

//go:embed golden.json
var goldenJSON []byte

// goldenDigests maps each in-process workload to the sha256 of one
// iteration's MarshalRunRecord lines, newline-terminated, in
// Matrix.Runs order. A program change that moves any cell's result
// must come with a benchmark change that updates golden.json.
var goldenDigests = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic("capbench: golden.json: " + err.Error())
	}
	return m
}()

// maxAbsErrJ is the per-plane reconciliation bound every cell must
// meet: measured joules within 1 mJ of the device truth, the same bound
// the repository's measurement-reconciliation gate uses.
const maxAbsErrJ = 1e-3

// iterationConfigs returns the sweeps one iteration of an in-process
// workload executes, in order.
func iterationConfigs(name string) ([]workload.Config, error) {
	switch name {
	case "paper-sweep":
		cfg := workload.PaperConfig()
		cfg.NoCache, cfg.Parallelism = true, gomaxprocs
		return []workload.Config{cfg}, nil
	case "scale-sweep":
		// Sizes are trimmed from n=4096 so an iteration takes about half
		// a second: enough iterations per window for a steady median.
		// The manycore half drives the simulator's >64-worker path, the
		// distributed half the mpi layer; paper-sweep reaches neither.
		var specs []cluster.Spec
		for _, s := range []string{"16x1GbE", "64xFDR"} {
			spec, err := cluster.ParseSpec(s)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
		manycore := workload.Config{
			Machine:        hw.Cluster(hw.HaswellE31225(), 64),
			Algorithms:     workload.PaperAlgorithms(),
			Sizes:          []int{2048},
			Threads:        []int{64, 256},
			QuiesceSeconds: 1,
			NoCache:        true,
			Parallelism:    gomaxprocs,
		}
		distributed := workload.Config{
			Machine:        hw.HaswellE31225(),
			Algorithms:     workload.DistributedAlgorithms(),
			Sizes:          []int{1024, 2048},
			Threads:        []int{4},
			Clusters:       specs,
			QuiesceSeconds: 1,
			NoCache:        true,
			Parallelism:    gomaxprocs,
		}
		return []workload.Config{manycore, distributed}, nil
	}
	return nil, fmt.Errorf("%q is not an in-process workload", name)
}

// cellCoord identifies a Run within one sweep.
type cellCoord struct {
	alg     workload.Algorithm
	n       int
	threads int
	cluster string
}

func coordOf(r *workload.Run) cellCoord {
	return cellCoord{alg: r.Alg, n: r.N, threads: r.Threads, cluster: r.Cluster}
}

// iteration is one timed pass over an in-process workload's sweeps.
type iteration struct {
	wall, firstCell time.Duration
	// cellTimes are the delays from the iteration's start to each
	// cell's OnRun, in completion order.
	cellTimes []time.Duration
	matrices  []*workload.Matrix
	// keys are the cell keys Execute streamed through OnRun — the same
	// keys a served sweep's records carry.
	keys   map[cellCoord]string
	onRuns int
}

func runIteration(cfgs []workload.Config) iteration {
	it := iteration{keys: map[cellCoord]string{}}
	var mu sync.Mutex
	start := time.Now()
	for _, cfg := range cfgs {
		cfg.OnRun = func(key string, r *workload.Run) {
			at := time.Since(start)
			mu.Lock()
			it.cellTimes = append(it.cellTimes, at)
			it.keys[coordOf(r)] = key
			it.onRuns++
			mu.Unlock()
		}
		it.matrices = append(it.matrices, workload.Execute(cfg))
	}
	it.wall = time.Since(start)
	it.firstCell = slices.Min(it.cellTimes)
	return it
}

// check returns the iteration's digest and every rule it breaks.
func (it *iteration) check() (digest string, problems []string) {
	h := sha256.New()
	cells := 0
	for _, mx := range it.matrices {
		if want := mx.Cfg.CellCount(); len(mx.Runs) != want {
			problems = append(problems, fmt.Sprintf("sweep returned %d runs, want %d", len(mx.Runs), want))
		}
		for i := range mx.Runs {
			r := &mx.Runs[i]
			cells++
			key, ok := it.keys[coordOf(r)]
			if !ok {
				problems = append(problems, fmt.Sprintf("cell %v/%d/%d never reached OnRun", r.Alg, r.N, r.Threads))
				continue
			}
			line, err := workload.MarshalRunRecord(key, r)
			if err != nil {
				problems = append(problems, fmt.Sprintf("cell %s: %v", key, err))
				continue
			}
			h.Write(line)
			h.Write([]byte{'\n'})
			if err := checkRun(key, r); err != nil {
				problems = append(problems, err.Error())
			}
		}
	}
	if it.onRuns != cells {
		problems = append(problems, fmt.Sprintf("OnRun fired %d times for %d cells", it.onRuns, cells))
	}
	return hex.EncodeToString(h.Sum(nil)), problems
}

// checkRun applies the per-cell rules shared by every workload: the
// cell completed, its measurement is clean, and its measured joules
// reconcile with the device truth.
func checkRun(key string, r *workload.Run) error {
	switch {
	case r.Failed():
		return fmt.Errorf("cell %s failed: %s", key, r.Err)
	case r.Degraded:
		return fmt.Errorf("cell %s is degraded", key)
	case r.MeasurementAbsErr() > maxAbsErrJ:
		return fmt.Errorf("cell %s: measured joules off the truth by %g J (bound %g J)", key, r.MeasurementAbsErr(), maxAbsErrJ)
	}
	return nil
}

// childReport is what one in-process instance sends its parent.
type childReport struct {
	Sweeps        []float64 `json:"sweeps"`
	FirstCells    []float64 `json:"first_cells"`
	CellLatencies []float64 `json:"cell_latencies"`
	Cells         int       `json:"cells"`
	Attempted     int       `json:"attempted"`
	Failed        int       `json:"failed"`
	Failures      []string  `json:"failures,omitempty"`
	PeakRSSMB     float64   `json:"peak_rss_mb"`
	CellsExecuted int64     `json:"cells_executed"`
	CacheHits     int64     `json:"cache_hits"`
	CacheMisses   int64     `json:"cache_misses"`
}

// runChild is one in-process instance: a checked warm-up iteration,
// the "ready" line that ends its set-up, then timed iterations until
// the next one would overrun the window, then its report.
func runChild(name string, seconds float64, stdout io.Writer) error {
	cfgs, err := iterationConfigs(name)
	if err != nil {
		return err
	}
	golden := goldenDigests[name]
	var rep childReport
	check := func(it iteration) {
		rep.Attempted++
		digest, problems := it.check()
		if digest != golden {
			problems = append(problems, fmt.Sprintf("results digest %s, golden %s", digest, golden))
		}
		if len(problems) > 0 {
			rep.Failed++
			rep.Failures = append(rep.Failures, problems[0])
		}
	}
	check(runIteration(cfgs))
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}

	executed := obs.GetCounter("workload.cells.executed")
	hits, misses := obs.GetCounter("workload.cache.hits"), obs.GetCounter("workload.cache.misses")
	executed0, hits0, misses0 := executed.Value(), hits.Value(), misses.Value()
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for len(rep.Sweeps) == 0 || time.Since(start)+last <= window {
		it := runIteration(cfgs)
		last = it.wall
		rep.Sweeps = append(rep.Sweeps, it.wall.Seconds())
		rep.FirstCells = append(rep.FirstCells, it.firstCell.Seconds())
		for _, d := range it.cellTimes {
			rep.CellLatencies = append(rep.CellLatencies, d.Seconds())
		}
		for _, mx := range it.matrices {
			rep.Cells += len(mx.Runs)
		}
		check(it)
	}
	rep.CellsExecuted = executed.Value() - executed0
	rep.CacheHits, rep.CacheMisses = hits.Value()-hits0, misses.Value()-misses0
	if rep.PeakRSSMB, err = statusMB(0, "VmHWM"); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// childRun is one in-process instance seen from its parent.
type childRun struct {
	rep childReport
	// setup runs from just before the process starts to its "ready"
	// line.
	setup float64
}

// startChild runs one in-process instance to completion.
func startChild(ctx context.Context, name string, seconds float64, log io.Writer) (run childRun, err error) {
	exe, err := os.Executable()
	if err != nil {
		return run, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", name, "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return run, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return run, err
	}
	br := bufio.NewReader(pipe)
	readErr := func() error {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("instance ended during set-up: %w", err)
		}
		if strings.TrimSpace(line) != "ready" {
			return fmt.Errorf("instance printed %q before ready", line)
		}
		run.setup = time.Since(start).Seconds()
		return json.NewDecoder(br).Decode(&run.rep)
	}()
	_, _ = io.Copy(io.Discard, br) // let the child finish writing before Wait
	waitErr := cmd.Wait()
	if readErr != nil {
		return run, readErr
	}
	if waitErr != nil {
		return run, fmt.Errorf("instance: %w", waitErr)
	}
	return run, nil
}

// runInProcess is the untraced run of an in-process workload.
func runInProcess(ctx context.Context, o options, log io.Writer) (*outcome, error) {
	out := newOutcome()
	var m measured
	executed, lookups, hits := 0.0, 0.0, 0.0
	k := instanceCount(o.seconds)
	for range k {
		run, err := startChild(ctx, o.workload, o.seconds/float64(k), log)
		if err != nil {
			return nil, err
		}
		rep := run.rep
		m.setup = append(m.setup, run.setup)
		m.sweep = append(m.sweep, rep.Sweeps...)
		m.firstCell = append(m.firstCell, rep.FirstCells...)
		m.cellLatency = append(m.cellLatency, rep.CellLatencies...)
		m.rssMB = append(m.rssMB, rep.PeakRSSMB)
		m.cells += rep.Cells
		for _, s := range rep.Sweeps {
			m.seconds += s
		}
		out.attempted += rep.Attempted
		out.failed += rep.Failed
		out.failures = append(out.failures, rep.Failures...)
		executed += float64(rep.CellsExecuted)
		lookups += float64(rep.CacheHits + rep.CacheMisses)
		hits += float64(rep.CacheHits)
	}
	m.into(out)
	out.extra["cells_executed_per_sweep"] = executed / float64(len(m.sweep))
	out.extra["cache_hit_ratio"] = ratio(hits, lookups)
	return out, nil
}

// measured is the population an untraced run pools across its
// instances.
type measured struct {
	setup, sweep, firstCell, cellLatency []float64
	// rssMB is each instance's worker-process high-water mark.
	rssMB []float64
	cells int
	// seconds is the wall time the cells were delivered in.
	seconds float64
}

// into sets the end-to-end metrics. Time to first cell and per-cell
// delivery latency go to the result file as timings: on this class of
// host their run-to-run spread is wider than any bound worth gating on.
func (m *measured) into(out *outcome) {
	put := func(name, unit string, xs []float64) {
		t := timingOf(xs)
		out.timings[name] = t
		out.endToEnd[name] = metric{Value: t.P50, Unit: unit}
	}
	put("setup_s", "s", m.setup)
	put("sweep_s_p50", "s", m.sweep)
	put("peak_rss_mb", "MB", m.rssMB)
	out.endToEnd["cells_per_s"] = metric{Value: ratio(float64(m.cells), m.seconds), Unit: "cells/s"}
	out.timings["first_cell_s"] = timingOf(m.firstCell)
	out.timings["cell_latency_s"] = timingOf(m.cellLatency)
	out.extra["cells"] = float64(m.cells)
	out.extra["window_busy_s"] = m.seconds
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
