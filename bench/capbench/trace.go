package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"capscale/internal/cluster"
	"capscale/internal/dmm"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/monitor"
	"capscale/internal/mpi"
	"capscale/internal/obs"
	"capscale/internal/rapl"
	"capscale/internal/serve"
	"capscale/internal/sim"
	"capscale/internal/store"
	"capscale/internal/strassen"
	"capscale/internal/task"
	"capscale/internal/workload"
)

// The traced run attributes a workload's time to layers from outside:
// it re-composes the cell path executeCell runs (tree build → sim →
// monitor, or mpi → monitor for a distributed cell) and the served
// path's storage steps (request sidecar, lease, journal create,
// marshal, fsynced append, replay) from the layers' public functions,
// timing each call in this file. The program itself is not traced, so
// a change that restructures the cell path must update this file in a
// benchmark change of its own; each re-composed cell is compared with
// what workload.Execute produced, so drift shows as a failure rather
// than as a silently wrong ledger.

// tracer keeps the benchmark's own spans in memory, one track per
// concern, for the Chrome trace written at the end.
type tracer struct {
	c      *obs.Collector
	mu     sync.Mutex
	tracks map[string]obs.Track
}

func newTracer() *tracer {
	return &tracer{c: obs.NewCollector(), tracks: map[string]obs.Track{}}
}

// start opens a span on the named track; on a nil tracer it returns
// the no-op span.
func (t *tracer) start(track, name string) obs.Span {
	if t == nil {
		return obs.Span{}
	}
	t.mu.Lock()
	tr, ok := t.tracks[track]
	if !ok {
		tr = t.c.NewTrack(track)
		t.tracks[track] = tr
	}
	t.mu.Unlock()
	return obs.StartOn(tr, name)
}

// timed runs f inside a span and returns its wall time.
func (t *tracer) timed(track, name string, f func()) time.Duration {
	sp := t.start(track, name)
	start := time.Now()
	f()
	d := time.Since(start)
	sp.End()
	return d
}

// write exports the spans as a Chrome trace and validates the file.
func (t *tracer) write(path string) error {
	b := obs.NewTraceBuilder()
	b.AddCollector(t.c, 1, "capbench")
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		return err
	}
	if _, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ledgerInput is what the traced run re-composes for a workload: the
// sweeps of one operation, and the request body its sidecar would hold.
func ledgerInput(o options) (cfgs []workload.Config, body []byte, err error) {
	var req serve.SweepRequest
	switch o.workload {
	case "serve-cold":
		sr, err := newRequestGen(o.seed, o.workload).next()
		if err != nil {
			return nil, nil, err
		}
		req = sr.req
	case "serve-hot":
		req = universeRequest()
	default:
		cfgs, err := iterationConfigs(o.workload)
		body, _ := json.Marshal(universeRequest()) // a representative sidecar
		return cfgs, body, err
	}
	cfg, err := req.Config()
	if err != nil {
		return nil, nil, err
	}
	cfg.NoCache, cfg.Parallelism = true, gomaxprocs
	body, err = json.Marshal(req)
	return []workload.Config{cfg}, body, err
}

// runTraced is the per-layer run: one short instance of the workload
// for its end-to-end operation time and the program's own counters,
// then the ledger.
func runTraced(ctx context.Context, w workloadDef, o options, log io.Writer) (*outcome, error) {
	tr := newTracer()
	out := newOutcome()
	seconds := o.seconds / float64(instanceCount(o.seconds))

	var opP50, opCells, daemonCellSecs float64
	if w.served {
		gen := newRequestGen(o.seed, o.workload)
		r, err := runInstance(ctx, o, 0, seconds, gen, tr, log)
		if err != nil {
			return nil, err
		}
		r.recheck(o.seed, 0)
		out.attempted += r.attempted
		for _, f := range r.failures {
			out.fail("%s", f)
		}
		var totals, cells []float64
		for _, p := range r.posts {
			totals = append(totals, p.total.Seconds())
			cells = append(cells, float64(len(p.records)))
		}
		opP50, opCells = quantile(totals, 0.5), quantile(cells, 0.5)
		hits := counter(r.vars1, "workload.cache.hits") - counter(r.vars0, "workload.cache.hits")
		misses := counter(r.vars1, "workload.cache.misses") - counter(r.vars0, "workload.cache.misses")
		executed := counter(r.vars1, "workload.cells.executed") - counter(r.vars0, "workload.cells.executed")
		out.put("cache_hit_ratio", "ratio", ratio(hits, hits+misses))
		out.put("cells_executed_per_op", "count", ratio(executed, float64(len(r.posts))))
		n0, sum0 := histogram(r.vars0, "workload.cell.seconds")
		n1, sum1 := histogram(r.vars1, "workload.cell.seconds")
		daemonCellSecs = ratio(sum1-sum0, n1-n0)
	} else {
		var run childRun
		var err error
		tr.timed("instance", "child process", func() {
			run, err = startChild(ctx, o.workload, seconds, log)
		})
		if err != nil {
			return nil, err
		}
		rep := run.rep
		out.attempted += rep.Attempted
		out.failed += rep.Failed
		out.failures = append(out.failures, rep.Failures...)
		opP50 = quantile(rep.Sweeps, 0.5)
		out.put("cache_hit_ratio", "ratio", ratio(float64(rep.CacheHits), float64(rep.CacheHits+rep.CacheMisses)))
		out.put("cells_executed_per_op", "count", ratio(float64(rep.CellsExecuted), float64(len(rep.Sweeps))))
	}

	cfgs, body, err := ledgerInput(o)
	if err != nil {
		return nil, err
	}
	l := &ledger{tr: tr, out: out}
	if err := l.measure(ctx, cfgs, body); err != nil {
		return nil, err
	}
	l.attributeOp(o.workload, opP50, opCells, daemonCellSecs)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
	out.attempted++
	if err := tr.write(path); err != nil {
		out.fail("chrome trace: %v", err)
	} else {
		fmt.Fprintf(log, "capbench: chrome trace %s\n", path)
	}
	return out, nil
}

// put sets one per-layer metric.
func (o *outcome) put(name, unit string, v float64) {
	o.perLayer[name] = metric{Value: v, Unit: unit}
}

// ledger accumulates the per-layer measurements of one traced run.
type ledger struct {
	tr  *tracer
	out *outcome

	// opCells is each sweep's per-cell re-composed wall time.
	opCells                [][]time.Duration
	sidecar, lease, create []float64 // seconds
	appends                []float64 // seconds
	marshalPerRecord       float64   // seconds
}

// cellCost is one re-composed cell, or a sum of them. For a node cell,
// sim is sim.Run with the monitor fused in through OnSegment, as
// executeCell runs it; for a distributed cell, sim is mpi.RunTraced
// and monitor the replay of its timeline.
type cellCost struct {
	build, sim, monitor time.Duration
	// wall is the whole re-composed cell path.
	wall             time.Duration
	leaves, segments int
}

func (c *cellCost) add(d cellCost) {
	c.build += d.build
	c.sim += d.sim
	c.monitor += d.monitor
	c.wall += d.wall
	c.leaves += d.leaves
	c.segments += d.segments
}

// Small matrices are repeated, up to maxReps times, until the warm-up
// sweep's time × repetitions reaches ledgerBudget, so their timings
// rise above clock and GC noise.
const (
	ledgerBudget = 2 * time.Second
	maxReps      = 10
)

// measure runs every ledger step over the workload's sweeps. Each
// timed phase starts from a collected heap, so no phase pays for the
// garbage of the one before it.
func (l *ledger) measure(ctx context.Context, cfgs []workload.Config, body []byte) error {
	phase := func(track, name string, f func()) time.Duration {
		runtime.GC()
		return l.tr.timed(track, name, f)
	}
	// First, on a heap the sweeps have not grown yet.
	l.out.put("build_dense_over_shape", "ratio", l.denseOverShape())

	// An untimed sweep grows the heap, so no timed step pays the page
	// faults of the first one; its records are the reference.
	seq, par := withParallelism(cfgs, 1), withParallelism(cfgs, gomaxprocs)
	var base, again iteration
	warm := l.tr.timed("sweeps", "warm-up", func() { base = runIteration(par) })
	baseDigest, problems := base.check()
	if len(problems) > 0 {
		return fmt.Errorf("reference sweep: %s", problems[0])
	}

	// Each repetition runs the sweeps and then the cell path cell by
	// cell, back to back, so a slow spell of the host lands on all of
	// them alike and each ratio compares neighbours.
	reps := int(min(maxReps, max(1, ledgerBudget/warm)))
	var cellSeq, parWall, observed time.Duration
	var node, dist cellCost
	for _, mx := range base.matrices {
		l.opCells = append(l.opCells, make([]time.Duration, len(mx.Runs)))
	}
	for range reps {
		parWall += phase("sweeps", "Execute parallelism=2", func() { runIteration(par) })
		obs.Enable()
		observed += phase("sweeps", "Execute parallelism=1, obs enabled", func() { runIteration(seq) })
		obs.Disable()
		cellSeq += phase("sweeps", "Execute parallelism=1", func() { again = runIteration(seq) })
		runtime.GC()
		for m, mx := range base.matrices {
			for i := range mx.Runs {
				if err := ctx.Err(); err != nil {
					return err
				}
				l.out.attempted++
				c, err := l.cellPath(mx.Cfg, &mx.Runs[i])
				if err != nil {
					l.out.fail("%v", err)
				}
				if mx.Runs[i].Cluster == "" {
					node.add(c)
				} else {
					dist.add(c)
				}
				l.opCells[m][i] += c.wall / time.Duration(reps)
			}
		}
	}
	l.out.attempted++
	if digest, _ := again.check(); digest != baseDigest {
		l.out.fail("the sequential sweep's records differ from the parallel sweep's")
	}
	// The monitor's share of the node cells' fused sim.Run.
	var nodeMonitor time.Duration
	for _, mx := range base.matrices {
		for range reps {
			for i := range mx.Runs {
				if mx.Runs[i].Cluster != "" {
					continue
				}
				d, segs, err := l.monitorAlone(mx.Cfg, &mx.Runs[i])
				if err != nil {
					return err
				}
				nodeMonitor += d
				node.segments += segs
			}
		}
	}
	if err := l.storage(base, body); err != nil {
		return err
	}

	put := l.out.put
	per := func(d time.Duration) float64 { return d.Seconds() / float64(reps) }
	nodeSimSelf := node.sim - nodeMonitor
	path := node.build + node.sim + dist.sim + dist.monitor
	put("cell_s", "s", per(cellSeq))
	put("build_s", "s", per(node.build))
	put("sim_self_s", "s", per(nodeSimSelf+dist.sim))
	put("monitor_s", "s", per(nodeMonitor+dist.monitor))
	put("unattributed_share", "ratio", 1-float64(path)/float64(cellSeq))
	put("trace_overhead", "ratio", float64(node.wall+dist.wall)/float64(cellSeq)-1)
	put("sim_ns_per_leaf", "ns", ratio(float64(nodeSimSelf.Nanoseconds()), float64(node.leaves)))
	put("monitor_ns_per_segment", "ns", ratio(float64((nodeMonitor+dist.monitor).Nanoseconds()), float64(node.segments+dist.segments)))
	put("parallel_speedup", "ratio", float64(cellSeq)/float64(parWall))
	put("pool_occupancy", "ratio", float64(cellSeq)/(gomaxprocs*float64(parWall)))
	put("obs_enabled_overhead", "ratio", float64(observed)/float64(cellSeq)-1)
	return nil
}

func withParallelism(cfgs []workload.Config, p int) []workload.Config {
	out := make([]workload.Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Parallelism = p
		out[i] = cfg
	}
	return out
}

func pollInterval(cfg workload.Config) float64 {
	if cfg.PollInterval > 0 {
		return cfg.PollInterval
	}
	return workload.DefaultPollInterval
}

func cellLabel(r *workload.Run) string {
	label := fmt.Sprintf("%s/%d/%d", r.Alg, r.N, r.Threads)
	if r.Cluster != "" {
		label += "@" + r.Cluster
	}
	return label
}

// cellPath re-composes one cell the way executeCell runs it, and
// checks that it reproduces the Run Execute produced.
func (l *ledger) cellPath(cfg workload.Config, want *workload.Run) (cellCost, error) {
	key := cellLabel(want)
	mcfg := monitor.Config{PollInterval: pollInterval(cfg)}
	var c cellCost
	var rep *monitor.Report
	var err error
	start := time.Now()
	if want.Cluster != "" {
		run, perr := distributedProgram(cfg.Machine, want)
		if perr != nil {
			return c, fmt.Errorf("cell %s: %w", key, perr)
		}
		var segs []sim.Segment
		c.sim = l.tr.timed("cells", "mpi.RunTraced "+key, func() { _, segs = run() })
		mcfg.Planes = rapl.ClusterPlanes()
		c.monitor = l.tr.timed("cells", "monitor.Replay "+key, func() { rep, err = monitor.Replay(segs, mcfg) })
		c.segments = len(segs)
	} else {
		var root *task.Node
		var res *sim.Result
		c.build = l.tr.timed("cells", "BuildTree "+key, func() { root = workload.BuildTree(cfg.Machine, want.Alg, want.N, want.Threads) })
		stream, serr := monitor.NewStream(mcfg)
		if serr != nil {
			return c, serr
		}
		c.sim = l.tr.timed("cells", "sim.Run+monitor.Stream "+key, func() {
			res = sim.Run(cfg.Machine, root, sim.Config{Workers: want.Threads, OnSegment: stream.OnSegment})
		})
		rep, err = stream.Finish()
		c.leaves = res.Leaves
	}
	c.wall = time.Since(start)
	if err != nil {
		return c, fmt.Errorf("cell %s: %w", key, err)
	}
	if rep.Duration != want.Seconds || rep.Plane(rapl.PlanePKG).MeasuredJ != want.PKGJoules {
		return c, fmt.Errorf("cell %s: the re-composed cell path no longer reproduces Execute (%.9g s, %.9g J vs %.9g s, %.9g J); update the traced run",
			key, rep.Duration, rep.Plane(rapl.PlanePKG).MeasuredJ, want.Seconds, want.PKGJoules)
	}
	return c, nil
}

// monitorAlone times the monitor over a recorded timeline of a node
// cell: its share of the fused sim.Run, measured without timing each
// OnSegment call, which would cost more than the monitor itself.
func (l *ledger) monitorAlone(cfg workload.Config, r *workload.Run) (time.Duration, int, error) {
	res := sim.Run(cfg.Machine, workload.BuildTree(cfg.Machine, r.Alg, r.N, r.Threads),
		sim.Config{Workers: r.Threads, RecordTimeline: true})
	runtime.GC()
	var err error
	d := l.tr.timed("cells", "monitor.Replay "+cellLabel(r), func() {
		_, err = monitor.Replay(res.Timeline, monitor.Config{PollInterval: pollInterval(cfg)})
	})
	return d, len(res.Timeline), err
}

// distributedProgram rebuilds a distributed cell's MPI run: the rank
// count fitted to its cluster spec and the algorithm's rank program.
func distributedProgram(m *hw.Machine, r *workload.Run) (func() (*mpi.Result, []sim.Segment), error) {
	spec, err := cluster.ParseSpec(r.Cluster)
	if err != nil {
		return nil, err
	}
	fabric, err := spec.Comms.Fabric()
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(m, spec.Nodes, fabric)
	if err != nil {
		return nil, err
	}
	var prog func(*mpi.Rank)
	switch r.Alg {
	case workload.AlgSUMMA:
		prog = dmm.SUMMA(r.N)
	case workload.Alg25D:
		prog = dmm.TwoPointFiveD(r.N, r.Replication)
	case workload.AlgDStrassen:
		prog = dmm.Strassen(r.N, 0)
	case workload.AlgDistCAPS:
		prog = dmm.CAPS(r.N, 0)
	default:
		return nil, fmt.Errorf("%v is not a distributed algorithm", r.Alg)
	}
	return func() (*mpi.Result, []sim.Segment) { return mpi.RunTraced(cl, r.Ranks, prog) }, nil
}

// journals is how many journals the storage ledger writes; each gets
// one record per cell of the workload's operation.
const journals = 8

// storage times the served path's storage steps over the operation's
// records, on a temp store next to the daemons' stores.
func (l *ledger) storage(base iteration, body []byte) error {
	var lines [][]byte
	var runs []*workload.Run
	var keys []string
	for _, mx := range base.matrices {
		for i := range mx.Runs {
			r := &mx.Runs[i]
			runs = append(runs, r)
			keys = append(keys, base.keys[coordOf(r)])
		}
	}
	const marshalReps = 20
	d := l.tr.timed("storage", "MarshalRunRecord", func() {
		for range marshalReps {
			lines = lines[:0]
			for i, r := range runs {
				line, _ := workload.MarshalRunRecord(keys[i], r) // checked by base.check
				lines = append(lines, line)
			}
		}
	})
	l.marshalPerRecord = d.Seconds() / float64(marshalReps*len(runs))

	dir, err := os.MkdirTemp("", "capbench-ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, nil)
	if err != nil {
		return err
	}
	var replayBytes int
	var replaySecs float64
	for j := range journals {
		fp := fmt.Sprintf("%016x", j+1)
		var lease *store.Lease
		acquire := l.tr.timed("storage", "AcquireLease", func() {
			lease, err = store.AcquireLease(nil, st.LeasePath(fp), "capbench", 0, nil)
		})
		if err != nil {
			return err
		}
		sidecar := l.tr.timed("storage", "SaveRequest", func() { err = st.SaveRequest(fp, body) })
		if err != nil {
			return err
		}
		// Version 1 is the sweep journal layout the served path writes.
		hdr, _ := json.Marshal(store.Header{Version: 1, Fingerprint: fp}) // an int and a string always marshal
		var jr *store.Journal
		create := l.tr.timed("storage", "CreateJournal", func() {
			jr, err = store.CreateJournal(nil, st.Path(fp), hdr, nil, lease, nil)
		})
		if err != nil {
			return err
		}
		for _, line := range lines {
			a := l.tr.timed("storage", "Journal.Append", func() { err = jr.Append(line) })
			if err != nil {
				return err
			}
			l.appends = append(l.appends, a.Seconds())
		}
		if err := jr.Close(); err != nil {
			return err
		}
		release := l.tr.timed("storage", "Lease.Release", func() { err = lease.Release() })
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		replay := l.tr.timed("storage", "ReplayJournal", func() { _, err = workload.ReplayJournal(st.Path(fp), &buf) })
		if err != nil {
			return err
		}
		if want := bytes.Join(lines, []byte{'\n'}); !bytes.Equal(bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), want) {
			l.out.fail("journal %s does not replay the appended records byte for byte", fp)
		}
		l.out.attempted++
		replayBytes += buf.Len()
		replaySecs += replay.Seconds()
		l.sidecar = append(l.sidecar, sidecar.Seconds())
		l.lease = append(l.lease, (acquire + release).Seconds())
		l.create = append(l.create, create.Seconds())
	}
	put := l.out.put
	put("marshal_us_per_record", "us", l.marshalPerRecord*1e6)
	put("append_us_p50", "us", quantile(l.appends, 0.5)*1e6)
	put("append_us_p90", "us", quantile(l.appends, 0.9)*1e6)
	put("create_ms_p50", "ms", quantile(l.create, 0.5)*1e3)
	put("lease_ms_p50", "ms", quantile(l.lease, 0.5)*1e3)
	put("sidecar_ms_p50", "ms", quantile(l.sidecar, 0.5)*1e3)
	put("replay_mb_per_s", "MB/s", float64(replayBytes)/1e6/replaySecs)
	appendsUS := make([]float64, len(l.appends))
	for i, a := range l.appends {
		appendsUS[i] = a * 1e6
	}
	l.out.timings["append_us_p50"] = timingOf(appendsUS)
	return nil
}

// denseOverShape is the ROADMAP's shape-only anomaly: Strassen's tree
// built over three allocated n×n operands (as BenchmarkBuildTree/dense
// does) against workload.BuildTree's shape-only operands, at n=2048.
func (l *ledger) denseOverShape() float64 {
	const n, reps = 2048, 3
	m := hw.HaswellE31225()
	var dense, shape []float64
	for range reps {
		runtime.GC()
		dense = append(dense, l.tr.timed("build", "strassen.Build dense", func() {
			a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
			strassen.Build(m, c, a, b, 4, strassen.Options{})
		}).Seconds())
		runtime.GC()
		shape = append(shape, l.tr.timed("build", "workload.BuildTree shape", func() {
			workload.BuildTree(m, workload.AlgStrassen, n, 4)
		}).Seconds())
	}
	return quantile(dense, 0.5) / quantile(shape, 0.5)
}

// attributeOp sets op_unattributed_ms: the workload's measured median
// operation time minus what the ledger's layers explain of it.
//
// In-process, the explained part is the sweep's cell work spread
// ideally over the pool: at least half its cells' time on two workers,
// and at least its longest cell. What remains is pool imbalance, lost
// parallelism and the overhead of Execute itself.
//
// Served, it is the storage steps (sidecar, lease, journal create, and
// marshal plus fsynced append per record) plus the cells' share of the
// sweep's two workers, at the cell time the daemon itself measured
// during the window (workload.cell.seconds; it includes contention
// with the other client's sweep). serve-hot executes no cells: every
// one is a run-cache hit. What remains is HTTP and serve bookkeeping.
func (l *ledger) attributeOp(name string, opP50, opCells, daemonCellSecs float64) {
	var model float64
	if workloads[name].served {
		perRecord := l.marshalPerRecord + quantile(l.appends, 0.5)
		model = quantile(l.sidecar, 0.5) + quantile(l.lease, 0.5) + quantile(l.create, 0.5) +
			opCells*(perRecord+daemonCellSecs/gomaxprocs)
	} else {
		for _, cells := range l.opCells {
			sum, longest := 0.0, 0.0
			for _, c := range cells {
				sum += c.Seconds()
				longest = max(longest, c.Seconds())
			}
			model += max(sum/gomaxprocs, longest)
		}
	}
	l.out.put("op_unattributed_ms", "ms", (opP50-model)*1e3)
	l.out.extra["op_p50_s"] = opP50
	l.out.extra["op_model_s"] = model
	l.out.extra["op_cells_p50"] = opCells
	l.out.extra["daemon_cell_s_mean"] = daemonCellSecs
}
