// Command epscale runs the paper's experiment matrix on the simulated
// platform and regenerates its tables and figures.
//
// Usage:
//
//	epscale                    # full 48-run matrix, all tables/figures
//	epscale -what table3       # one artifact
//	epscale -quick             # smaller matrix for a fast look
//	epscale -csv -what fig7    # CSV instead of aligned text
//	epscale -sizes 512,1024 -threads 1,2,3,4
//	epscale -ablate-affinity   # communication charging off
//	epscale -trace-out sweep.json -metrics   # Perfetto trace + metrics
//	epscale -plan guided -what model         # model-guided sweep + fit report
//	epscale -algs SpMV,CG -what measurement  # sparse workloads only
//	epscale -what future-dmm -cluster 1xFDR,7xFDR,49xFDR  # distributed study
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"capscale/internal/caps"
	"capscale/internal/cluster"
	"capscale/internal/faults"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/obs"
	"capscale/internal/report"
	"capscale/internal/sim"
	"capscale/internal/sparse"
	"capscale/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// artifactNames is the single ordered registry of -what modes. The
// flag help and the unknown-artifact error both derive from it, so
// the advertised list cannot drift from what run() accepts.
var artifactNames = []string{
	"all", "table2", "table3", "table4",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"headlines", "breakdown", "measurement", "comm", "model",
	"future-dmm", "future-sparse", "platforms",
}

func knownArtifact(name string) bool {
	for _, a := range artifactNames {
		if a == name {
			return true
		}
	}
	return false
}

// sweepFlags shape or run the sweep; -load renders a saved matrix
// instead of sweeping, so it takes none of them.
var sweepFlags = map[string]bool{
	"quick": true, "sizes": true, "threads": true, "nodes": true,
	"algs": true, "cluster": true, "plan": true, "seed-frac": true,
	"confidence": true, "ablate-affinity": true, "ablate-contention": true,
	"j": true, "faults": true, "fault-rate": true, "checkpoint": true,
	"cell-retries": true,
}

// studyFlags lists, for each artifact that reads no sweep matrix, the
// flags it takes; every other flag shapes, saves or renders a matrix.
var studyFlags = map[string][]string{
	"fig2":          {"what", "cpuprofile", "memprofile"},
	"future-sparse": {"what", "csv", "cpuprofile", "memprofile"},
	"platforms":     {"what", "csv", "cpuprofile", "memprofile", "j"},
}

// charts holds the artifacts -chart can draw, each from the matrix and
// its largest size.
var charts = map[string]func(mx *workload.Matrix, size int) *report.Chart{
	"fig3": func(mx *workload.Matrix, _ int) *report.Chart { return report.SlowdownChart(mx) },
	"fig4": func(mx *workload.Matrix, _ int) *report.Chart {
		return report.PowerScalingChart(mx, workload.AlgOpenBLAS, 4)
	},
	"fig5": func(mx *workload.Matrix, _ int) *report.Chart {
		return report.PowerScalingChart(mx, workload.AlgStrassen, 5)
	},
	"fig6": func(mx *workload.Matrix, _ int) *report.Chart {
		return report.PowerScalingChart(mx, workload.AlgCAPS, 6)
	},
	"fig7": report.ScalingChart,
}

// run is main with its environment abducted: flag parsing, validation
// and the whole pipeline run against explicit writers so the CLI
// boundary is testable. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("epscale", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		what       = fs.String("what", "all", "artifact: "+strings.Join(artifactNames, ", "))
		quick      = fs.Bool("quick", false, "use a reduced matrix (sizes 512,1024; threads 1..4)")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		chart      = fs.Bool("chart", false, "render figures as ASCII line charts (fig3..fig7)")
		sizes      = fs.String("sizes", "", "comma-separated problem sizes (default: paper's 512,1024,2048,4096)")
		threads    = fs.String("threads", "", "comma-separated thread counts (default: paper's 1,2,3,4)")
		nodes      = fs.Int("nodes", 1, "replicate the machine across this many nodes (flat cluster; raises the thread ceiling)")
		noAffinity = fs.Bool("ablate-affinity", false, "disable affinity/communication charging")
		noContend  = fs.Bool("ablate-contention", false, "disable DRAM bandwidth contention")
		save       = fs.String("save", "", "save the executed matrix as JSON to this file")
		load       = fs.String("load", "", "render from a previously saved matrix instead of simulating")
		jobs       = fs.Int("j", 0, "matrix cells to simulate concurrently (0 = GOMAXPROCS)")
		traceOut   = fs.String("trace-out", "", "write the sweep as Chrome trace-event JSON (load at ui.perfetto.dev)")
		metrics    = fs.Bool("metrics", false, "print the pipeline metrics table to stderr after the run")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
		faultSeed  = fs.Int64("faults", 0, "arm the deterministic fault injector with this seed (0 = off)")
		faultRate  = fs.Float64("fault-rate", 0.5, "fraction of matrix cells armed for injection (with -faults)")
		checkpoint = fs.String("checkpoint", "", "journal completed cells to this file and resume from it")
		cellRetry  = fs.Int("cell-retries", 0, "re-attempts per failed cell under -faults (0 = default, negative = none)")
		clusters   = fs.String("cluster", "", "comma-separated cluster specs (NODESxFABRIC[@MEMGiB], e.g. 16x1GbE,49xFDR); arms the distributed algorithms")
		algs       = fs.String("algs", "", "comma-separated algorithms (default: paper's dense set; valid: "+strings.Join(workload.AlgorithmNames(), ", ")+")")
		plan       = fs.String("plan", "exhaustive", "sweep plan: "+strings.Join(workload.PlanNames(), ", ")+" (guided fits the energy model and predicts confident cells)")
		seedFrac   = fs.Float64("seed-frac", 0, "guided plan: target fraction of cells in the initial seed (0 = default)")
		confid     = fs.Float64("confidence", 0, "guided plan: widest acceptable relative CI before a cell must be measured (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "epscale: -j must be >= 0, got %d\n", *jobs)
		return 2
	}
	if !knownArtifact(*what) {
		fmt.Fprintf(stderr, "epscale: unknown artifact %q (valid: %s)\n", *what, strings.Join(artifactNames, ", "))
		return 2
	}
	// Refuse a rendering the artifact lacks before any study or sweep
	// runs.
	if _, ok := charts[*what]; *chart && !ok {
		fmt.Fprintf(stderr, "epscale: no chart for %q (use fig3..fig7)\n", *what)
		return 2
	}
	if *csv && *what == "all" {
		fmt.Fprintln(stderr, "epscale: -csv requires a single -what artifact")
		return 2
	}
	if *csv && (*what == "fig2" || *chart) {
		fmt.Fprintln(stderr, "epscale: -csv needs a table; -what fig2 and -chart draw charts")
		return 2
	}
	if takes, ok := studyFlags[*what]; ok {
		if set := setFlags(fs, func(name string) bool { return !slices.Contains(takes, name) }); set != "" {
			fmt.Fprintf(stderr, "epscale: -what %s reads no sweep matrix; drop %s\n", *what, set)
			return 2
		}
	}
	if *load != "" {
		if set := setFlags(fs, func(name string) bool { return sweepFlags[name] }); set != "" {
			fmt.Fprintf(stderr, "epscale: -load renders a saved matrix and runs no sweep; drop %s\n", set)
			return 2
		}
	}
	if *faultSeed == 0 {
		if set := setFlags(fs, func(name string) bool { return name == "fault-rate" || name == "cell-retries" }); set != "" {
			fmt.Fprintf(stderr, "epscale: without -faults nothing is injected; drop %s\n", set)
			return 2
		}
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "epscale: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "epscale: %v\n", err)
		}
	}()

	// Study artifacts that do not need the 48-run matrix.
	if tbl := studyArtifact(*what, *jobs, stderr); tbl != nil {
		return emit(tbl, *csv, stdout, stderr)
	}
	if *what == "fig2" {
		printFigure2(stdout)
		return 0
	}
	// Matrix artifacts that need a cluster axis fill the axes the user
	// left unset.
	if *load == "" {
		switch *what {
		case "comm":
			if *clusters == "" {
				*clusters = "16x1GbE"
			}
		case "future-dmm":
			// The distributed study: dCAPS at 8192² on 1, 7 and 49 of
			// the paper's nodes over gigabit Ethernet.
			if *algs == "" {
				*algs = "dCAPS"
			}
			if *sizes == "" {
				*sizes = "8192"
			}
			if *clusters == "" {
				*clusters = "1x1GbE,7x1GbE,49x1GbE"
			}
		}
	}

	cfg := workload.PaperConfig()
	if *nodes < 1 {
		fmt.Fprintf(stderr, "epscale: -nodes must be >= 1, got %d\n", *nodes)
		return 2
	}
	if *nodes > 1 {
		cfg.Machine = hw.Cluster(cfg.Machine, *nodes)
	}
	if *quick {
		cfg.Sizes = []int{512, 1024}
	}
	if *sizes != "" {
		if cfg.Sizes, err = parseInts(*sizes); err != nil {
			fmt.Fprintf(stderr, "epscale: -sizes: %v\n", err)
			return 2
		}
	}
	if *threads != "" {
		if cfg.Threads, err = parseInts(*threads); err != nil {
			fmt.Fprintf(stderr, "epscale: -threads: %v\n", err)
			return 2
		}
		if max := cfg.Machine.Cores; maxOf(cfg.Threads) > max {
			fmt.Fprintf(stderr, "epscale: -threads %d exceeds the %d cores of %q\n",
				maxOf(cfg.Threads), max, cfg.Machine.Name)
			return 2
		}
	}
	if *algs != "" {
		if cfg.Algorithms, err = parseAlgorithms(*algs); err != nil {
			fmt.Fprintf(stderr, "epscale: -algs: %v\n", err)
			return 2
		}
	}
	if *clusters != "" {
		specs, err := parseClusters(*clusters)
		if err != nil {
			fmt.Fprintf(stderr, "epscale: -cluster: %v\n", err)
			return 2
		}
		cfg.Clusters = specs
		// An explicit -algs selection is taken as-is; otherwise a
		// cluster axis arms the distributed algorithms alongside the
		// paper's dense set.
		if *algs == "" {
			cfg.Algorithms = append(cfg.Algorithms, workload.DistributedAlgorithms()...)
		}
	}
	if cfg.Plan, err = workload.ParsePlan(*plan); err != nil {
		fmt.Fprintf(stderr, "epscale: -plan: %v\n", err)
		return 2
	}
	if *seedFrac < 0 || *seedFrac > 1 {
		fmt.Fprintf(stderr, "epscale: -seed-frac %g outside [0,1]\n", *seedFrac)
		return 2
	}
	if *confid < 0 {
		fmt.Fprintf(stderr, "epscale: -confidence must be >= 0, got %g\n", *confid)
		return 2
	}
	cfg.SeedFraction = *seedFrac
	cfg.Confidence = *confid
	if cfg.Plan == workload.PlanGuided {
		// Predicted cells carry no power trace and no fault exposure.
		switch {
		case *traceOut != "":
			fmt.Fprintln(stderr, "epscale: -plan guided cannot record traces (predicted cells have none); drop -trace-out")
			return 2
		case *faultSeed != 0:
			fmt.Fprintln(stderr, "epscale: -plan guided cannot run under fault injection; drop -faults")
			return 2
		}
	}
	cfg.DisableAffinity = *noAffinity
	cfg.DisableContention = *noContend
	cfg.Parallelism = *jobs
	cfg.MaxRetries = *cellRetry
	cfg.CheckpointPath = *checkpoint
	if *faultSeed != 0 {
		sch := faults.DefaultSchedule(*faultSeed)
		sch.CellFraction = *faultRate
		cfg.Faults = sch
	}

	var spans *obs.Collector
	if *traceOut != "" {
		cfg.RecordTraces = true // the exporter needs per-run power traces
		spans = obs.Enable()
		defer obs.Disable()
	}

	var mx *workload.Matrix
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintf(stderr, "epscale: %v\n", err)
			return 1
		}
		mx, err = workload.LoadJSON(f)
		_ = f.Close() // read-only; nothing buffered to lose
		if err != nil {
			fmt.Fprintf(stderr, "epscale: %v\n", err)
			return 1
		}
		cfg = mx.Cfg
	} else if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "epscale: %v\n", err)
		return 2
	}
	// Refuse an artifact the matrix cannot fill before simulating it.
	if err := artifactCells(*what, cfg.Algorithms); err != nil {
		fmt.Fprintf(stderr, "epscale: %v\n", err)
		return 2
	}
	if mx == nil {
		if cfg.Faults != nil {
			fmt.Fprintf(stderr, "epscale: fault injection armed (seed %d, %.0f%% of cells)\n",
				*faultSeed, 100**faultRate)
		}
		fmt.Fprintf(stderr, "epscale: running %d configurations on %q...\n",
			cfg.CellCount(), cfg.Machine.Name)
		if mx, err = execute(cfg); err != nil {
			fmt.Fprintf(stderr, "epscale: %v\n", err)
			return 1
		}
		if n := mx.RestoredCells(); n > 0 {
			fmt.Fprintf(stderr, "epscale: restored %d cell(s) from checkpoint %s\n", n, *checkpoint)
		}
		if cfg.Plan == workload.PlanGuided {
			fmt.Fprintf(stderr, "epscale: guided plan measured %d/%d cells (%d predicted, %d refit rounds)\n",
				mx.Planner.MeasuredCells, len(mx.Runs), mx.Planner.PredictedCells, mx.Planner.Rounds)
		}
	}
	if s := mx.DegradationSummary(); s != "" {
		fmt.Fprintf(stderr, "epscale: sweep degraded:\n%s", s)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintf(stderr, "epscale: %v\n", err)
			return 1
		}
		if err := mx.SaveJSON(f); err != nil {
			fmt.Fprintf(stderr, "epscale: %v\n", err)
			return 1
		}
		// A failed Close can mean the kernel never accepted the last
		// buffered bytes — a truncated matrix that would only surface
		// on the next -load. Surface it now.
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "epscale: saving matrix: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "epscale: saved matrix to %s\n", *save)
	}
	if *traceOut != "" {
		if err := writeMatrixTrace(*traceOut, mx, spans); err != nil {
			fmt.Fprintf(stderr, "epscale: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "epscale: wrote trace to %s (load at ui.perfetto.dev)\n", *traceOut)
	}
	if *metrics {
		fmt.Fprint(stderr, report.MetricsTable().String())
	}

	tables := map[string]func() *report.Table{
		"table2":    func() *report.Table { return report.Table2(mx) },
		"table3":    func() *report.Table { return report.Table3(mx) },
		"table4":    func() *report.Table { return report.Table4(mx) },
		"fig1":      func() *report.Table { return report.Figure1(maxOf(cfg.Threads)) },
		"fig3":      func() *report.Table { return report.Figure3(mx) },
		"fig4":      func() *report.Table { return report.PowerScalingFigure(mx, workload.AlgOpenBLAS, 4) },
		"fig5":      func() *report.Table { return report.PowerScalingFigure(mx, workload.AlgStrassen, 5) },
		"fig6":      func() *report.Table { return report.PowerScalingFigure(mx, workload.AlgCAPS, 6) },
		"fig7":      func() *report.Table { return report.Figure7(mx) },
		"headlines": func() *report.Table { return report.Headlines(mx) },
		"breakdown": func() *report.Table {
			return report.BreakdownTable(mx, cfg.Sizes[len(cfg.Sizes)-1], maxOf(cfg.Threads))
		},
		"measurement": func() *report.Table { return report.MeasurementTable(mx) },
		"comm":        func() *report.Table { return report.CommTable(mx) },
		"future-dmm":  func() *report.Table { return report.DistributedStudyTable(mx) },
	}

	if *chart {
		fmt.Fprint(stdout, charts[*what](mx, cfg.Sizes[len(cfg.Sizes)-1]).String())
		return 0
	}
	if *what == "all" {
		fmt.Fprint(stdout, report.All(mx))
		return 0
	}
	if *what == "model" {
		return emitModel(mx, *csv, stdout, stderr)
	}
	mk, ok := tables[*what]
	if !ok {
		fmt.Fprintf(stderr, "epscale: unknown artifact %q (valid: %s)\n", *what, strings.Join(artifactNames, ", "))
		return 2
	}
	return emit(mk(), *csv, stdout, stderr)
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

// artifactCells reports which cells of a matrix over algs the artifact
// would read and the matrix cannot have, or nil when it has them all.
// table2, fig3, headlines and all compare Strassen and CAPS against
// OpenBLAS; fig4–fig6 plot one of the three; the other node artifacts
// read the single-node cells of whatever algorithms there are, and
// comm and future-dmm the distributed ones.
func artifactCells(what string, algs []workload.Algorithm) error {
	var need []workload.Algorithm
	switch what {
	case "all", "table2", "fig3", "headlines":
		need = workload.PaperAlgorithms()
	case "fig4":
		need = []workload.Algorithm{workload.AlgOpenBLAS}
	case "fig5":
		need = []workload.Algorithm{workload.AlgStrassen}
	case "fig6":
		need = []workload.Algorithm{workload.AlgCAPS}
	case "table3", "table4", "fig7", "breakdown", "comm", "future-dmm":
		distributed := what == "comm" || what == "future-dmm"
		for _, a := range algs {
			if a.Distributed() == distributed {
				return nil
			}
		}
		kind := "single-node"
		if distributed {
			kind = "distributed"
		}
		return fmt.Errorf("-what %s reads cells the matrix lacks: %s algorithms", what, kind)
	}
	var missing []string
	for _, a := range need {
		if !slices.Contains(algs, a) {
			missing = append(missing, a.String())
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("-what %s reads cells the matrix lacks: %s", what, strings.Join(missing, ", "))
	}
	return nil
}

// emitModel renders the fitted energy-complexity model: per-family fit
// quality, the platform coefficients, and the worst training rows. In
// CSV mode only the family-stats table is emitted.
func emitModel(mx *workload.Matrix, csv bool, stdout, stderr io.Writer) int {
	stats, err := report.ModelTable(mx)
	if err != nil {
		fmt.Fprintf(stderr, "epscale: model: %v\n", err)
		return 1
	}
	if csv {
		return emit(stats, true, stdout, stderr)
	}
	coefs, err := report.ModelCoefficientTable(mx)
	if err != nil {
		fmt.Fprintf(stderr, "epscale: model: %v\n", err)
		return 1
	}
	worst, err := report.ModelWorstTable(mx, 8)
	if err != nil {
		fmt.Fprintf(stderr, "epscale: model: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, stats.String(), "\n", coefs.String(), "\n", worst.String())
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

func writeMatrixTrace(path string, mx *workload.Matrix, spans *obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WriteMatrixChromeTrace(f, mx, spans); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

func emit(tbl *report.Table, csv bool, stdout, stderr io.Writer) int {
	if csv {
		if err := tbl.WriteCSV(stdout); err != nil {
			fmt.Fprintf(stderr, "epscale: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, tbl.String())
	return 0
}

// printFigure2 renders the paper's Fig. 2 content — depth-first vs
// breadth-first CAPS traversal — as simulated schedule Gantt charts.
func printFigure2(w io.Writer) {
	m := hw.HaswellE31225()
	n := 512
	fmt.Fprintf(w, "Figure 2 — depth-first vs breadth-first CAPS traversal (%d², 4 workers):\n", n)
	for _, cutoff := range []int{-1, 2} {
		a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
		root := caps.Build(m, c, a, b, 4, caps.Options{CutoffDepth: cutoff})
		res := sim.Run(m, root, sim.Config{Workers: 4, RecordSchedule: true})
		title := fmt.Sprintf("CAPS cutoff depth %d (%.4f s, %.0f%% busy)", cutoff, res.Makespan, 100*res.Utilization())
		if cutoff < 0 {
			title = fmt.Sprintf("pure DFS (%.4f s, %.0f%% busy)", res.Makespan, 100*res.Utilization())
		}
		g := &report.Gantt{Title: title, Workers: 4, Spans: res.Schedule}
		fmt.Fprintln(w, g.String())
	}
}

// studyArtifact produces the artifacts that are not one matrix: the
// sparse storage-format study, which runs its own experiment, and the
// platform sweep, one matrix per zoo machine, its cells fanned across
// jobs workers.
func studyArtifact(what string, jobs int, stderr io.Writer) *report.Table {
	switch what {
	case "future-sparse":
		fmt.Fprintln(stderr, "epscale: running SpMV storage study (power-law 8192²)...")
		m := hw.HaswellE31225()
		a := sparse.PowerLaw(rand.New(rand.NewSource(42)), 8192, 16, 1.8)
		return report.SparseStudyTable(sparse.EnergyStudy(m, a, []int{1, 2, 3, 4}, 50))
	case "platforms":
		fmt.Fprintln(stderr, "epscale: running cross-platform sweep (2048²)...")
		var mxs []*workload.Matrix
		for _, m := range hw.Zoo() {
			cfg := workload.PlatformConfig(m, 2048)
			cfg.Parallelism = jobs
			mxs = append(mxs, workload.Execute(cfg))
		}
		return report.PlatformTable(mxs)
	default:
		return nil
	}
}

// parseClusters parses a comma-separated list of cluster specs
// ("16x1GbE,49xFDR@16") through cluster.ParseSpec.
func parseClusters(s string) ([]cluster.Spec, error) {
	var out []cluster.Spec
	for _, part := range strings.Split(s, ",") {
		spec, err := cluster.ParseSpec(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// parseAlgorithms parses a comma-separated list of algorithm names
// ("SpMV,CG") through workload.ParseAlgorithm, so the error lists
// every valid spelling.
func parseAlgorithms(s string) ([]workload.Algorithm, error) {
	var out []workload.Algorithm
	for _, part := range strings.Split(s, ",") {
		a, err := workload.ParseAlgorithm(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// parseInts parses a comma-separated list of positive integers,
// returning an error instead of exiting so the CLI boundary reports
// bad input uniformly.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func maxOf(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
