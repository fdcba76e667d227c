// Package workload drives the paper's experiment matrix: every
// algorithm × problem size × thread count combination, executed on the
// virtual-time simulator, measured through the emulated RAPL/PAPI
// stack, and reduced to the energy-performance quantities of Section
// III. The result feeds internal/report's tables and figures and the
// repository's benchmark harness.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"capscale/internal/blas"
	"capscale/internal/caps"
	"capscale/internal/cluster"
	"capscale/internal/energy"
	"capscale/internal/faults"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/model"
	"capscale/internal/monitor"
	"capscale/internal/obs"
	"capscale/internal/rapl"
	"capscale/internal/sim"
	"capscale/internal/store"
	"capscale/internal/strassen"
	"capscale/internal/task"
	"capscale/internal/trace"
)

// DefaultPollInterval is the monitor's sampling period when the
// configuration leaves PollInterval unset: 10 ms (100 Hz), a typical
// rate for a PAPI-based RAPL poller, and far inside the counter wrap
// period at any power the machine zoo can draw.
const DefaultPollInterval = 0.01

// DefaultCellRetries is how many times a failed (aborted or panicked)
// cell is re-attempted under an armed fault schedule before the sweep
// records it as failed and moves on.
const DefaultCellRetries = 1

// Algorithm identifies one of the multipliers under test.
type Algorithm int

const (
	// AlgOpenBLAS is the blocked, statically partitioned DGEMM.
	AlgOpenBLAS Algorithm = iota
	// AlgStrassen is the task-parallel classic Strassen (BOTS style).
	AlgStrassen
	// AlgCAPS is Communication Avoiding Parallel Strassen.
	AlgCAPS
	// AlgWinograd is the Strassen-Winograd variant (an extension beyond
	// the paper's three test fixtures).
	AlgWinograd

	// The distributed family runs on the cluster axis (Config.Clusters)
	// through the simulated MPI layer instead of the shared-memory
	// simulator — the paper's Section VIII scaling-out direction.

	// AlgSUMMA is the classic 2-D SUMMA baseline on a √P×√P grid.
	AlgSUMMA
	// Alg25D is Solomonik–Demmel 2.5D multiplication; the replication
	// factor is fitted to the cluster's per-node memory.
	Alg25D
	// AlgDStrassen is distributed classic (depth-first) Strassen, the
	// non-communication-avoiding baseline.
	AlgDStrassen
	// AlgDistCAPS is distributed CAPS on 7^k ranks (Ballard et al.'s
	// BFS recursion), the Eq. 8 communication-optimal fixture.
	AlgDistCAPS

	// The sparse family runs on the node axis like the dense
	// algorithms, over the canonical banded SPD system (sparse.go) —
	// nnz-driven work with a bandwidth-bound memory term.

	// AlgSpMV is repeated sparse matrix-vector multiplication in CSR.
	AlgSpMV
	// AlgCG is the conjugate-gradient iteration loop (SpMV plus
	// level-1 vector work) on the same system.
	AlgCG
)

var algNames = [...]string{"OpenBLAS", "Strassen", "CAPS", "Winograd",
	"SUMMA", "2.5D", "DStrassen", "dCAPS", "SpMV", "CG"}

func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algNames) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algNames[a]
}

// Distributed reports whether the algorithm runs on the cluster axis.
func (a Algorithm) Distributed() bool { return a >= AlgSUMMA && a <= AlgDistCAPS }

// Sparse reports whether the algorithm is a sparse workload (banded
// SPD system instead of dense n×n operands).
func (a Algorithm) Sparse() bool { return a == AlgSpMV || a == AlgCG }

// AlgorithmNames lists every algorithm's canonical name in enum order —
// the single registry the CLIs validate -alg/-algs flags against.
func AlgorithmNames() []string {
	return append([]string(nil), algNames[:]...)
}

// ParseAlgorithm resolves a (case-insensitive) algorithm name. The
// error lists the valid names, so every CLI using it reports the same
// actionable message.
func ParseAlgorithm(name string) (Algorithm, error) {
	for i, n := range algNames {
		if strings.EqualFold(n, name) {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (valid: %s)", name, strings.Join(algNames[:], ", "))
}

// PaperAlgorithms returns the paper's three test fixtures in its order.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{AlgOpenBLAS, AlgStrassen, AlgCAPS}
}

// DistributedAlgorithms returns the cluster-axis family: the classic
// baselines and the communication-avoiding fixtures.
func DistributedAlgorithms() []Algorithm {
	return []Algorithm{AlgSUMMA, Alg25D, AlgDStrassen, AlgDistCAPS}
}

// Config describes an experiment matrix.
type Config struct {
	Machine    *hw.Machine
	Algorithms []Algorithm
	Sizes      []int
	Threads    []int
	// Clusters is the distributed axis: every spec (nodes × fabric ×
	// memory per node) is crossed with Sizes for each distributed
	// algorithm in Algorithms. Each distributed cell runs on the
	// largest rank count the algorithm's structure admits on the spec
	// (one rank per node, all cores), through the simulated MPI layer
	// and the same monitored measurement path as the single-node cells
	// — with the NIC and switch power planes sampled alongside the node
	// planes. Single-node algorithms ignore this axis. Required
	// (Validate) whenever Algorithms contains a distributed algorithm.
	Clusters []cluster.Spec
	// QuiesceSeconds is the idle gap inserted between runs in the
	// concatenated power trace (the paper used 60 s).
	QuiesceSeconds float64
	// RecordTraces keeps each run's resampled power trace in the Run.
	RecordTraces bool
	// RecordSchedule keeps each run's per-leaf placement (worker,
	// interval, kind) in the Run — the worker tracks of an exported
	// Chrome/Perfetto trace. Opt-in: large trees produce large
	// schedules.
	RecordSchedule bool
	// TraceSampleInterval is the poller period for recorded traces.
	TraceSampleInterval float64
	// PollInterval is the measurement monitor's sampling period in
	// seconds of device time; non-positive selects
	// DefaultPollInterval. Every run's joule figures are what the
	// polled RAPL/PAPI stack measured at this rate, reconciled against
	// the device's exact totals (internal/monitor).
	PollInterval float64
	// DisableAffinity / DisableContention forward the simulator's
	// ablation switches.
	DisableAffinity   bool
	DisableContention bool
	// Parallelism bounds how many matrix cells execute concurrently.
	// Cells are independent simulations, so the driver fans them across
	// a worker pool; results land in the paper's nesting order and are
	// bit-identical to a sequential sweep. Zero selects GOMAXPROCS;
	// negative is rejected by Validate.
	Parallelism int
	// NoCache bypasses the run memoization cache: every cell is
	// re-simulated even when Cache holds it. Benchmarks and determinism
	// tests use it.
	NoCache bool
	// Cache is the run memoization cache this sweep loads from and
	// stores into; nil means no memoization. The embedder owns it — its
	// cap, its lifetime and which sweeps share it (the sweep server
	// gives all of its sweeps one). The cache also single-flights
	// concurrent computes of one cell across every sweep sharing it.
	Cache *RunCache
	// OnRun, when non-nil, is invoked once per cell as it resolves —
	// executed, restored from a checkpoint, or emitted as a model
	// prediction — with the cell's stable key and its final Run. It is
	// called concurrently from the driver's workers, in completion
	// order (not the matrix nesting order); the callback must be safe
	// for concurrent use and must not retain r past the call. With a
	// checkpoint journal a cell is announced only after the fsync that
	// covers its record has returned. The sweep server streams partial
	// results through this hook.
	OnRun func(key string, r *Run)

	// Faults, when non-nil, arms the deterministic fault schedule: each
	// cell the schedule selects executes under an injector that perturbs
	// its measurement stack, the driver contains per-cell failures
	// (recovering panics and retrying up to MaxRetries), and the
	// memoization cache is bypassed entirely — faulted results must
	// never be memoized as clean ones. Unarmed cells still run the
	// bit-identical clean path.
	Faults *faults.Schedule
	// MaxRetries bounds re-attempts of a failed cell under an armed
	// fault schedule. Zero selects DefaultCellRetries; negative disables
	// retrying (one attempt only).
	MaxRetries int
	// CheckpointPath, when non-empty, journals every completed cell to
	// a JSONL file as the sweep progresses, and on the next Execute
	// with the same configuration restores those cells instead of
	// re-simulating them — a killed or crashed sweep resumes where it
	// stopped. Failed cells are not journaled and re-run on resume. The
	// journal is invalidated (and the sweep starts fresh) when the
	// configuration fingerprint changes.
	CheckpointPath string
	// FS, when non-nil, routes all checkpoint-journal and lease I/O
	// through an injectable filesystem — the crash/fault tests inject
	// faults.FaultFS here. Nil selects the real OS filesystem with zero
	// added overhead, matching the fault injector's contract.
	FS store.FS
	// Lease, when non-nil, is a pre-acquired claim on the checkpoint
	// journal: Execute fences every journal append with it and renews
	// it while the sweep runs, but does not release it — the caller
	// owns its lifecycle (the sweep server acquires leases before
	// launching sweeps). Nil with CheckpointPath set means Execute
	// acquires and releases its own lease, owned by "pid-<pid>" with
	// the default TTL.
	Lease *store.Lease
	// Request is the raw JSON request a served sweep answers. It rides
	// in the checkpoint journal's header (store.Header.Request), so a
	// replica recovering the store can rebuild and resume the sweep
	// from the journal alone. It is not part of the fingerprint. Nil
	// keeps the request an existing journal's header carries, or
	// writes the header the CLIs always have.
	Request []byte
	// Stop, when non-nil, is polled before each cell starts. Once it
	// returns true the remaining cells resolve as interrupted
	// (Run.Interrupted) instead of executing, and the sweep returns
	// with whatever completed — the journal then resumes it later. The
	// sweep server's bounded drain and lease-loss paths use this; cells
	// already executing always run to completion.
	Stop func() bool

	// Plan selects the sweep strategy: PlanExhaustive measures every
	// cell; PlanGuided measures a stratified seed, fits the
	// energy-complexity model (internal/model) and measures only cells
	// whose prediction is too uncertain or that straddle an algorithm
	// crossover, emitting model predictions (Run.Predicted) for the
	// rest. See plan.go.
	Plan PlanMode
	// SeedFraction is the guided plan's target fraction of each
	// algorithm's cells to measure up front (the per-algorithm grid
	// corners are always included). Zero selects DefaultSeedFraction.
	SeedFraction float64
	// Confidence is the guided plan's acceptance threshold on a
	// prediction's ±2σ relative confidence interval: cells above it are
	// measured instead of predicted. Zero selects DefaultConfidence.
	Confidence float64
}

// PaperConfig returns the paper's full 48-run matrix on its platform.
func PaperConfig() Config {
	return Config{
		Machine:        hw.HaswellE31225(),
		Algorithms:     PaperAlgorithms(),
		Sizes:          []int{512, 1024, 2048, 4096},
		Threads:        []int{1, 2, 3, 4},
		QuiesceSeconds: 60,
	}
}

// SmokeConfig returns a small, fast matrix with the same structure,
// for tests.
func SmokeConfig() Config {
	return Config{
		Machine:        hw.HaswellE31225(),
		Algorithms:     PaperAlgorithms(),
		Sizes:          []int{128, 256},
		Threads:        []int{1, 2},
		QuiesceSeconds: 1,
	}
}

// PlatformConfig returns the cross-platform sweep's matrix for one
// machine: the paper's algorithms at size n, on all of its cores. One
// Execute per hw.Zoo machine is the platforms study, and
// report.PlatformTable renders the matrices with each machine's Eq. 9
// crossover.
func PlatformConfig(m *hw.Machine, n int) Config {
	return Config{
		Machine:    m,
		Algorithms: PaperAlgorithms(),
		Sizes:      []int{n},
		Threads:    []int{m.Cores},
	}
}

// Validate reports a descriptive error for unusable configurations.
func (cfg *Config) Validate() error {
	if cfg.Machine == nil {
		return fmt.Errorf("workload: nil machine")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return err
	}
	if len(cfg.Algorithms) == 0 || len(cfg.Sizes) == 0 || len(cfg.Threads) == 0 {
		return fmt.Errorf("workload: empty algorithms/sizes/threads")
	}
	distributed := false
	for _, a := range cfg.Algorithms {
		if a.Distributed() {
			distributed = true
		}
	}
	if distributed && len(cfg.Clusters) == 0 {
		return fmt.Errorf("workload: distributed algorithms need at least one cluster spec")
	}
	for _, spec := range cfg.Clusters {
		if spec.Nodes <= 0 {
			return fmt.Errorf("workload: cluster spec %q: non-positive node count", spec)
		}
		if !(spec.MemPerNode > 0) || math.IsInf(spec.MemPerNode, 1) {
			return fmt.Errorf("workload: cluster spec %q: non-positive or non-finite memory", spec)
		}
		if err := spec.Comms.Validate(); err != nil {
			return err
		}
	}
	for _, n := range cfg.Sizes {
		if n <= 0 {
			return fmt.Errorf("workload: non-positive size %d", n)
		}
	}
	for _, p := range cfg.Threads {
		if p <= 0 || p > cfg.Machine.Cores {
			return fmt.Errorf("workload: thread count %d outside [1,%d]", p, cfg.Machine.Cores)
		}
	}
	// Cells are keyed by their coordinates, so a value repeated on an
	// axis would name one cell twice: the sweep would count it twice
	// and journal it once. The axes can come from outside the program,
	// long, so the check is a set, not a scan.
	if err := distinct("algorithm", cfg.Algorithms, Algorithm.String); err != nil {
		return err
	}
	if err := distinct("size", cfg.Sizes, strconv.Itoa); err != nil {
		return err
	}
	if err := distinct("thread count", cfg.Threads, strconv.Itoa); err != nil {
		return err
	}
	if err := distinct("cluster spec", cfg.Clusters, cluster.Spec.String); err != nil {
		return err
	}
	if len(cfg.Request) > 0 && !json.Valid(cfg.Request) {
		return fmt.Errorf("workload: request is not valid JSON")
	}
	if cfg.QuiesceSeconds < 0 {
		return fmt.Errorf("workload: negative quiesce %v", cfg.QuiesceSeconds)
	}
	if cfg.PollInterval < 0 {
		return fmt.Errorf("workload: negative poll interval %v", cfg.PollInterval)
	}
	if cfg.Parallelism < 0 {
		return fmt.Errorf("workload: negative parallelism %d", cfg.Parallelism)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	if cfg.Plan != PlanExhaustive && cfg.Plan != PlanGuided {
		return fmt.Errorf("workload: unknown plan mode %d", int(cfg.Plan))
	}
	if cfg.SeedFraction < 0 || cfg.SeedFraction > 1 {
		return fmt.Errorf("workload: seed fraction %g outside [0,1]", cfg.SeedFraction)
	}
	if cfg.Confidence < 0 {
		return fmt.Errorf("workload: negative confidence threshold %g", cfg.Confidence)
	}
	if cfg.Plan == PlanGuided {
		// Predicted cells have no power trace, no schedule and no
		// measurement stack to perturb — these features need every cell
		// actually executed.
		switch {
		case cfg.RecordTraces:
			return fmt.Errorf("workload: guided plan cannot record traces (predicted cells have none)")
		case cfg.RecordSchedule:
			return fmt.Errorf("workload: guided plan cannot record schedules (predicted cells have none)")
		case cfg.Faults != nil:
			return fmt.Errorf("workload: guided plan cannot run under fault injection")
		}
	}
	return nil
}

// distinct rejects an axis that repeats a value, comparing values by
// the key cells are named with.
func distinct[T any](axis string, values []T, key func(T) string) error {
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		k := key(v)
		if seen[k] {
			return fmt.Errorf("workload: %s %s repeated (each axis value must be distinct)", axis, k)
		}
		seen[k] = true
	}
	return nil
}

// Run is one cell of the experiment matrix. It is also the cell's
// record: its JSON form is the "run" object of a checkpoint journal
// line (MarshalRunRecord), the line the sweep service streams and
// replays, and an element of a saved matrix's runs (SaveJSON). The
// field order is the record's key order, so moving a field moves
// bytes.
type Run struct {
	Alg     Algorithm `json:"alg"`
	N       int       `json:"n"`
	Threads int       `json:"threads"`

	// Seconds is the virtual runtime; the joule figures are what the
	// polling monitor measured through the emulated RAPL/PAPI stack —
	// the same wrap-corrected counter deltas a live driver gets. All
	// EP and scaling figures derive from these measured values.
	Seconds    float64 `json:"seconds"`
	PKGJoules  float64 `json:"pkg_j"`
	PP0Joules  float64 `json:"pp0_j"`
	DRAMJoules float64 `json:"dram_j"`

	// Distributed coordinates: Cluster is the spec string ("16x1GbE",
	// "" for single-node cells), Ranks the communicator size actually
	// fitted to it, Replication the 2.5D c factor (1 otherwise). The
	// distributed fields are absent from single-node records.
	Cluster     string `json:"cluster,omitempty"`
	Ranks       int    `json:"ranks,omitempty"`
	Replication int    `json:"replication,omitempty"`

	// Measured communication record (distributed cells only): bytes
	// offered to the wire, message count, and the critical rank's
	// exposed α·log P terms and total communication seconds — the
	// quantities report.CommTable gates against the Eq. 8 /
	// Ballard–Demmel lower bounds.
	WireBytes       float64 `json:"wire_bytes,omitempty"`
	Messages        int     `json:"messages,omitempty"`
	CritAlphaTerms  int     `json:"crit_alpha_terms,omitempty"`
	CritCommSeconds float64 `json:"crit_comm_seconds,omitempty"`

	// NIC and switch plane joules (distributed cells): measured through
	// the monitor like the node planes, with the device truth alongside.
	NICJoules         float64 `json:"nic_j,omitempty"`
	SwitchJoules      float64 `json:"switch_j,omitempty"`
	TruthNICJoules    float64 `json:"truth_nic_j,omitempty"`
	TruthSwitchJoules float64 `json:"truth_switch_j,omitempty"`

	// TruthPKGJoules, TruthPP0Joules and TruthDRAMJoules are the RAPL
	// device's exact integrated energy — the oracle kept as a
	// cross-check on the measurement path, never fed into the model.
	// They and the sample count are absent from records saved before
	// the measurement loop was closed (MeasurementErr treats zero truth
	// as "no oracle recorded").
	TruthPKGJoules  float64 `json:"truth_pkg_j,omitempty"`
	TruthPP0Joules  float64 `json:"truth_pp0_j,omitempty"`
	TruthDRAMJoules float64 `json:"truth_dram_j,omitempty"`
	// MeasSamples counts the monitor's counter samples over the run.
	MeasSamples int `json:"meas_samples,omitempty"`

	// Scheduling facts from the simulator.
	Leaves         int     `json:"leaves"`
	RemoteBytes    float64 `json:"remote_bytes"`
	StolenLeaves   int     `json:"stolen_leaves"`
	AllocHighWater float64 `json:"alloc_high_water"`
	Utilization    float64 `json:"utilization"`
	// BusyByKind decomposes busy seconds by kernel class (keyed by the
	// task.Kind name for serializability).
	BusyByKind map[string]float64 `json:"busy_by_kind,omitempty"`

	// Trace is the resampled power series (nil unless recorded). It is
	// not part of the run object: a traced journal carries it beside
	// the run, and saved matrices drop it.
	Trace *trace.Trace `json:"-"`

	// Schedule is the per-leaf placement record (nil unless
	// Config.RecordSchedule); it feeds the exported trace's per-worker
	// tracks and is never serialized to JSON.
	Schedule []sim.LeafSpan `json:"-"`

	// Degradation record, absent on clean runs. A Run with Err == ""
	// completed (possibly degraded); a Run with Err != "" failed every
	// contained attempt and carries only its coordinates and the error.

	// Degraded reports that the joule figures are not all clean
	// measurements: a plane was quarantined (and substituted from the
	// simulator's ground truth), a counter wrap was lost or spuriously
	// gained, or measured-vs-truth disagreed beyond
	// monitor.DegradedAbsErrJ. Every consumer rendering this run's
	// numbers must surface the flag.
	Degraded bool `json:"degraded,omitempty"`
	// QuarantinedPlanes names the planes whose figures fell back to
	// ground truth after repeated read failures.
	QuarantinedPlanes []string `json:"quarantined_planes,omitempty"`
	// MeasRetries / MeasReadErrors / MeasDrops count the monitor's
	// transient-failure handling over the run.
	MeasRetries    int `json:"meas_retries,omitempty"`
	MeasReadErrors int `json:"meas_read_errors,omitempty"`
	MeasDrops      int `json:"meas_drops,omitempty"`
	// Attempts counts contained execution attempts (0 on the clean
	// path, which makes exactly one uncontained attempt).
	Attempts int `json:"attempts,omitempty"`
	// Err is the final attempt's failure, or "" for a completed run.
	Err string `json:"error,omitempty"`
	// Restored marks a run loaded from a sweep checkpoint rather than
	// executed in this process. Session-local; never serialized.
	Restored bool `json:"-"`

	// Predicted marks a cell whose figures come from the fitted
	// energy-complexity model (guided sweeps) instead of a simulation.
	// Predicted runs carry no traces, no truth planes and no
	// measurement record; every consumer rendering their numbers must
	// surface the flag. The flag and its provenance survive the round
	// trip, so loaded matrices keep predictions distinguishable.
	Predicted bool `json:"predicted,omitempty"`
	// PredRelCI is the model's ±2σ relative confidence interval on the
	// predicted total energy (Predicted cells only).
	PredRelCI float64 `json:"pred_rel_ci,omitempty"`
	// ModelTag identifies the fitted model instance (version +
	// training-set hash) that produced a predicted run. A checkpointed
	// prediction is only restored when a refit reproduces its tag.
	ModelTag string `json:"model_tag,omitempty"`
}

// Failed reports whether the cell exhausted its contained attempts
// without completing.
func (r *Run) Failed() bool { return r.Err != "" }

// ErrInterrupted is the Err value of a cell the sweep never started:
// the driver was stopped (Config.Stop — a bounded drain) or the
// journal lease was lost to another replica. Interrupted cells are not
// journaled and not streamed through OnRun; resuming the same
// configuration executes them.
const ErrInterrupted = "sweep interrupted before this cell started"

// Interrupted reports whether this cell was skipped by a stopped
// sweep rather than executed.
func (r *Run) Interrupted() bool { return r.Err == ErrInterrupted }

// MeasurementErr returns the largest per-plane relative error between
// the monitor's measurement and the oracle energy — 0 for a perfectly
// reconciled run, and 0 for legacy runs with no recorded truth. Note
// the floor on relative error is counter quantization (~15 µJ at the
// default ESU), so very short runs show percent-level values without
// anything being wrong; use MeasurementAbsErr to check reconciliation
// independent of run length.
func (r *Run) MeasurementErr() float64 {
	worst := 0.0
	for _, pair := range [][2]float64{
		{r.PKGJoules, r.TruthPKGJoules},
		{r.PP0Joules, r.TruthPP0Joules},
		{r.DRAMJoules, r.TruthDRAMJoules},
	} {
		if pair[1] == 0 {
			continue
		}
		if e := math.Abs(pair[0]-pair[1]) / pair[1]; e > worst {
			worst = e
		}
	}
	return worst
}

// MeasurementAbsErr returns the largest per-plane absolute error in
// joules between the monitor's measurement and the oracle energy. A
// correctly sampled run is within a few counter quanta; a missed
// 32-bit wrap shows up as ~65 kJ, so the two are unambiguous at any
// run length.
func (r *Run) MeasurementAbsErr() float64 {
	worst := 0.0
	for _, pair := range [][2]float64{
		{r.PKGJoules, r.TruthPKGJoules},
		{r.PP0Joules, r.TruthPP0Joules},
		{r.DRAMJoules, r.TruthDRAMJoules},
	} {
		if e := math.Abs(pair[0] - pair[1]); e > worst {
			worst = e
		}
	}
	return worst
}

// safeDiv returns a/b, or 0 when b is 0 — zero-duration runs report
// zero watts rather than NaN/Inf, matching sim.Result's convention.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// WattsPKG returns average package watts over the run.
func (r *Run) WattsPKG() float64 { return safeDiv(r.PKGJoules, r.Seconds) }

// WattsPP0 returns average core-plane watts over the run.
func (r *Run) WattsPP0() float64 { return safeDiv(r.PP0Joules, r.Seconds) }

// WattsDRAM returns average DRAM watts over the run.
func (r *Run) WattsDRAM() float64 { return safeDiv(r.DRAMJoules, r.Seconds) }

// WattsTotal returns average full-system watts (package + DRAM), the
// EAvg figure the tables use.
func (r *Run) WattsTotal() float64 { return safeDiv(r.PKGJoules+r.DRAMJoules, r.Seconds) }

// EP returns the run's Eq. 1 energy-performance ratio, with EAvg
// encapsulating the PKG and DRAM planes per Eq. 3.
func (r *Run) EP() float64 {
	return energy.EP(energy.EAvg(r.Planes()), r.Seconds)
}

// Planes returns the run's power-plane readings (Eq. 3 inputs). PP0 is
// not listed separately because PKG already contains it, as on real
// RAPL — summing all three would double-count the cores.
func (r *Run) Planes() []energy.PlaneReading {
	return []energy.PlaneReading{
		{Name: "PKG", Watts: r.WattsPKG()},
		{Name: "DRAM", Watts: r.WattsDRAM()},
	}
}

// Matrix is a completed experiment matrix. A Matrix is used through a
// pointer (the lazy Get index embeds a sync.Once); Runs holds the
// cells in the paper's nesting order.
type Matrix struct {
	Cfg  Config
	Runs []Run

	// Model is the fitted energy-complexity model when the sweep ran
	// under PlanGuided (nil otherwise; FitModel fits on demand).
	Model *model.Model
	// Planner records what the guided planner measured vs predicted
	// (zero value for exhaustive sweeps).
	Planner PlannerStats

	// restored counts cells served from the sweep checkpoint (atomic:
	// driver workers record restores concurrently).
	restored int64

	indexOnce sync.Once
	index     map[getKey]int
}

// getKey indexes Runs for Get/GetCluster: single-node cells by
// (alg, n, threads), distributed cells by (alg, n, cluster spec).
type getKey struct {
	alg     Algorithm
	n       int
	threads int
	cluster string
}

// addRestored counts one checkpoint-restored cell.
func (mx *Matrix) addRestored() { atomic.AddInt64(&mx.restored, 1) }

// RestoredCells reports how many cells were restored from the sweep
// checkpoint instead of executed.
func (mx *Matrix) RestoredCells() int { return int(atomic.LoadInt64(&mx.restored)) }

// FailedRuns returns the cells that exhausted their contained attempts
// without completing. Empty on any sweep without an armed fault
// schedule.
func (mx *Matrix) FailedRuns() []*Run {
	var out []*Run
	for i := range mx.Runs {
		if mx.Runs[i].Failed() {
			out = append(out, &mx.Runs[i])
		}
	}
	return out
}

// InterruptedRuns returns the cells a stopped sweep never started —
// non-empty only when Config.Stop fired or the journal lease was lost
// mid-sweep. They are resumable: re-executing the same configuration
// restores the completed cells and runs exactly these.
func (mx *Matrix) InterruptedRuns() []*Run {
	var out []*Run
	for i := range mx.Runs {
		if mx.Runs[i].Interrupted() {
			out = append(out, &mx.Runs[i])
		}
	}
	return out
}

// DegradedRuns returns the completed cells whose figures are flagged
// degraded (quarantined planes, wrap anomalies, or reconciliation
// beyond tolerance).
func (mx *Matrix) DegradedRuns() []*Run {
	var out []*Run
	for i := range mx.Runs {
		if r := &mx.Runs[i]; !r.Failed() && r.Degraded {
			out = append(out, r)
		}
	}
	return out
}

// DegradationSummary renders the sweep's degradation report for CLI
// stderr: one line per failed cell, one per degraded cell, and a
// closing tally. It returns "" for a fully clean matrix, so callers
// can print it unconditionally.
func (mx *Matrix) DegradationSummary() string {
	failed, degraded := mx.FailedRuns(), mx.DegradedRuns()
	if len(failed) == 0 && len(degraded) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, r := range failed {
		fmt.Fprintf(&sb, "warning: cell %s/%d/%d FAILED after %d attempt(s): %s\n",
			r.Alg, r.N, r.Threads, r.Attempts, r.Err)
	}
	for _, r := range degraded {
		fmt.Fprintf(&sb, "warning: cell %s/%d/%d degraded", r.Alg, r.N, r.Threads)
		if len(r.QuarantinedPlanes) > 0 {
			fmt.Fprintf(&sb, " (quarantined %s: measured joules substituted from simulator ground truth)",
				strings.Join(r.QuarantinedPlanes, "+"))
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "warning: %d/%d cells degraded, %d failed — flagged figures are not clean measurements\n",
		len(degraded), len(mx.Runs), len(failed))
	return sb.String()
}

// BuildTree constructs the task tree for one configuration. Exposed so
// benchmarks and ablations can drive the simulator directly.
//
// The operands are shape-only matrices (matrix.Shape): the builders
// read dimensions and region identity but never elements when real
// math is off, so describing an n×n multiply costs KB of tree nodes
// instead of three n×n backing arrays of zeros — hundreds of MB at
// n=4096, which is what made large sweeps memory-bound.
func BuildTree(m *hw.Machine, alg Algorithm, n, threads int) *task.Node {
	a, b, c := matrix.Shape(n, n), matrix.Shape(n, n), matrix.Shape(n, n)
	switch alg {
	case AlgOpenBLAS:
		return blas.Build(m, c, a, b, blas.Options{Workers: threads})
	case AlgStrassen:
		return strassen.Build(m, c, a, b, threads, strassen.Options{})
	case AlgWinograd:
		return strassen.Build(m, c, a, b, threads, strassen.Options{Winograd: true})
	case AlgCAPS:
		return caps.Build(m, c, a, b, threads, caps.Options{})
	case AlgSpMV, AlgCG:
		return buildSparseTree(m, alg, n, threads)
	default:
		panic(fmt.Sprintf("workload: unknown algorithm %v", alg))
	}
}

// Driver metrics: cell throughput and worker occupancy, visible in
// expvar and report.MetricsTable.
var (
	cellsExecuted  = obs.GetCounter("workload.cells.executed")
	cellSeconds    = obs.GetHistogramUnit("workload.cell.seconds", "s")
	driverBusy     = obs.GetGauge("workload.workers.busy")
	sweepsExecuted = obs.GetCounter("workload.sweeps.executed")
	cellsRetried   = obs.GetCounter("workload.cells.retried")
	cellsFailed    = obs.GetCounter("workload.cells.failed")
	cellsRestored  = obs.GetCounter("workload.checkpoint.restored")
	cellsSkipped   = obs.GetCounter("workload.cells.interrupted")
)

// ExecuteOne runs a single configuration through the simulator and the
// RAPL/PAPI measurement stack. With Config.Cache set, results are
// memoized there keyed by machine fingerprint × algorithm × size ×
// threads × ablations × poll interval (see cache.go); cached calls
// return an independent deep copy.
func ExecuteOne(cfg Config, alg Algorithm, n, threads int) Run {
	return executeOne(cfg, cell{alg: alg, n: n, threads: threads, spec: -1}, cfg.sweepCache(), obs.Track{})
}

// ExecuteOneCluster runs a single distributed configuration on one
// cluster spec through the MPI layer and the cluster-plane measurement
// stack. It panics (like ExecuteOne) on non-distributed algorithms.
func ExecuteOneCluster(cfg Config, alg Algorithm, n int, spec cluster.Spec) Run {
	if !alg.Distributed() {
		panic(fmt.Sprintf("workload: %v is not a distributed algorithm", alg))
	}
	cfg.Clusters = []cluster.Spec{spec}
	return executeOne(cfg, cell{alg: alg, n: n, spec: 0}, cfg.sweepCache(), obs.Track{})
}

// executeOne is the cell dispatcher on an explicit span track (the
// driver pool gives each of its workers one). cache is the sweep's
// view of its run cache (Config.sweepCache), nil when the sweep does
// not memoize.
func executeOne(cfg Config, c cell, cache *sweepCache, tr obs.Track) Run {
	var sp obs.Span
	if obs.Enabled() {
		sp = obs.StartOn(tr, "cell")
		sp.Arg("alg", c.alg.String())
		sp.ArgInt("n", c.n)
		sp.ArgInt("threads", c.threads)
		if cs := cfg.clusterOf(c); cs != nil {
			sp.Arg("cluster", cs.String())
		}
		defer sp.End()
	}
	if cfg.Faults != nil {
		// An armed fault schedule bypasses the memoization cache in both
		// directions: a faulted (or merely fault-eligible) result must
		// never be served as — or stored alongside — a clean one.
		sp.Arg("faults", "armed")
		return executeContained(cfg, c, tr)
	}
	if cache == nil {
		return executeCell(cfg, c, nil, tr)
	}
	// Do memoizes and single-flights: when a concurrent sweep sharing
	// this cache is already simulating the same cell, this call waits
	// for that result instead of duplicating the work.
	computed := false
	run := cache.rc.Do(cache.key(&cfg, c), func() Run {
		computed = true
		return executeCell(cfg, c, nil, tr)
	})
	if computed {
		sp.Arg("cache", "miss")
	} else {
		sp.Arg("cache", "hit")
	}
	return run
}

// cellKey is the stable cell identifier fault schedules and sweep
// checkpoints key on. Distributed cells append their cluster spec.
func (cfg *Config) cellKey(c cell) string {
	key := fmt.Sprintf("%s/%d/%d", c.alg, c.n, c.threads)
	if cs := cfg.clusterOf(c); cs != nil {
		key += "@" + cs.String()
	}
	return key
}

// unfinishedRun builds the Run of a cell that has no figures: its
// coordinates and err, nothing else — a cell a stopped sweep never
// started (ErrInterrupted), or one that failed every attempt.
func unfinishedRun(cfg *Config, c cell, err string) Run {
	r := Run{Alg: c.alg, N: c.n, Threads: c.threads, Err: err}
	if cs := cfg.clusterOf(c); cs != nil {
		r.Cluster = cs.String()
	}
	return r
}

// executeContained runs one cell under the fault schedule with
// per-cell containment: an injected abort (or any other panic escaping
// the cell) is recovered and the cell retried — with a re-rolled
// injector — up to the configured attempt budget. A cell that fails
// every attempt yields a Run carrying its coordinates and error, so
// the sweep always completes.
func executeContained(cfg Config, c cell, tr obs.Track) Run {
	key := cfg.cellKey(c)
	retries := cfg.MaxRetries
	switch {
	case retries == 0:
		retries = DefaultCellRetries
	case retries < 0:
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			cellsRetried.Inc()
		}
		inj := cfg.Faults.ForCell(key, attempt)
		run, err := tryCell(cfg, c, inj, tr)
		if err == nil {
			run.Attempts = attempt + 1
			return run
		}
		lastErr = err
	}
	cellsFailed.Inc()
	fail := unfinishedRun(&cfg, c, lastErr.Error())
	fail.Attempts = retries + 1
	return fail
}

// tryCell is one contained attempt: executeCell with panics converted
// to errors. Injected aborts surface as their faults.CellAbort value;
// anything else is wrapped with the cell coordinates.
func tryCell(cfg Config, c cell, inj *faults.Injector, tr obs.Track) (run Run, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("workload: cell %s panicked: %v", cfg.cellKey(c), p)
		}
	}()
	return executeCell(cfg, c, inj, tr), nil
}

// executeCell simulates and measures one matrix cell, bypassing the
// memoization cache. A non-nil inj arms the fault injector on the
// cell's measurement stack; the nil path is bit-identical to the
// pre-fault-layer driver. Distributed cells route through the MPI
// layer (executeDistributedCell); both paths share the monitored
// measurement step (meter, measured).
func executeCell(cfg Config, c cell, inj *faults.Injector, tr obs.Track) Run {
	if c.spec >= 0 {
		return executeDistributedCell(cfg, c, inj, tr)
	}
	t0 := time.Now()

	var buildSp obs.Span
	if obs.Enabled() {
		buildSp = obs.StartOn(tr, "build-tree")
	}
	root := BuildTree(cfg.Machine, c.alg, c.n, c.threads)
	buildSp.End()

	// The monitor samples the segments as the simulator produces them:
	// fusing it into the simulator's advance loop (sim.Config.OnSegment)
	// avoids materializing the timeline and replaying it in a second
	// pass.
	stream := cfg.meter(nil, inj, tr)
	res := sim.Run(cfg.Machine, root, sim.Config{
		Workers:           c.threads,
		RecordTimeline:    cfg.RecordTraces, // traces still need the materialized timeline
		RecordSchedule:    cfg.RecordSchedule,
		OnSegment:         stream.OnSegment,
		DisableAffinity:   cfg.DisableAffinity,
		DisableContention: cfg.DisableContention,
		ObsTrack:          tr,
	})
	// Nothing reads the tree after the simulation: its storage goes to
	// the next cell's build.
	root.Tree().Release()
	byKind := make(map[string]float64, len(res.BusyByKind))
	for k, v := range res.BusyByKind {
		byKind[k.String()] = v
	}
	run := Run{
		Alg: c.alg, N: c.n, Threads: c.threads,
		Leaves:         res.Leaves,
		RemoteBytes:    res.RemoteBytes,
		StolenLeaves:   res.StolenLeaves,
		AllocHighWater: res.AllocHighWater,
		Utilization:    res.Utilization(),
		BusyByKind:     byKind,
	}
	measured(&run, stream)

	// Cross-check the oracle itself: the device's integration of the
	// replayed timeline must agree with the simulator's own energy
	// accounting to float accumulation noise, or the measurement stack
	// replayed a different run than it claims.
	for _, chk := range [][2]float64{
		{run.TruthPKGJoules, res.EnergyPKG}, {run.TruthPP0Joules, res.EnergyPP0}, {run.TruthDRAMJoules, res.EnergyDRAM},
	} {
		if diff := math.Abs(chk[0] - chk[1]); diff > 1e-6*math.Max(1, chk[1]) {
			panic(fmt.Sprintf("workload: replay oracle %v J diverged from simulator %v J", chk[0], chk[1]))
		}
	}
	if cfg.RecordSchedule {
		run.Schedule = res.Schedule
	}
	cfg.finishCell(&run, res.Timeline, t0)
	return run
}

// meter opens a cell's measurement: a polling monitor on planes — nil
// for the node planes, rapl.ClusterPlanes() for a cluster cell — that
// the cell feeds its power segments through Stream.OnSegment, as the
// paper's driver polled RAPL through PAPI: the emulated device
// advances segment by segment while an event set samples it in device
// time. measured closes it.
func (cfg *Config) meter(planes []rapl.Plane, inj *faults.Injector, tr obs.Track) *monitor.Stream {
	stream, err := monitor.NewStream(monitor.Config{PollInterval: cfg.pollInterval(), ObsTrack: tr, Faults: inj, Planes: planes})
	if err != nil {
		panic(fmt.Sprintf("workload: measurement failed: %v", err))
	}
	return stream
}

// measured finishes a cell's measurement and copies its report into r:
// the duration, every plane's measured joules with the device's exact
// totals beside them as the reconciliation oracle, the sample count
// and the degradation record. The model consumes the measured joules.
// A failed measurement panics, like any cell fault.
func measured(r *Run, stream *monitor.Stream) {
	rep, err := stream.Finish()
	if err != nil {
		panic(fmt.Sprintf("workload: measurement failed: %v", err))
	}
	r.Seconds = rep.Duration
	for _, p := range rep.Planes {
		switch p.Plane {
		case rapl.PlanePKG:
			r.PKGJoules, r.TruthPKGJoules = p.MeasuredJ, p.TruthJ
		case rapl.PlanePP0:
			r.PP0Joules, r.TruthPP0Joules = p.MeasuredJ, p.TruthJ
		case rapl.PlaneDRAM:
			r.DRAMJoules, r.TruthDRAMJoules = p.MeasuredJ, p.TruthJ
		case rapl.PlaneNIC:
			r.NICJoules, r.TruthNICJoules = p.MeasuredJ, p.TruthJ
		case rapl.PlaneSwitch:
			r.SwitchJoules, r.TruthSwitchJoules = p.MeasuredJ, p.TruthJ
		}
	}
	r.MeasSamples = rep.Samples
	r.Degraded = rep.Degraded
	r.MeasRetries, r.MeasReadErrors, r.MeasDrops = rep.Retries, rep.ReadErrors, rep.DroppedSamples
	for _, p := range rep.Quarantined {
		r.QuarantinedPlanes = append(r.QuarantinedPlanes, p.String())
	}
}

// finishCell records an executed cell's power trace from its
// segments, when the sweep keeps traces, and the cell metrics.
func (cfg *Config) finishCell(r *Run, segs []sim.Segment, t0 time.Time) {
	if cfg.RecordTraces {
		r.Trace = trace.FromSegments(segs)
		if cfg.TraceSampleInterval > 0 {
			r.Trace = r.Trace.Resample(cfg.TraceSampleInterval)
		}
	}
	cellsExecuted.Inc()
	cellSeconds.Observe(time.Since(t0).Seconds())
}

// pollInterval is the monitor's sampling period: PollInterval, or
// DefaultPollInterval when unset.
func (cfg *Config) pollInterval() float64 {
	if cfg.PollInterval > 0 {
		return cfg.PollInterval
	}
	return DefaultPollInterval
}

// cell is one coordinate of the matrix: (algorithm, size, threads)
// for single-node algorithms, (algorithm, size, cluster spec) for
// distributed ones.
type cell struct {
	alg     Algorithm
	n       int
	threads int
	// spec indexes Config.Clusters for distributed cells; -1 marks a
	// single-node cell.
	spec int
}

// clusterOf returns the cell's cluster spec, or nil for single-node
// cells.
func (cfg *Config) clusterOf(c cell) *cluster.Spec {
	if c.spec < 0 {
		return nil
	}
	return &cfg.Clusters[c.spec]
}

// cells enumerates the matrix coordinates in the paper's nesting order
// (algorithm, then size, then thread count — or cluster spec on the
// distributed axis).
func (cfg *Config) cells() []cell {
	out := make([]cell, 0, cfg.CellCount())
	for _, alg := range cfg.Algorithms {
		for _, n := range cfg.Sizes {
			if alg.Distributed() {
				for s := range cfg.Clusters {
					out = append(out, cell{alg: alg, n: n, spec: s})
				}
				continue
			}
			for _, p := range cfg.Threads {
				out = append(out, cell{alg: alg, n: n, threads: p, spec: -1})
			}
		}
	}
	return out
}

// CellCount returns how many cells the configuration sweeps — the
// single-node algorithm×size×thread cross plus the distributed
// algorithm×size×cluster cross — without building them. CLIs use it
// for their progress line, the sweep server to bound a request.
func (cfg *Config) CellCount() int {
	n := 0
	for _, alg := range cfg.Algorithms {
		if alg.Distributed() {
			n += len(cfg.Sizes) * len(cfg.Clusters)
		} else {
			n += len(cfg.Sizes) * len(cfg.Threads)
		}
	}
	return n
}

// Execute runs the whole matrix, fanning independent cells across a
// bounded worker pool (Config.Parallelism workers; zero selects
// GOMAXPROCS). Every cell is an isolated simulation — its own task
// tree, RAPL device and event set — so the concurrent sweep is
// bit-identical to the sequential one, with Matrix.Runs in the paper's
// nesting order (algorithm, then size, then thread count) either way.
// Both plans resolve their cells through one sweep (sweep.resolve);
// the guided plan chooses which cells to measure and predicts the
// rest (plan.go). It panics on invalid configurations (Validate
// reports the reason).
func Execute(cfg Config) *Matrix {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	s := openSweep(cfg)
	defer s.ck.close()
	sweepsExecuted.Inc()
	if cfg.Plan == PlanGuided {
		s.executeGuided()
		return s.mx
	}
	if obs.Enabled() {
		sp := obs.StartOn(obs.Track{}, "workload.sweep")
		sp.ArgInt("cells", len(s.cells))
		sp.ArgInt("workers", cfg.poolWorkers(len(s.cells)))
		defer sp.End()
	}
	s.resolve(indices(len(s.cells)))
	return s.mx
}

// sweep is one Execute's working state, whichever the plan: the matrix
// being filled, the checkpoint journal and the cells restored from it,
// and the run cache.
type sweep struct {
	cfg      Config
	cells    []cell
	mx       *Matrix
	ck       *checkpoint    // nil unless journaled (CheckpointPath)
	restored map[string]Run // journaled cells by key
	cache    *sweepCache    // nil unless memoized
}

// openSweep prepares cfg's sweep, opening (and compacting) its
// checkpoint journal when it has one.
func openSweep(cfg Config) *sweep {
	cells := cfg.cells()
	s := &sweep{
		cfg:   cfg,
		cells: cells,
		mx:    &Matrix{Cfg: cfg, Runs: make([]Run, len(cells))},
		cache: cfg.sweepCache(),
	}
	if cfg.CheckpointPath != "" {
		var err error
		if s.ck, s.restored, err = openCheckpoint(cfg); err != nil {
			panic(err.Error())
		}
	}
	return s
}

// stopped reports whether the sweep must start no more cells: a
// bounded drain (Config.Stop), or the journal lease lost to another
// replica.
func (s *sweep) stopped() bool {
	return (s.cfg.Stop != nil && s.cfg.Stop()) || s.ck.interrupted()
}

// indices returns 0..n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// resolve resolves the cells at idx. A journaled sweep first resolves,
// in idx order and before its pool starts, the cells that need no
// simulation (resolveKnown). The pool simulates the rest, committing
// each as it completes. Once the sweep is stopped, the cells it has
// not started resolve as interrupted: neither journaled nor announced,
// so a resume runs exactly those.
func (s *sweep) resolve(idx []int) {
	if s.ck != nil {
		idx = s.resolveKnown(idx)
	}
	runPool(s.cfg.poolWorkers(len(idx)), len(idx), func(j int, tr obs.Track) {
		i := idx[j]
		if s.stopped() {
			cellsSkipped.Inc()
			s.mx.Runs[i] = unfinishedRun(&s.cfg, s.cells[i], ErrInterrupted)
			return
		}
		s.mx.Runs[i] = executeOne(s.cfg, s.cells[i], s.cache, tr)
		s.commit(i)
	})
}

// resolveKnown resolves the cells at idx that a journaled sweep needs
// not simulate, and returns the indices of the rest. Restored cells
// are already durable in the compacted journal and are announced at
// once. Run-cache hits are committed together. A stopped sweep looks
// up no more hits; the pool resolves those cells as interrupted.
func (s *sweep) resolveKnown(idx []int) []int {
	todo := make([]int, 0, len(idx))
	var hits []int
	for _, i := range idx {
		c := s.cells[i]
		key := s.cfg.cellKey(c)
		if r, ok := s.restored[key]; ok {
			s.restore(i, key, r)
			continue
		}
		if s.cache != nil && !s.stopped() {
			if r, ok := s.cache.rc.load(s.cache.key(&s.cfg, c)); ok {
				s.mx.Runs[i] = r
				hits = append(hits, i)
				continue
			}
		}
		todo = append(todo, i)
	}
	s.commit(hits...)
	return todo
}

// restore resolves cell i from its journaled record, which is already
// durable, and announces it.
func (s *sweep) restore(i int, key string, r Run) {
	r.Restored = true
	cellsRestored.Inc()
	s.mx.addRestored()
	s.mx.Runs[i] = r
	s.cfg.announce(key, &s.mx.Runs[i])
}

// commit journals the resolved cells at idx with one append, one write
// and one fsync for all of them, then announces each: no cell reaches
// OnRun before the commit that covers it has returned. Failed cells
// are announced but not journaled, so a resumed sweep retries them.
func (s *sweep) commit(idx ...int) {
	keys := make([]string, len(idx))
	var journal []string
	var runs []*Run
	for n, i := range idx {
		keys[n] = s.cfg.cellKey(s.cells[i])
		if r := &s.mx.Runs[i]; s.ck != nil && !r.Failed() {
			journal, runs = append(journal, keys[n]), append(runs, r)
		}
	}
	if len(runs) > 0 {
		s.ck.commit(journal, runs)
	}
	for n, i := range idx {
		s.cfg.announce(keys[n], &s.mx.Runs[i])
	}
}

// announce hands a resolved cell to OnRun, when set.
func (cfg *Config) announce(key string, r *Run) {
	if cfg.OnRun != nil {
		cfg.OnRun(key, r)
	}
}

// poolWorkers resolves the driver pool width for n cells.
func (cfg *Config) poolWorkers(n int) int {
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runPool fans body over indices 0..n-1 across a bounded worker pool.
// Bodies are independent simulations, so results are bit-identical to
// a sequential loop; worker panics are re-raised on the caller.
func runPool(workers, n int, body func(i int, tr obs.Track)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			driverBusy.Add(1)
			body(i, obs.Track{})
			driverBusy.Add(-1)
		}
		return
	}
	var next int64 = -1
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			var tr obs.Track
			if obs.Enabled() {
				tr = obs.NewTrack(fmt.Sprintf("driver worker %d", w))
			}
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				driverBusy.Add(1)
				body(i, tr)
				driverBusy.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Get returns the single-node run for a configuration, or nil when
// absent. The first call builds an index over Runs, so lookups from
// the table and figure aggregations are O(1); Runs must not be
// appended to or reordered after the first Get. Distributed cells are
// indexed by their cluster spec — use GetCluster.
func (mx *Matrix) Get(alg Algorithm, n, threads int) *Run {
	return mx.get(getKey{alg: alg, n: n, threads: threads})
}

// GetCluster returns the distributed run of one (algorithm, size,
// cluster spec) cell, or nil when absent.
func (mx *Matrix) GetCluster(alg Algorithm, n int, spec string) *Run {
	return mx.get(getKey{alg: alg, n: n, cluster: spec})
}

func (mx *Matrix) get(k getKey) *Run {
	mx.indexOnce.Do(func() {
		mx.index = make(map[getKey]int, len(mx.Runs))
		for i := range mx.Runs {
			r := &mx.Runs[i]
			k := getKey{alg: r.Alg, n: r.N, cluster: r.Cluster}
			if r.Cluster == "" {
				k.threads = r.Threads
			}
			// First match wins, preserving the linear scan's semantics
			// on (malformed) matrices with duplicate cells.
			if _, dup := mx.index[k]; !dup {
				mx.index[k] = i
			}
		}
	})
	if i, ok := mx.index[k]; ok {
		return &mx.Runs[i]
	}
	return nil
}

// mustGet panics on a missing cell — aggregations assume a full matrix.
func (mx *Matrix) mustGet(alg Algorithm, n, threads int) *Run {
	r := mx.Get(alg, n, threads)
	if r == nil {
		panic(fmt.Sprintf("workload: missing run %v n=%d p=%d", alg, n, threads))
	}
	return r
}

// Slowdown returns T_alg / T_OpenBLAS for one cell (Fig. 3's metric).
func (mx *Matrix) Slowdown(alg Algorithm, n, threads int) float64 {
	return mx.mustGet(alg, n, threads).Seconds / mx.mustGet(AlgOpenBLAS, n, threads).Seconds
}

// AvgSlowdownAtSize averages slowdown over thread counts (Table II).
func (mx *Matrix) AvgSlowdownAtSize(alg Algorithm, n int) float64 {
	sum := 0.0
	for _, p := range mx.Cfg.Threads {
		sum += mx.Slowdown(alg, n, p)
	}
	return sum / float64(len(mx.Cfg.Threads))
}

// AvgPowerAtThreads averages watts over sizes at one thread count
// (Table III).
func (mx *Matrix) AvgPowerAtThreads(alg Algorithm, threads int) float64 {
	sum := 0.0
	for _, n := range mx.Cfg.Sizes {
		sum += mx.mustGet(alg, n, threads).WattsTotal()
	}
	return sum / float64(len(mx.Cfg.Sizes))
}

// AvgEPAtSize averages the Eq. 1 ratio over thread counts (Table IV).
func (mx *Matrix) AvgEPAtSize(alg Algorithm, n int) float64 {
	sum := 0.0
	for _, p := range mx.Cfg.Threads {
		sum += mx.mustGet(alg, n, p).EP()
	}
	return sum / float64(len(mx.Cfg.Threads))
}

// ScalingSeries returns the Eq. 5 energy-performance scaling curve of
// one algorithm at one size across the thread counts (Fig. 7). The
// baseline EP_1 is the algorithm's own single-thread run.
func (mx *Matrix) ScalingSeries(alg Algorithm, n int) energy.Series {
	base := mx.mustGet(alg, n, mx.Cfg.Threads[0]).EP()
	s := energy.Series{Algorithm: alg.String(), ProblemN: n}
	for _, p := range mx.Cfg.Threads {
		s.P = append(s.P, p)
		s.S = append(s.S, energy.Scaling(mx.mustGet(alg, n, p).EP(), base))
	}
	return s
}

// PowerCurve returns watts as a function of thread count at one size
// (the per-size series of Figs. 4–6).
func (mx *Matrix) PowerCurve(alg Algorithm, n int) []float64 {
	out := make([]float64, 0, len(mx.Cfg.Threads))
	for _, p := range mx.Cfg.Threads {
		out = append(out, mx.mustGet(alg, n, p).WattsTotal())
	}
	return out
}

// SessionTrace concatenates every recorded run trace with the
// configured quiesce gap — the full power log of the experiment
// session. It panics when traces were not recorded. Failed cells have
// no trace and are skipped: a degraded sweep's session log covers the
// cells that completed.
func (mx *Matrix) SessionTrace() *trace.Trace {
	full := &trace.Trace{}
	idle := mx.Cfg.Machine.IdlePower()
	first := true
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if r.Failed() {
			continue
		}
		if r.Trace == nil {
			panic("workload: SessionTrace requires Config.RecordTraces")
		}
		gap := mx.Cfg.QuiesceSeconds
		if first {
			gap = 0
			first = false
		}
		full.AppendWithGap(r.Trace, gap, idle)
	}
	return full
}
