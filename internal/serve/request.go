package serve

import (
	"fmt"
	"strings"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/workload"
)

// SweepRequest is the POST /v1/sweep body: the JSON-facing subset of
// workload.Config a remote caller may drive. Execution details
// (parallelism, cache, checkpoint path) belong to the server; trace
// recording and fault injection stay CLI-only — traces bloat the
// stream and faults are a chaos-testing concern, not a query.
type SweepRequest struct {
	// Machine names a machine from the built-in zoo (see hw.Zoo);
	// empty selects the paper's platform (Intel E3-1225 v3).
	Machine string `json:"machine,omitempty"`
	// Algorithms are canonical algorithm names (workload.AlgorithmNames);
	// empty selects the paper's three fixtures.
	Algorithms []string `json:"algorithms,omitempty"`
	// Sizes and Threads are the matrix axes; empty selects the smoke
	// matrix's axes (small and fast — callers wanting the paper matrix
	// say so explicitly).
	Sizes   []int `json:"sizes,omitempty"`
	Threads []int `json:"threads,omitempty"`
	// Clusters are cluster-spec strings ("16x1GbE", "49xFDR@16") for
	// the distributed algorithms (cluster.ParseSpec).
	Clusters []string `json:"clusters,omitempty"`
	// Plan is "exhaustive" (default) or "guided".
	Plan string `json:"plan,omitempty"`
	// SeedFraction and Confidence tune the guided planner (zero keeps
	// the planner defaults).
	SeedFraction float64 `json:"seed_fraction,omitempty"`
	Confidence   float64 `json:"confidence,omitempty"`
	// QuiesceSeconds is the idle gap between runs in the concatenated
	// power trace; zero keeps the smoke default (1 s).
	QuiesceSeconds float64 `json:"quiesce_seconds,omitempty"`
	// PollInterval is the measurement sampling period in seconds; zero
	// selects the pipeline default.
	PollInterval float64 `json:"poll_interval,omitempty"`
}

// maxRequestCells bounds one request's matrix so a single POST cannot
// occupy the simulator for hours; callers wanting more split the
// sweep (each part gets its own fingerprint and stored result).
const maxRequestCells = 4096

// maxRequestSize and maxRequestNodes bound one cell's cost, which the
// cell count does not, so a single POST cannot run the server out of
// memory. Measured on a 2-vCPU VM with 7 GB: a Strassen tree at
// n = 16384 is 2 GB of heap. The dearest cell admitted, DStrassen at
// n = 8192 on 64 nodes, peaks at about 33 MB resident and takes about
// 2 s as the one cell of an epscale run; its message count grows as
// P(P−1) with the ranks. Larger cells run through the epscale CLI.
const (
	maxRequestSize  = 8192
	maxRequestNodes = 64
)

// lookupMachine resolves a zoo machine by exact name, or the paper
// platform for "".
func lookupMachine(name string) (*hw.Machine, error) {
	if name == "" {
		return hw.HaswellE31225(), nil
	}
	var names []string
	for _, m := range hw.Zoo() {
		if m.Name == name {
			return m, nil
		}
		names = append(names, fmt.Sprintf("%q", m.Name))
	}
	return nil, fmt.Errorf("unknown machine %q (valid: %s)", name, strings.Join(names, ", "))
}

// Config translates the request into a validated workload.Config. The
// zero request yields the smoke matrix on the paper platform.
func (req *SweepRequest) Config() (workload.Config, error) {
	cfg := workload.SmokeConfig()
	m, err := lookupMachine(req.Machine)
	if err != nil {
		return workload.Config{}, err
	}
	cfg.Machine = m
	if len(req.Algorithms) > 0 {
		cfg.Algorithms = cfg.Algorithms[:0]
		for _, name := range req.Algorithms {
			a, err := workload.ParseAlgorithm(strings.TrimSpace(name))
			if err != nil {
				return workload.Config{}, err
			}
			cfg.Algorithms = append(cfg.Algorithms, a)
		}
	}
	if len(req.Sizes) > 0 {
		cfg.Sizes = req.Sizes
	}
	if len(req.Threads) > 0 {
		cfg.Threads = req.Threads
	}
	for _, s := range req.Clusters {
		spec, err := cluster.ParseSpec(strings.TrimSpace(s))
		if err != nil {
			return workload.Config{}, err
		}
		cfg.Clusters = append(cfg.Clusters, spec)
	}
	if req.Plan != "" {
		plan, err := workload.ParsePlan(req.Plan)
		if err != nil {
			return workload.Config{}, err
		}
		cfg.Plan = plan
	}
	cfg.SeedFraction = req.SeedFraction
	cfg.Confidence = req.Confidence
	if req.QuiesceSeconds > 0 {
		cfg.QuiesceSeconds = req.QuiesceSeconds
	}
	if req.PollInterval > 0 {
		cfg.PollInterval = req.PollInterval
	}
	if err := cfg.Validate(); err != nil {
		return workload.Config{}, err
	}
	if n := cfg.CellCount(); n > maxRequestCells {
		return workload.Config{}, fmt.Errorf("matrix has %d cells (limit %d); split the sweep", n, maxRequestCells)
	}
	for _, n := range cfg.Sizes {
		if n > maxRequestSize {
			return workload.Config{}, fmt.Errorf("size %d above the served limit %d", n, maxRequestSize)
		}
	}
	for _, spec := range cfg.Clusters {
		if spec.Nodes > maxRequestNodes {
			return workload.Config{}, fmt.Errorf("cluster spec %q has %d nodes, above the served limit %d", spec, spec.Nodes, maxRequestNodes)
		}
	}
	return cfg, nil
}
