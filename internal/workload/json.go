package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"capscale/internal/cluster"
	"capscale/internal/hw"
)

// JSON persistence for experiment matrices: epscale can save a run's
// results and re-render tables later (or diff two calibrations)
// without re-simulating. Traces are not serialized — they are cheap to
// regenerate and large to store.

// matrixJSON is the serialized form: the configuration's axes, and
// the runs as their records (Run's JSON form). The machine is stored
// by name and resolved by hw.Lookup on load.
type matrixJSON struct {
	Machine    string      `json:"machine"`
	Algorithms []Algorithm `json:"algorithms"`
	Sizes      []int       `json:"sizes"`
	Threads    []int       `json:"threads"`
	// Clusters holds the distributed axis in its parseable spec form
	// ("16x1GbE"); resolved through cluster.ParseSpec on load.
	Clusters []string `json:"clusters,omitempty"`
	Quiesce  float64  `json:"quiesce_seconds"`
	Runs     []Run    `json:"runs"`
}

// SaveJSON writes the matrix (without traces) to w.
func (mx *Matrix) SaveJSON(w io.Writer) error {
	out := matrixJSON{
		Machine:    mx.Cfg.Machine.Name,
		Algorithms: mx.Cfg.Algorithms,
		Sizes:      mx.Cfg.Sizes,
		Threads:    mx.Cfg.Threads,
		Quiesce:    mx.Cfg.QuiesceSeconds,
		Runs:       mx.Runs,
	}
	for _, spec := range mx.Cfg.Clusters {
		out.Clusters = append(out.Clusters, spec.String())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadJSON reads a matrix saved by SaveJSON, resolving the machine by
// name (hw.Lookup: a zoo machine, or a flat cluster of one).
func LoadJSON(r io.Reader) (*Matrix, error) {
	var in matrixJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("workload: decoding matrix: %w", err)
	}
	machine, err := hw.Lookup(in.Machine)
	if err != nil {
		return nil, fmt.Errorf("workload: saved matrix: %w", err)
	}
	mx := &Matrix{Cfg: Config{
		Machine:        machine,
		Algorithms:     in.Algorithms,
		Sizes:          in.Sizes,
		Threads:        in.Threads,
		QuiesceSeconds: in.Quiesce,
	}}
	for _, s := range in.Clusters {
		spec, err := cluster.ParseSpec(s)
		if err != nil {
			return nil, fmt.Errorf("workload: saved matrix: %w", err)
		}
		mx.Cfg.Clusters = append(mx.Cfg.Clusters, spec)
	}
	mx.Runs = in.Runs
	return mx, nil
}
