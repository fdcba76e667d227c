// Bridging the sweep matrix to internal/model: analytic terms for any
// cell, and observation extraction from measured runs so a fitted
// model can stand in for unmeasured cells.
package workload

import (
	"fmt"

	"capscale/internal/model"
)

// distKindOf maps a distributed sweep algorithm to its model
// accountant.
func distKindOf(alg Algorithm) (model.DistKind, bool) {
	switch alg {
	case AlgSUMMA:
		return model.DistSUMMA, true
	case Alg25D:
		return model.Dist25D, true
	case AlgDStrassen:
		return model.DistDStrassen, true
	case AlgDistCAPS:
		return model.DistCAPS, true
	}
	return 0, false
}

// cellTerms computes the analytic model terms for one cell without
// executing it. Dense node families use the closed-form accountants;
// sparse cells walk the (cheap, already shape-only) task tree;
// distributed cells use the closed wire/work forms on the fitted rank
// count.
func cellTerms(cfg *Config, c cell) (model.Terms, error) {
	m := cfg.Machine
	switch c.alg {
	case AlgOpenBLAS:
		return model.Classic(m, c.n, c.threads), nil
	case AlgStrassen:
		return model.Strassen(m, c.n, c.threads, false), nil
	case AlgWinograd:
		return model.Strassen(m, c.n, c.threads, true), nil
	case AlgCAPS:
		return model.CAPS(m, c.n, c.threads), nil
	case AlgSpMV, AlgCG:
		return model.FromTree(m, model.FamilySparse, buildSparseTree(m, c.alg, c.n, c.threads), c.threads), nil
	}
	kind, ok := distKindOf(c.alg)
	if !ok {
		return model.Terms{}, fmt.Errorf("workload: no model terms for algorithm %s", c.alg)
	}
	spec := cfg.clusterOf(c)
	if spec == nil {
		return model.Terms{}, fmt.Errorf("workload: distributed cell %s without a cluster spec", c.alg)
	}
	ranks, repl := fitRanks(c.alg, c.n, spec)
	fab, err := spec.Comms.Fabric()
	if err != nil {
		return model.Terms{}, fmt.Errorf("workload: cluster %q: %v", spec, err)
	}
	return model.Distributed(m, fab, kind, c.n, ranks, repl)
}

// ModelObservations converts the matrix's measured runs into model
// training observations. Failed and predicted runs are excluded —
// predictions must never feed back into a fit.
func (mx *Matrix) ModelObservations() []model.Obs {
	cells := mx.Cfg.cells()
	if len(cells) != len(mx.Runs) {
		panic("workload: matrix runs do not match its config's cells")
	}
	obs := make([]model.Obs, 0, len(mx.Runs))
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if r.Failed() || r.Predicted {
			continue
		}
		t, err := cellTerms(&mx.Cfg, cells[i])
		if err != nil {
			continue
		}
		obs = append(obs, r.observation(mx.Cfg.cellKey(cells[i]), t))
	}
	return obs
}

// observation is the model's training observation of a measured run:
// its cell's key and analytic terms, with the measured seconds and
// per-plane joules.
func (r *Run) observation(key string, t model.Terms) model.Obs {
	return model.Obs{
		Key:     key,
		Terms:   t,
		Seconds: r.Seconds,
		PKGJ:    r.PKGJoules,
		PP0J:    r.PP0Joules,
		DRAMJ:   r.DRAMJoules,
		NICJ:    r.NICJoules,
		SwitchJ: r.SwitchJoules,
	}
}

// FitModel fits (or returns the already-fitted) energy-complexity
// model for this matrix's measured cells.
func (mx *Matrix) FitModel() (*model.Model, error) {
	if mx.Model != nil {
		return mx.Model, nil
	}
	mo, err := model.Fit(mx.Cfg.Machine, mx.ModelObservations())
	if err != nil {
		return nil, err
	}
	mx.Model = mo
	return mo, nil
}
