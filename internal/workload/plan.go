// Model-guided sweep planning: measure a stratified seed of cells, fit
// the energy-complexity model, and measure further only where the
// model is uncertain or where algorithms cross over — every other cell
// is emitted as a prediction flagged Run.Predicted.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"capscale/internal/model"
	"capscale/internal/obs"
)

// PlanMode selects the sweep strategy.
type PlanMode int

const (
	// PlanExhaustive measures every cell (the default).
	PlanExhaustive PlanMode = iota
	// PlanGuided measures a stratified seed, fits the energy model, and
	// only measures cells the model is not confident about.
	PlanGuided
)

var planNames = [...]string{"exhaustive", "guided"}

func (p PlanMode) String() string {
	if p < 0 || int(p) >= len(planNames) {
		return fmt.Sprintf("PlanMode(%d)", int(p))
	}
	return planNames[p]
}

// PlanNames lists the accepted plan-mode spellings in order.
func PlanNames() []string { return append([]string(nil), planNames[:]...) }

// ParsePlan resolves a plan-mode name (case-insensitive).
func ParsePlan(name string) (PlanMode, error) {
	for i, n := range planNames {
		if strings.EqualFold(name, n) {
			return PlanMode(i), nil
		}
	}
	return 0, fmt.Errorf("unknown plan %q (valid: %s)", name, strings.Join(planNames[:], ", "))
}

const (
	// DefaultSeedFraction is the share of cells the guided plan
	// measures up front (grid corners first, padded evenly).
	DefaultSeedFraction = 0.25
	// DefaultConfidence is the widest acceptable ±2σ relative
	// prediction interval; cells above it get measured.
	DefaultConfidence = 0.15
	// maxPlannerRounds bounds the measure→refit loop; anything still
	// uncertain after the last round is measured outright.
	maxPlannerRounds = 3
	// maxMeasureFraction is the guided plan's hard measurement budget:
	// at most this share of the matrix is executed (the seed always
	// fits under it, and cells the model cannot predict at all are
	// exempt — correctness beats budget). Cells trimmed by the budget
	// are emitted as predictions whose PredRelCI records the remaining
	// uncertainty honestly.
	maxMeasureFraction = 1.0 / 3
)

// PlannerStats records what the guided planner did with the matrix.
type PlannerStats struct {
	// SeededCells were measured up front as the stratified training
	// seed (includes checkpoint restores).
	SeededCells int
	// MeasuredCells is every cell actually executed or restored,
	// seed and refinement rounds included.
	MeasuredCells int
	// PredictedCells were emitted from the fitted model without
	// executing.
	PredictedCells int
	// Rounds counts refinement rounds after the seed (fit → measure
	// uncertain cells → refit).
	Rounds int
}

// guided carries one guided sweep's working state on top of the
// sweep every plan shares.
type guided struct {
	*sweep
	terms    []model.Terms
	measured []bool
	predRest map[string]Run // predicted checkpoint records, tag-gated
}

// executeGuided runs the guided plan: seed → fit → refine → predict.
// Measured cells resolve through the sweep like any exhaustive cell;
// the predictions, all known once the last fit is done, are journaled
// with one commit.
func (s *sweep) executeGuided() {
	g := &guided{sweep: s}
	g.measured = make([]bool, len(g.cells))
	g.terms = make([]model.Terms, len(g.cells))
	for i, c := range g.cells {
		t, err := cellTerms(&g.cfg, c)
		if err != nil {
			panic(err.Error())
		}
		g.terms[i] = t
	}
	// Predicted records only stand in for a prediction when the refitted
	// model still carries the same tag; they never count as
	// measurements.
	g.predRest = make(map[string]Run)
	for k, r := range g.restored {
		if r.Predicted {
			g.predRest[k] = r
			delete(g.restored, k)
		}
	}

	var sweepSp obs.Span
	if obs.Enabled() {
		sweepSp = obs.StartOn(obs.Track{}, "workload.sweep.guided")
		sweepSp.ArgInt("cells", len(g.cells))
		defer sweepSp.End()
	}

	seedFrac := g.cfg.SeedFraction
	if seedFrac <= 0 {
		seedFrac = DefaultSeedFraction
	}
	conf := g.cfg.Confidence
	if conf <= 0 {
		conf = DefaultConfidence
	}

	g.measure(seedIndices(&g.cfg, g.cells, seedFrac))
	g.mx.Planner.SeededCells = g.measuredCount()

	budget := int(math.Floor(maxMeasureFraction * float64(len(g.cells))))
	if budget < g.mx.Planner.SeededCells {
		budget = g.mx.Planner.SeededCells
	}

	mo := g.fit()
	for round := 0; mo != nil; round++ {
		must, wanted := g.uncertain(mo, conf)
		if allow := budget - g.measuredCount(); len(wanted) > allow {
			if allow < 0 {
				allow = 0
			}
			wanted = wanted[:allow]
		}
		needs := append(must, wanted...)
		if len(needs) == 0 {
			break
		}
		g.measure(needs)
		if round+1 >= maxPlannerRounds {
			break
		}
		g.mx.Planner.Rounds++
		mo = g.fit()
	}
	if mo == nil {
		// The model never became fittable (degenerate matrices):
		// degrade gracefully to an exhaustive sweep.
		g.measure(indices(len(g.cells)))
	}

	// Emit the remainder as predictions, journaled with one commit; any
	// cell the final model cannot answer is measured instead.
	var predicted, fallback []int
	for i := range g.cells {
		if g.measured[i] {
			continue
		}
		p, err := mo.Predict(g.terms[i])
		if err != nil {
			fallback = append(fallback, i)
			continue
		}
		g.mx.Planner.PredictedCells++
		key := g.cfg.cellKey(g.cells[i])
		if r, ok := g.predRest[key]; ok && r.ModelTag == mo.Tag() {
			g.restore(i, key, r)
			continue
		}
		g.mx.Runs[i] = predictedRun(&g.cfg, g.cells[i], g.terms[i], p, mo.Tag())
		predicted = append(predicted, i)
	}
	g.commit(predicted...)
	g.measure(fallback)

	g.mx.Planner.MeasuredCells = g.measuredCount()
	g.mx.Model = mo
}

func (g *guided) measuredCount() int {
	n := 0
	for _, m := range g.measured {
		if m {
			n++
		}
	}
	return n
}

// measure resolves the given cell indices through the sweep, skipping
// ones already measured.
func (g *guided) measure(idx []int) {
	var todo []int
	for _, i := range idx {
		if !g.measured[i] {
			todo = append(todo, i)
			g.measured[i] = true
		}
	}
	g.resolve(todo)
}

// fit builds the model from every measured, completed cell. Returns
// nil while the observations cannot support a fit yet.
func (g *guided) fit() *model.Model {
	var obsv []model.Obs
	for i := range g.cells {
		if !g.measured[i] {
			continue
		}
		r := &g.mx.Runs[i]
		if r.Failed() {
			continue
		}
		obsv = append(obsv, r.observation(g.cfg.cellKey(g.cells[i]), g.terms[i]))
	}
	mo, err := model.Fit(g.cfg.Machine, obsv)
	if err != nil {
		return nil
	}
	return mo
}

// uncertain splits the unmeasured cells the model cannot yet answer
// confidently into must-measure (no prediction possible at all —
// budget-exempt) and wanted (prediction interval above the confidence
// bound or sitting on an algorithm-crossover frontier), the latter in
// priority order: widest interval first, frontier cells after.
func (g *guided) uncertain(mo *model.Model, conf float64) (must, wanted []int) {
	type wide struct {
		i  int
		ci float64
	}
	var wides []wide
	preds := make(map[int]model.Prediction)
	for i := range g.cells {
		if g.measured[i] {
			continue
		}
		p, err := mo.Predict(g.terms[i])
		if err != nil {
			must = append(must, i)
			continue
		}
		if p.RelCI > conf {
			wides = append(wides, wide{i: i, ci: p.RelCI})
			continue
		}
		preds[i] = p
	}
	sort.Slice(wides, func(a, b int) bool {
		if wides[a].ci != wides[b].ci {
			return wides[a].ci > wides[b].ci
		}
		return wides[a].i < wides[b].i
	})
	for _, w := range wides {
		wanted = append(wanted, w.i)
	}

	straddle := make(map[int]bool)
	g.frontierStraddles(preds, straddle)
	var sidx []int
	for i := range straddle {
		sidx = append(sidx, i)
	}
	sort.Ints(sidx)
	wanted = append(wanted, sidx...)
	return must, wanted
}

// frontierKey groups cells that differ only by algorithm — the axis
// the paper's crossover plots rank.
type frontierKey struct{ n, threads, spec int }

// maxStraddleCellsPerRound bounds how many crossover-frontier cells a
// refinement round measures (most ambiguous first). Near-ties between
// algorithms can blanket a sweep; the cap keeps the guided plan's
// budget advantage while still spending measurements where ordering is
// least certain.
const maxStraddleCellsPerRound = 4

// frontierStraddles marks unmeasured cells whose predicted
// energy-proportionality sits within the combined confidence band of
// the best competing algorithm at the same coordinates: the model
// cannot say which one wins there, so the frontier cell gets measured.
func (g *guided) frontierStraddles(preds map[int]model.Prediction, need map[int]bool) {
	groups := make(map[frontierKey][]int)
	for i, c := range g.cells {
		k := frontierKey{n: c.n, threads: c.threads, spec: c.spec}
		groups[k] = append(groups[k], i)
	}
	type pt struct {
		i        int
		ep, ci   float64
		measured bool
	}
	// One candidate per ambiguous group: the less certain cell of the
	// winner/runner-up pair, ranked by how ambiguous the ordering is.
	type candidate struct {
		i         int
		ambiguity float64 // gap/band; smaller = less separable
	}
	var cands []candidate
	for _, idx := range groups {
		if len(idx) < 2 {
			continue
		}
		var pts []pt
		for _, i := range idx {
			if g.measured[i] {
				r := &g.mx.Runs[i]
				if r.Failed() || r.Seconds <= 0 {
					continue
				}
				pts = append(pts, pt{i: i, ep: (r.PKGJoules + r.DRAMJoules) / (r.Seconds * r.Seconds), measured: true})
			} else if p, ok := preds[i]; ok && p.Seconds > 0 {
				pts = append(pts, pt{i: i, ep: (p.PKGJ + p.DRAMJ) / (p.Seconds * p.Seconds), ci: p.RelCI})
			}
		}
		if len(pts) < 2 {
			continue
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].ep < pts[b].ep })
		// Only the winner matters for the crossover plots: resolve the
		// best vs runner-up when the model cannot separate them.
		a, b := pts[0], pts[1]
		band := (a.ci + b.ci) * a.ep
		if band <= 0 || b.ep-a.ep >= band {
			continue
		}
		pick := a
		if !b.measured && (a.measured || b.ci > a.ci) {
			pick = b
		}
		if pick.measured {
			continue
		}
		cands = append(cands, candidate{i: pick.i, ambiguity: (b.ep - a.ep) / band})
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].ambiguity != cands[y].ambiguity {
			return cands[x].ambiguity < cands[y].ambiguity
		}
		return cands[x].i < cands[y].i
	})
	for k := 0; k < len(cands) && k < maxStraddleCellsPerRound; k++ {
		need[cands[k].i] = true
	}
}

// seedIndices picks the stratified training seed: per algorithm, the
// four grid corners (extreme size × extreme thread count or cluster),
// padded evenly across the remaining cells up to the seed fraction.
func seedIndices(cfg *Config, cells []cell, frac float64) []int {
	target := int(math.Ceil(frac * float64(len(cells))))
	if target < 1 {
		target = 1
	}
	picked := make(map[int]bool)
	axis := func(c cell) int {
		if c.spec >= 0 {
			return c.spec
		}
		return c.threads
	}
	byAlg := make(map[Algorithm][]int)
	for i, c := range cells {
		byAlg[c.alg] = append(byAlg[c.alg], i)
	}
	done := make(map[Algorithm]bool)
	for _, alg := range cfg.Algorithms {
		idx := byAlg[alg]
		if len(idx) == 0 || done[alg] {
			continue
		}
		done[alg] = true
		minN, maxN := cells[idx[0]].n, cells[idx[0]].n
		minA, maxA := axis(cells[idx[0]]), axis(cells[idx[0]])
		for _, i := range idx {
			c := cells[i]
			if c.n < minN {
				minN = c.n
			}
			if c.n > maxN {
				maxN = c.n
			}
			if a := axis(c); a < minA {
				minA = a
			} else if a > maxA {
				maxA = a
			}
		}
		for _, i := range idx {
			c := cells[i]
			if (c.n == minN || c.n == maxN) && (axis(c) == minA || axis(c) == maxA) {
				picked[i] = true
			}
		}
	}
	if len(picked) < target {
		var rest []int
		for i := range cells {
			if !picked[i] {
				rest = append(rest, i)
			}
		}
		need := target - len(picked)
		if need > len(rest) {
			need = len(rest)
		}
		for k := 0; k < need; k++ {
			picked[rest[k*len(rest)/need]] = true
		}
	}
	out := make([]int, 0, len(picked))
	for i := range picked {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// predictedRun synthesizes the Run record for a cell answered by the
// model instead of executed. Joule and second figures are the model's;
// structural facts (leaves, traffic, rank fit) come from the analytic
// terms, and the Predicted/PredRelCI/ModelTag triple marks provenance.
func predictedRun(cfg *Config, c cell, t model.Terms, p model.Prediction, tag string) Run {
	run := Run{
		Alg:        c.alg,
		N:          c.n,
		Threads:    c.threads,
		Seconds:    p.Seconds,
		PKGJoules:  p.PKGJ,
		PP0Joules:  p.PP0J,
		DRAMJoules: p.DRAMJ,
		Leaves:     int(t.Leaves),
		Predicted:  true,
		PredRelCI:  p.RelCI,
		ModelTag:   tag,
	}
	cores := float64(c.threads)
	if cs := cfg.clusterOf(c); cs != nil {
		ranks, repl := fitRanks(c.alg, c.n, cs)
		run.Cluster = cs.String()
		run.Ranks = ranks
		run.Replication = repl
		run.Threads = cfg.Machine.Cores
		run.WireBytes = t.WireBytes
		run.Messages = int(math.Round(t.Messages))
		run.CritCommSeconds = t.CommSeconds
		run.NICJoules = p.NICJ
		run.SwitchJoules = p.SwitchJ
		// Distributed CompSeconds is per rank; every rank spreads it
		// over the node's cores.
		cores = float64(cfg.Machine.Cores)
	}
	if p.Seconds > 0 && cores > 0 {
		u := t.CompSeconds / (cores * p.Seconds)
		if u > 1 {
			u = 1
		}
		run.Utilization = u
	}
	return run
}
