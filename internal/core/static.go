package core

import (
	"qed2/internal/obs"
	"qed2/internal/sa"
)

// The static pre-pass: component pruning.
//
// Before the SMT rounds of ModeFull, core labels the connected components of
// the constraint graph (sa.BuildGraph) and marks every signal of a component
// that holds no output. Uniqueness facts cannot cross undirected components,
// so those signals' slice queries could not influence a verdict and are
// never issued (skipPruned).
//
// The pass decides nothing: every uniqueness fact comes from internal/uniq's
// rules or from a slice query, and an Unsafe report still requires a
// confirmed witness pair from confirmCounterexample. The abstract
// interpreter of internal/sa runs only behind `qed2 -lint` (DESIGN.md §12).

// runStaticPrePass marks the pruned signals. Called once, before the first
// query round, only in ModeFull.
func (a *analysis) runStaticPrePass() {
	gs := a.cfg.Obs.Start(a.span, "sa.graph")
	g := sa.BuildGraph(a.sys)
	pruned := g.SignalsWithoutOutputComponent()
	gs.End(obs.KV("components", g.NumComponents), obs.KV("pruned", len(pruned)))
	if len(pruned) == 0 {
		return
	}
	a.staticPruned = make([]bool, a.sys.NumSignals())
	for _, s := range pruned {
		a.staticPruned[s] = true
	}
}

// skipPruned reports whether a slice query for signal s is skipped on the
// static pruning fact, counting the avoided query. Slices never cross
// undirected constraint-graph components, so a pruned signal's query (a) can
// only mention signals of its own output-free component and (b) its UNSAT
// answer could only mark signals of that component unique — facts no output
// query can ever observe. Skipping is therefore verdict- and
// counterexample-preserving, not merely verdict-preserving.
func (a *analysis) skipPruned(s int) bool {
	if a.staticPruned == nil || !a.staticPruned[s] {
		return false
	}
	a.report.Stats.StaticQueriesAvoided++
	a.cfg.Metrics.Counter("core.static.queries_avoided").Inc()
	a.cfg.Obs.Event(a.span, "core.query.avoided",
		obs.KV("sig", s), obs.KV("reason", "static-pruned"))
	return true
}
