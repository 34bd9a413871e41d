package core

import (
	"sort"

	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/sa"
)

// The static-analysis pre-phase.
//
// Before the SMT rounds of ModeFull, internal/sa runs its solver-free pass
// (connected components, abstract interpretation over F_p, reachability)
// and its facts feed the scheduler in three ways:
//
//   - prune: signals living in constraint-graph components without any
//     output never get a slice query — uniqueness facts cannot cross
//     undirected components, so those queries could not influence a verdict;
//   - shrink: signals proven determined by the abstract interpretation are
//     injected into the uniqueness propagator (provenance RuleStatic),
//     enlarging the shared set of every later two-copy query, which shrinks
//     its search space — and outputs proven determined are discharged with
//     no SMT query at all;
//   - order: outputs the reachability analysis flags as definitely
//     under-constrained candidates are queried first in the final
//     whole-circuit stage, so the expensive confirmation effort goes to the
//     most promising targets.
//
// Soundness contract (DESIGN.md §12): facts may only skip solver work after
// sa's replay check (AbsState.Verify) re-derives them against the original
// constraints; if the replay fails, every hint is dropped and the analysis
// proceeds exactly as if the pre-pass had not run. Reachability "unsafe"
// hints are never trusted as verdicts — an Unsafe report still requires a
// confirmed witness pair from confirmCounterexample, exactly as without the
// pre-pass.

// runStaticPrePass executes the pass and folds its facts into the analysis
// state. Called once, before the first query round, only in ModeFull.
func (a *analysis) runStaticPrePass() {
	res := sa.Analyze(a.sys, &sa.Options{
		Obs:       a.cfg.Obs,
		ObsParent: a.span,
		Metrics:   a.cfg.Metrics,
	})
	if err := res.Abs.Verify(); err != nil {
		// The replay failed: an absint bug or an unsatisfiable system.
		// Either way the facts are not trustworthy; drop every hint and run
		// the full analysis untouched (degradation, never unsoundness).
		a.cfg.Obs.Event(a.span, "core.static.verify_failed", obs.KV("err", err.Error()))
		a.cfg.Metrics.Counter("core.static.verify_failures").Inc()
		a.report.StaticVerifyError = err.Error()
		return
	}
	rangeAttr := make(map[int]bool, len(res.RangeDetermined))
	for _, id := range res.RangeDetermined {
		rangeAttr[id] = true
	}
	injected, rangeInjected, rangePruned := 0, 0, 0
	for _, id := range res.DeterminedSignals {
		if !a.prop.AddUniqueStatic(id) {
			continue
		}
		injected++
		if !rangeAttr[id] {
			continue
		}
		// A range-domain singleton pins the signal to one value in every
		// satisfying assignment, so both copies of the two-copy encoding
		// agree on it — its uniqueness is decided without the round-1 slice
		// query, and a determined output also skips its final whole-circuit
		// query (same counterexample-preservation argument as the classic
		// facts, DESIGN.md §17).
		rangeInjected++
		rangePruned++
		if a.sys.Signal(id).Kind == r1cs.KindOutput {
			rangePruned++
		}
	}
	a.staticPruned = res.PrunedSet()
	a.staticUnreachable = res.UnreachableOutputs
	a.report.Stats.StaticUnique = injected - rangeInjected
	a.report.Stats.StaticRangeUnique = rangeInjected
	a.report.Stats.StaticRangePruned = rangePruned
	a.cfg.Metrics.Counter("core.static.facts_injected").Add(int64(injected))
	a.cfg.Metrics.Counter("core.static.range_facts_injected").Add(int64(rangeInjected))
	a.cfg.Metrics.Counter("core.static.range_queries_pruned").Add(int64(rangePruned))
	a.cfg.Metrics.Counter("core.static.outputs_discharged").Add(int64(len(res.DeterminedOutputs)))
	a.cfg.Obs.Event(a.span, "core.static.hints",
		obs.KV("injected", injected),
		obs.KV("range_injected", rangeInjected),
		obs.KV("range_pruned", rangePruned),
		obs.KV("outputs_discharged", len(res.DeterminedOutputs)),
		obs.KV("pruned", len(res.PrunedSignals)),
		obs.KV("unreachable_outputs", len(res.UnreachableOutputs)))
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

// orderFinalOutputs returns the outputs still to be decided by the final
// whole-circuit stage, with the reachability pass's under-constraint
// candidates first. Both partitions stay in ascending signal order, so the
// result is deterministic for any worker count.
func (a *analysis) orderFinalOutputs() []int {
	outs := a.sys.Outputs()
	if len(a.staticUnreachable) == 0 {
		return outs
	}
	hinted := make(map[int]bool, len(a.staticUnreachable))
	for _, o := range a.staticUnreachable {
		hinted[o] = true
	}
	ordered := make([]int, 0, len(outs))
	for _, o := range outs {
		if hinted[o] {
			ordered = append(ordered, o)
		}
	}
	rest := make([]int, 0, len(outs)-len(ordered))
	for _, o := range outs {
		if !hinted[o] {
			rest = append(rest, o)
		}
	}
	sort.Ints(ordered)
	sort.Ints(rest)
	return append(ordered, rest...)
}
