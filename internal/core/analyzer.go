// Package core implements the QED² analysis for detecting under-constrained
// arithmetic circuits: given a rank-1 constraint system, it decides for each
// output signal whether the constraints determine it uniquely from the
// inputs, combining lightweight uniqueness-constraint propagation
// (internal/uniq) with local and global SMT queries over the finite field
// (internal/smt).
//
// Verdicts:
//
//   - Safe     — every output signal is uniquely determined by the inputs;
//   - Unsafe   — a checked pair of witnesses agrees on all inputs but
//     differs on an output (the circuit is under-constrained);
//   - Unknown  — neither could be established within budget.
//
// The package also exposes the two baselines the evaluation compares
// against: propagation-only (an Ecne-style pure inference pass, which can
// prove Safe but never produces counterexamples) and SMT-only (a monolithic
// whole-circuit query per output, which is complete in principle but does
// not scale).
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/smt"
	"qed2/internal/uniq"
)

// Verdict classifies a circuit.
type Verdict int

// Verdicts.
const (
	// VerdictUnknown means the analysis could not decide within budget.
	VerdictUnknown Verdict = iota
	// VerdictSafe means every output is uniquely determined by the inputs.
	VerdictSafe
	// VerdictUnsafe means a checked witness pair demonstrates
	// non-uniqueness of an output.
	VerdictUnsafe
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictSafe:
		return "safe"
	case VerdictUnsafe:
		return "unsafe"
	case VerdictUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// ParseVerdict inverts String for the three canonical verdict names (used
// when rehydrating persisted records, e.g. bench checkpoints).
func ParseVerdict(s string) (Verdict, bool) {
	switch s {
	case "safe":
		return VerdictSafe, true
	case "unsafe":
		return VerdictUnsafe, true
	case "unknown":
		return VerdictUnknown, true
	}
	return VerdictUnknown, false
}

// ProgressEvent is one milestone reported through Config.Progress.
type ProgressEvent struct {
	// Phase is "static" (pre-pass finished), "round" (a slice-query round
	// fully folded), "final" (a final-outputs-stage round fully folded) or
	// "done" (analysis finished; Verdict is set).
	Phase string
	// Round is the 1-based round number within its phase ("round"/"final").
	Round int
	// Tasks is the number of queries dispatched in the reported round.
	Tasks int
	// UniqueTotal/Queries/SolverSteps snapshot the analysis effort so far.
	UniqueTotal int
	Queries     int
	SolverSteps int64
	// Verdict is the final verdict string, set only on "done".
	Verdict string
}

// CounterExample is a checked pair of witnesses demonstrating
// non-uniqueness: both satisfy every constraint, they agree on all inputs,
// and they differ on Signal (an output).
type CounterExample struct {
	W1, W2 r1cs.Witness
	Signal int
}

// Stats aggregates analysis effort and attribution.
type Stats struct {
	// SignalsTotal and Outputs describe the circuit.
	SignalsTotal int
	Outputs      int
	Constraints  int
	// PropagationUnique counts signals proven by the syntactic rules
	// (including re-propagation triggered by SMT facts), with BitsUnique
	// the subset resolved by the binary-decomposition rule.
	PropagationUnique int
	BitsUnique        int
	// SMTUnique counts signals proven by SMT queries.
	SMTUnique int
	// UniqueTotal counts all known-unique signals at the end (seeds
	// included).
	UniqueTotal int
	// Queries and SolverSteps measure SMT effort.
	Queries     int
	SolverSteps int64
	// QueryPanics counts solver queries whose first attempt panicked and was
	// quarantined (converted to Unknown); QueryRetries counts the reduced-
	// budget retries issued for them once their round has run. A panic can
	// only degrade a verdict to Unknown, never flip it — see DESIGN.md §11.
	QueryPanics  int
	QueryRetries int
	// StaticQueriesAvoided counts slice queries skipped because the static
	// pre-pass found the target in a component no output verdict can
	// observe; zero when the pre-pass did not run (DESIGN.md §12).
	StaticQueriesAvoided int
	// Workers records the degree of query parallelism used.
	Workers int
	// Duration is wall-clock analysis time.
	Duration time.Duration
}

// Degradation classifies an Unknown verdict that is a fault-tolerance
// artifact — the analysis was cut short by cancellation, or an output was
// left undecided by a panic-quarantined query — as opposed to a genuine
// budget outcome. It is machine-readable on purpose: consumers (the bench
// checkpoint, the golden-verdict gate) must never have to parse the
// human-oriented Reason string, which wraps and rephrases the underlying
// cause, to tell the two apart.
type Degradation string

// Degradations.
const (
	// DegradedNone marks a genuine analysis outcome.
	DegradedNone Degradation = ""
	// DegradedCanceled marks a verdict cut short by context cancellation.
	DegradedCanceled Degradation = "canceled"
	// DegradedInternal marks a verdict left undecided by a quarantined
	// query panic (or, in the bench runner, an instance-level panic).
	DegradedInternal Degradation = "internal-error"
	// DegradedHardFault marks a verdict lost to a hard fault of an isolated
	// worker process — an OOM kill, a fatal runtime error, or a watchdog
	// SIGKILL of a wedged or over-limit sandbox child (qed2d -sandbox). The
	// analysis itself never produces this value: it is synthesized by the
	// supervisor that observed the worker die. Like every degradation it is
	// never cacheable and never golden-comparable.
	DegradedHardFault Degradation = "hard-fault"
)

// Report is the output of Analyze.
type Report struct {
	Verdict Verdict
	// Counter is set iff Verdict == VerdictUnsafe.
	Counter *CounterExample
	// Reason explains Unknown verdicts.
	Reason string
	// Degraded is non-empty when an Unknown verdict is an artifact of fault
	// tolerance rather than an exhausted budget; see Degradation. Safe and
	// Unsafe verdicts are never degraded — faults only ever move a verdict
	// toward Unknown.
	Degraded Degradation
	Stats    Stats
}

// analysis carries the mutable state of one Analyze call. The solver-step
// budget is an atomic because slice queries of one round run on concurrent
// workers, all drawing from the same global pool; everything else is only
// touched sequentially, by the analysis goroutine (in a round's fold or in
// the baselines).
type analysis struct {
	sys    *r1cs.System
	cfg    Config
	prop   *uniq.Propagator
	report *Report
	// ctx cancels the analysis (never nil; Background when the caller used
	// plain Analyze). Workers check it between queries; the solver checks it
	// inside the step loop.
	ctx      context.Context
	start    time.Time
	deadline time.Time // zero when cfg.Timeout == 0 and ctx has no deadline
	stepsRem atomic.Int64
	// nPanics/nRetries count quarantined query panics and their retries;
	// atomics because the recover boundary runs on helper goroutines.
	// Folded into Stats at the end of the analysis.
	nPanics  atomic.Int64
	nRetries atomic.Int64
	// staticPruned marks, by signal ID, the signals whose slice queries the
	// static pre-pass proved irrelevant to every output verdict (nil when
	// the pass did not run or pruned nothing). Written once before the
	// first round, read-only afterwards.
	staticPruned []bool
	// span is the root "core.analyze" span; the observability handles
	// below are nil-safe no-ops when Config.Obs / Config.Metrics are unset.
	span            *obs.Span
	cRounds         *obs.Counter
	cConfirmAttempt *obs.Counter
	cConfirmOK      *obs.Counter
	cPanics         *obs.Counter
	cRetries        *obs.Counter
	cUnrun          *obs.Counter
	hSliceCons      *obs.Histogram
	hSliceSigs      *obs.Histogram
}

// Analyze runs the configured analysis on the system.
func Analyze(sys *r1cs.System, cfg *Config) *Report {
	return AnalyzeContext(context.Background(), sys, cfg)
}

// AnalyzeContext is Analyze under a context. Cancellation aborts the
// analysis at the next query boundary — and inside running solver calls,
// which poll the context every few solver steps — yielding VerdictUnknown
// with Reason "canceled"; conclusions already established (a Safe proof or
// a confirmed counterexample) are still reported. A ctx deadline is unified
// with Config.Timeout into a single wall-clock bound, so whichever is
// earlier governs the whole analysis.
func AnalyzeContext(ctx context.Context, sys *r1cs.System, cfg *Config) *Report {
	if ctx == nil {
		ctx = context.Background()
	}
	c := cfg.withDefaults()
	a := &analysis{
		sys:    sys,
		cfg:    c,
		ctx:    ctx,
		start:  time.Now(),
		report: &Report{},
	}
	a.stepsRem.Store(c.GlobalSteps)
	if c.Timeout > 0 {
		a.deadline = a.start.Add(c.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (a.deadline.IsZero() || d.Before(a.deadline)) {
		a.deadline = d
	}
	a.report.Stats.SignalsTotal = sys.NumSignals()
	a.report.Stats.Outputs = len(sys.Outputs())
	a.report.Stats.Constraints = sys.NumConstraints()
	a.report.Stats.Workers = c.Workers

	a.span = c.Obs.Start(c.ObsParent, "core.analyze",
		obs.KV("mode", c.Mode.String()), obs.KV("workers", c.Workers),
		obs.KV("signals", sys.NumSignals()), obs.KV("constraints", sys.NumConstraints()))
	a.cRounds = c.Metrics.Counter("core.rounds")
	a.cConfirmAttempt = c.Metrics.Counter("core.confirm.attempts")
	a.cConfirmOK = c.Metrics.Counter("core.confirm.ok")
	a.cPanics = c.Metrics.Counter("core.query.panics")
	a.cRetries = c.Metrics.Counter("core.query.retries")
	a.cUnrun = c.Metrics.Counter("core.queries_unrun")
	a.hSliceCons = c.Metrics.Histogram("core.slice.constraints")
	a.hSliceSigs = c.Metrics.Histogram("core.slice.signals")

	uopts := uniq.Options{DisableSolve: c.DisableSolveRule, DisableBits: c.DisableBitsRule, Metrics: c.Metrics}
	switch c.Mode {
	case ModePropagationOnly:
		a.prop = uniq.NewWithOptions(sys, uopts)
		a.finishPropagationOnly()
	case ModeSMTOnly:
		a.runSMTOnly()
	default:
		a.prop = uniq.NewWithOptions(sys, uopts)
		// Rule-ablation configs skip the pruning pre-pass, and uniq turns
		// R-OneHot off under them: Table 3 and Figure 4 measure the paper's
		// rules alone, with every slice query issued.
		if !c.DisableSolveRule && !c.DisableBitsRule {
			a.runStaticPrePass()
			a.emitProgress("static", 0, 0, "")
		}
		a.runFull()
	}
	// Cancellation wins over whatever reason wording the loops assembled: an
	// Unknown verdict out of a canceled analysis is a degradation artifact
	// (re-running may well decide it), no matter which undecided output or
	// budget phrase was captured first.
	if a.report.Verdict == VerdictUnknown && a.ctx.Err() != nil {
		a.report.Degraded = DegradedCanceled
	}
	a.report.Stats.Duration = time.Since(a.start)
	a.report.Stats.QueryPanics = int(a.nPanics.Load())
	a.report.Stats.QueryRetries = int(a.nRetries.Load())
	if a.prop != nil {
		counts := a.prop.CountByRule()
		a.report.Stats.PropagationUnique = counts[uniq.RuleSolve] + counts[uniq.RuleBits] + counts[uniq.RuleOneHot]
		a.report.Stats.BitsUnique = counts[uniq.RuleBits]
		a.report.Stats.SMTUnique = counts[uniq.RuleExternal]
		a.report.Stats.UniqueTotal = a.prop.NumUnique()
	}
	a.span.End(
		obs.KV("verdict", a.report.Verdict.String()),
		obs.KV("queries", a.report.Stats.Queries),
		obs.KV("solver_steps", a.report.Stats.SolverSteps),
		obs.KV("unique_total", a.report.Stats.UniqueTotal))
	a.emitProgress("done", 0, 0, a.report.Verdict.String())
	return a.report
}

// emitProgress reports one milestone through Config.Progress (no-op when
// the hook is unset). Only called from the sequential analysis goroutine.
func (a *analysis) emitProgress(phase string, round, tasks int, verdict string) {
	if a.cfg.Progress == nil {
		return
	}
	ev := ProgressEvent{
		Phase:       phase,
		Round:       round,
		Tasks:       tasks,
		Queries:     a.report.Stats.Queries,
		SolverSteps: a.report.Stats.SolverSteps,
		Verdict:     verdict,
	}
	if a.prop != nil {
		ev.UniqueTotal = a.prop.NumUnique()
	}
	a.cfg.Progress(ev)
}

// outOfBudget reports whether the analysis must stop: global step budget
// exhausted, wall-clock deadline passed, or context canceled.
func (a *analysis) outOfBudget() bool {
	if a.stepsRem.Load() <= 0 {
		return true
	}
	if !a.deadline.IsZero() && !time.Now().Before(a.deadline) {
		return true
	}
	return a.ctx.Err() != nil
}

// stopReason attributes an abort for the Unknown report: cancellation wins
// over the budget wording so callers (and the golden-diff gate) can tell a
// Ctrl-C apart from a genuinely exhausted budget.
func (a *analysis) stopReason(budgetReason string) string {
	if a.ctx.Err() != nil {
		return smt.Canceled
	}
	return budgetReason
}

// reserve atomically takes up to QuerySteps from the remaining global
// budget, returning the granted step budget (0 when exhausted). Unused
// steps are returned with refund, so budget accounting is exact and — since
// reservations happen sequentially in canonical signal order at round
// dispatch — deterministic regardless of worker count.
func (a *analysis) reserve() int64 { return a.reserveN(a.cfg.QuerySteps) }

// reserveN is reserve with an explicit grant ceiling (the quarantine retry
// path asks for a reduced budget).
func (a *analysis) reserveN(want int64) int64 {
	for {
		rem := a.stepsRem.Load()
		if rem <= 0 {
			return 0
		}
		grant := want
		if grant > rem {
			grant = rem
		}
		if a.stepsRem.CompareAndSwap(rem, rem-grant) {
			return grant
		}
	}
}

// refund returns unused reserved steps to the global pool. n may be
// negative (a query's final step check can overshoot its grant by one).
func (a *analysis) refund(n int64) { a.stepsRem.Add(n) }

func (a *analysis) finishPropagationOnly() {
	if a.prop.OutputsUnique() {
		a.report.Verdict = VerdictSafe
		return
	}
	a.report.Verdict = VerdictUnknown
	a.report.Reason = "propagation rules left outputs unresolved (this mode cannot produce counterexamples)"
}

// runFull is the QED² loop: propagate, prove unknowns one round of slice
// queries at a time, and confirm candidate counterexamples on the full
// circuit. Each round snapshots the unique set, admits the queries for every
// still-unknown signal, and folds their outcomes in canonical signal order
// as they finish, so the outcome is independent of the worker count and of
// which query finishes first. A confirmed witness pair ends the round and
// the analysis; the queries after it are never solved.
// A signal is not re-asked while stale: lastTried[s] counts s's slice
// signals known unique at its last settled query, and since the unique set
// only grows, an equal count means the same query (DESIGN.md §8).
func (a *analysis) runFull() {
	a.sys.PrepareConcurrent()
	lastTried := map[int]int{}
	round := 0
	for {
		if a.prop.OutputsUnique() {
			a.report.Verdict = VerdictSafe
			return
		}
		if a.outOfBudget() {
			a.report.Verdict = VerdictUnknown
			a.report.Reason = a.stopReason("analysis budget exhausted")
			return
		}
		snap := a.prop.Snapshot()
		var tasks []*queryTask
		for _, s := range a.prop.Unknown() {
			if a.skipPruned(s) {
				continue // no output verdict can observe this signal
			}
			sl := a.sys.SliceAround(s, a.cfg.SliceRadius, maxSliceConstraints)
			known := 0
			for _, v := range sl.Signals {
				if snap.IsUnique(v) {
					known++
				}
			}
			if n, ok := lastTried[s]; ok && n == known {
				continue // settled, and nothing new in its slice since
			}
			t := &queryTask{
				sig:   s,
				cons:  sl.Constraints,
				full:  len(sl.Constraints) == a.sys.NumConstraints(),
				known: known,
			}
			a.admit(t, len(sl.Signals))
			tasks = append(tasks, t)
		}
		if len(tasks) == 0 {
			a.finalOutputsStage()
			return
		}
		round++
		a.cRounds.Inc()
		rs := a.cfg.Obs.Start(a.span, "core.round",
			obs.KV("round", round), obs.KV("tasks", len(tasks)))
		before := a.prop.NumUnique()
		confirmed := a.runRound(tasks, snap.IsUnique, func(t *queryTask) bool {
			a.accountTask(t)
			if t.ran && settled(t.out) {
				lastTried[t.sig] = t.known
			}
			if t.out.Status == smt.StatusUnsat {
				a.prop.AddUniqueExternal(t.sig)
				return false
			}
			// A SAT answer on the FULL constraint set is conclusive
			// non-uniqueness of t.sig; for outputs that ends the analysis.
			return t.out.Status == smt.StatusSat && t.full &&
				a.sys.Signal(t.sig).Kind == r1cs.KindOutput &&
				a.confirmCounterexample(t.sig, t.out.Model)
		})
		ran, unrun := tally(tasks)
		attrs := []obs.Attr{obs.KV("new_unique", a.prop.NumUnique()-before),
			obs.KV("ran", ran), obs.KV("unrun", unrun)}
		if confirmed {
			rs.End(append(attrs, obs.KV("confirmed", true))...)
			return
		}
		rs.End(attrs...)
		a.emitProgress("round", round, len(tasks), "")
		if a.prop.NumUnique() == before {
			// Slices are exhausted: decide the remaining outputs globally.
			a.finalOutputsStage()
			return
		}
	}
}

// allConstraints lists every constraint index, the constraint set of a
// whole-circuit query.
func (a *analysis) allConstraints() []int {
	all := make([]int, a.sys.NumConstraints())
	for i := range all {
		all[i] = i
	}
	return all
}

// finalOutputsStage runs whole-circuit queries for every output still
// unknown, confirming counterexamples or proving uniqueness outright. Like
// the slice loop it proceeds in rounds: outputs proven unique in one round
// enlarge the shared set, which can make the remaining outputs' queries
// tractable in the next (so, unlike a slice round, no query is stale).
func (a *analysis) finalOutputsStage() {
	fs := a.cfg.Obs.Start(a.span, "core.final_outputs")
	defer func() { fs.End(obs.KV("verdict", a.report.Verdict.String())) }()
	allCons := a.allConstraints()
	var reason string
	var degraded Degradation
	round := 0
	for {
		if a.prop.OutputsUnique() {
			a.report.Verdict = VerdictSafe
			return
		}
		snap := a.prop.Snapshot()
		var tasks []*queryTask
		for _, o := range a.sys.Outputs() {
			if snap.IsUnique(o) {
				continue
			}
			t := &queryTask{sig: o, cons: allCons, full: true}
			a.admit(t, a.sys.NumSignals())
			tasks = append(tasks, t)
		}
		if len(tasks) == 0 {
			break
		}
		if a.outOfBudget() {
			a.report.Verdict = VerdictUnknown
			a.report.Reason = a.stopReason("analysis budget exhausted before deciding all outputs")
			return
		}
		round++
		before := a.prop.NumUnique()
		confirmed := a.runRound(tasks, snap.IsUnique, func(t *queryTask) bool {
			a.accountTask(t)
			switch t.out.Status {
			case smt.StatusUnsat:
				a.prop.AddUniqueExternal(t.sig)
			case smt.StatusSat:
				if a.confirmCounterexample(t.sig, t.out.Model) {
					return true
				}
				// Deterministic internal inconsistency, not a transient
				// fault: re-running reproduces it, so it is not degraded.
				reason = "solver model failed confirmation (internal)"
				degraded = DegradedNone
			default:
				if reason == "" {
					reason = fmt.Sprintf("output %s undecided: %s", a.sys.Name(t.sig), t.out.Reason)
					degraded = outcomeDegradation(t.out)
				}
			}
			return false
		})
		if confirmed {
			return
		}
		a.emitProgress("final", round, len(tasks), "")
		if a.prop.NumUnique() == before {
			break
		}
	}
	if a.prop.OutputsUnique() {
		a.report.Verdict = VerdictSafe
		return
	}
	a.report.Verdict = VerdictUnknown
	if reason == "" {
		reason = "outputs undecided"
	}
	a.report.Reason = reason
	a.report.Degraded = degraded
}

// runSMTOnly is the monolithic baseline: one full-circuit query per output,
// sharing only the inputs between the two copies. Each query is a
// single-task round, so outputs draw on the global budget in output order.
func (a *analysis) runSMTOnly() {
	shared := map[int]bool{r1cs.OneID: true}
	for _, in := range a.sys.Inputs() {
		shared[in] = true
	}
	isShared := func(v int) bool { return shared[v] }
	allCons := a.allConstraints()
	undecided := ""
	var degraded Degradation
	safe := true
	for _, o := range a.sys.Outputs() {
		if a.outOfBudget() {
			safe = false
			undecided = a.stopReason("analysis budget exhausted")
			// Keep the flag paired with the reason; the ctx-canceled case is
			// restored by AnalyzeContext's cancellation-wins classification.
			degraded = DegradedNone
			break
		}
		t := &queryTask{sig: o, cons: allCons, full: true}
		a.admit(t, a.sys.NumSignals())
		confirmed := a.runRound([]*queryTask{t}, isShared, func(*queryTask) bool {
			a.accountTask(t)
			switch t.out.Status {
			case smt.StatusUnsat:
				// output unique
			case smt.StatusSat:
				if a.confirmCounterexample(o, t.out.Model) {
					return true
				}
				safe = false
				undecided = "solver model failed confirmation (internal)"
				degraded = DegradedNone
			default:
				safe = false
				if undecided == "" {
					undecided = fmt.Sprintf("output %s undecided: %s", a.sys.Name(o), t.out.Reason)
					degraded = outcomeDegradation(t.out)
				}
			}
			return false
		})
		if confirmed {
			return
		}
	}
	if safe {
		a.report.Verdict = VerdictSafe
		return
	}
	a.report.Verdict = VerdictUnknown
	a.report.Reason = undecided
	a.report.Degraded = degraded
}

// confirmCounterexample turns a SAT model of a full-circuit query into a
// checked witness pair; it returns true (and finalizes the report) only if
// both witnesses satisfy every constraint, agree on the inputs, and differ
// on the target output.
func (a *analysis) confirmCounterexample(target int, model smt.Model) bool {
	a.cConfirmAttempt.Inc()
	cs := a.cfg.Obs.Start(a.span, "core.confirm", obs.KV("sig", target))
	ok := a.confirmWitnessPair(target, model)
	if ok {
		a.cConfirmOK.Inc()
	}
	cs.End(obs.KV("ok", ok))
	return ok
}

// confirmWitnessPair does the checking behind confirmCounterexample.
func (a *analysis) confirmWitnessPair(target int, model smt.Model) bool {
	n := a.sys.NumSignals()
	w1 := a.sys.NewWitness()
	w2 := a.sys.NewWitness()
	sharedOf := func(v int) bool {
		if a.prop != nil {
			return a.prop.IsUnique(v)
		}
		return v == r1cs.OneID || a.sys.Signal(v).Kind == r1cs.KindInput
	}
	for id := 1; id < n; id++ {
		w1[id] = model.Eval(id)
		if sharedOf(id) {
			w2[id] = model.Eval(id)
		} else {
			w2[id] = model.Eval(id + n)
		}
	}
	if err := a.sys.CheckWitness(w1); err != nil {
		return false
	}
	if err := a.sys.CheckWitness(w2); err != nil {
		return false
	}
	if !r1cs.AgreeOn(w1, w2, a.sys.Inputs()) {
		return false
	}
	if w1[target] == w2[target] {
		return false
	}
	a.report.Verdict = VerdictUnsafe
	a.report.Counter = &CounterExample{W1: w1, W2: w2, Signal: target}
	return true
}
