package core

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/smt"
	"qed2/internal/uniq"
)

// The parallel slice-query engine.
//
// The QED² inner loop issues one two-copy uniqueness query per unknown
// signal; queries of one round are independent (they all read the same
// uniqueness snapshot), so they are dispatched to a pool of Config.Workers
// goroutines and their results are applied at a barrier in canonical signal
// order. Three properties keep the analysis deterministic for any worker
// count:
//
//  1. solver seeds derive from the target signal ID, not from a global
//     query sequence number that would depend on completion order;
//  2. the shared global step budget is reserved per query at dispatch time,
//     sequentially in canonical order, and unused steps are refunded at the
//     barrier — so which query gets how much budget never depends on timing;
//  3. uniqueness facts, counterexample confirmations and statistics are
//     folded in sequentially at the barrier.
//
// The only nondeterminism left is the wall-clock deadline: a timeout can cut
// different queries short on different runs, which is inherent to wall-clock
// budgets.

// queryTask is one uniqueness query scheduled in a round.
type queryTask struct {
	// sig is the target signal; cons the constraint subset of the query.
	sig  int
	cons []int
	// full reports whether cons covers the entire system (making SAT
	// answers conclusive).
	full bool
	// key is the slice-signature cache key ("" when the task was answered
	// from the cache or skipped before dispatch).
	key string
	// budget is the reserved solver-step grant.
	budget int64
	// ran reports whether the solver was actually invoked (false for cache
	// hits and for tasks skipped on budget or deadline exhaustion).
	ran bool
	// cached reports whether out came from the memo cache.
	cached bool
	// panicked reports that the query crashed a worker and was quarantined
	// to Unknown; such tasks get one degrade-and-retry attempt at the
	// barrier (see retryQuarantined).
	panicked bool
	out      smt.Outcome
}

// querySeed derives the solver seed for a query targeting sig. Deriving
// from the signal ID (instead of a global query counter) keeps probing
// deterministic under parallel dispatch: the same signal gets the same
// seed no matter when — or on which worker — its query runs.
func (a *analysis) querySeed(sig int) int64 {
	h := uint64(sig+1) * 0x9E3779B97F4A7C15 // Fibonacci hashing; spreads nearby IDs
	h ^= h >> 29
	return a.cfg.Seed ^ int64(h>>1)
}

// sliceKey builds the memo-cache signature of a query: the target, the
// constraint subset, and the shared/unshared mask of every signal the
// query mentions. Two queries with equal signatures are structurally
// identical problems and must have equal outcomes.
//
// Cached outcomes are replayed verbatim, models included, with no variable
// remapping — which is sound precisely because the signature pins the
// target signal ID and the slice is a deterministic function of the
// target. Two structurally isomorphic slices over *disjoint* signal ranges
// (the same gadget instantiated twice) get different signatures, so a
// model over one range can never be replayed for the other; see
// TestCacheKeysIsomorphicDisjointSlices.
func sliceKey(sig int, cons []int, sigs []int, snap *uniq.Snapshot) string {
	var b strings.Builder
	b.Grow(16 + len(sigs))
	// The constraint subset is determined by (target, len) here: slices are
	// a deterministic function of the target, and the only other caller
	// passes the full system. The length disambiguates the two.
	b.WriteString(strconv.Itoa(sig))
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(len(cons)))
	b.WriteByte(':')
	for _, v := range sigs {
		if snap.IsUnique(v) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// admit prepares a task for dispatch: it consults the memo cache and, on a
// miss, reserves the task's step budget. Called sequentially in canonical
// signal order, which makes budget assignment deterministic.
func (a *analysis) admit(t *queryTask, sigs []int, snap *uniq.Snapshot) {
	key := sliceKey(t.sig, t.cons, sigs, snap)
	if out, ok := a.cache[key]; ok {
		t.cached = true
		t.out = out
		return
	}
	t.budget = a.reserve()
	if t.budget <= 0 {
		t.out = smt.Outcome{Status: smt.StatusUnknown, Reason: "global budget exhausted"}
		return
	}
	t.key = key
	a.cCacheMisses.Inc()
	a.hSliceCons.Observe(int64(len(t.cons)))
	a.hSliceSigs.Observe(int64(len(sigs)))
}

// internalErrPrefix prefixes the Reason of outcomes fabricated by the
// panic-quarantine boundary (runQuery, and the bench runner's instance
// boundary). It is the vocabulary outcomeDegradation classifies on, so the
// composer and the classifier can never drift apart.
const internalErrPrefix = "internal error"

// outcomeDegradation classifies one query outcome against the reason
// vocabulary this package and smt emit: exactly smt.Canceled for
// cancellation, the quarantine prefix for recovered panics. It runs on the
// raw outcome reason — before the report loops wrap it into a human-readable
// "output X undecided: …" phrase — so rewording a report can never defeat
// the classification.
func outcomeDegradation(out smt.Outcome) Degradation {
	if out.Status != smt.StatusUnknown {
		return DegradedNone
	}
	switch {
	case out.Reason == smt.Canceled:
		return DegradedCanceled
	case strings.HasPrefix(out.Reason, internalErrPrefix):
		return DegradedInternal
	}
	return DegradedNone
}

// runQuery invokes the solver for one query inside the per-query fault
// boundary: a panic anywhere in problem construction or solving is recovered
// into an Unknown outcome with reason "internal error: …" (with a truncated
// stack captured as an obs event) instead of crashing the worker — and by
// extension the whole analysis. A panicked query can only ever degrade the
// verdict to unknown: safe needs a sound UNSAT proof and unsafe needs a
// checked counterexample, neither of which a crashed attempt can produce.
func (a *analysis) runQuery(build func() *smt.Problem, sig, consLen int, full bool, grant, seed int64) (out smt.Outcome, panicked bool) {
	qs := a.cfg.Obs.Start(a.span, "core.query",
		obs.KV("sig", sig), obs.KV("cons", consLen), obs.KV("full", full))
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			a.nPanics.Add(1)
			a.cPanics.Inc()
			a.cfg.Obs.Event(a.span, "core.query.panic",
				obs.KV("sig", sig), obs.KV("panic", fmt.Sprint(r)),
				obs.KV("stack", truncStack(debug.Stack())))
			out = smt.Outcome{Status: smt.StatusUnknown, Reason: fmt.Sprintf("%s: %v", internalErrPrefix, r)}
		}
		// End the span here so a panic cannot leave it unbalanced.
		qs.End(obs.KV("status", out.Status.String()), obs.KV("steps", out.Steps))
	}()
	if faultinject.Enabled() {
		faultinject.Check("core.query")
	}
	out = smt.Solve(build(), &smt.Options{
		MaxSteps: grant,
		Seed:     seed,
		Deadline: a.deadline,
		Ctx:      a.ctx,
		Obs:      a.cfg.Obs,
		Parent:   qs,
		Metrics:  a.cfg.Metrics,
	})
	return out, false
}

// truncStack caps a panic stack trace for trace-event payloads.
func truncStack(s []byte) string {
	const max = 2048
	if len(s) > max {
		s = s[:max]
	}
	return string(s)
}

const (
	// retryBudgetShrink divides the standard query grant for the single
	// degrade-and-retry attempt after a panic quarantine.
	retryBudgetShrink = 4
	// retrySeedPerturb XORs the query seed on retry so the second attempt
	// takes a different probe path than the one that crashed.
	retrySeedPerturb = 0x5DEECE66D
)

// retryOnce re-runs a quarantined (panicked) query once with a reduced step
// budget and a perturbed seed. When the retry also panics — or no budget
// remains — the quarantined Unknown outcome stands. The crashed attempt's
// own step consumption is unknowable, so its grant was refunded in full;
// the retry accounts its steps normally.
func (a *analysis) retryOnce(build func() *smt.Problem, sig, consLen int, full bool, quarantined smt.Outcome) smt.Outcome {
	if a.outOfBudget() {
		return quarantined
	}
	grant := a.reserveN(a.cfg.QuerySteps / retryBudgetShrink)
	if grant <= 0 {
		return quarantined
	}
	a.nRetries.Add(1)
	a.cRetries.Inc()
	out, panicked := a.runQuery(build, sig, consLen, full, grant, a.querySeed(sig)^retrySeedPerturb)
	a.refund(grant - out.Steps)
	if panicked {
		return quarantined
	}
	return out
}

// retryQuarantined gives each panicked task of a round its single
// degrade-and-retry attempt. Runs sequentially at the barrier in canonical
// order, so the reduced-budget reservations stay deterministic.
func (a *analysis) retryQuarantined(pending []*queryTask, snap *uniq.Snapshot) {
	for _, t := range pending {
		if !t.panicked {
			continue
		}
		t.out = a.retryOnce(func() *smt.Problem {
			return buildUniquenessProblem(a.sys, t.cons, snap.IsUnique, t.sig)
		}, t.sig, len(t.cons), t.full, t.out)
	}
}

// runRound solves every admitted task on the worker pool and blocks until
// the round is complete. Workers only read immutable state (the system, the
// snapshot) plus the atomic budget; all mutable analysis state is folded in
// afterwards by the caller. Each query runs inside runQuery's panic
// boundary; quarantined tasks get one reduced-budget retry after the
// barrier.
func (a *analysis) runRound(tasks []*queryTask, snap *uniq.Snapshot) {
	var pending []*queryTask
	for _, t := range tasks {
		if !t.cached && t.budget > 0 {
			pending = append(pending, t)
		}
	}
	if len(pending) == 0 {
		return
	}
	workers := a.cfg.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				t := pending[i]
				if a.ctx.Err() != nil {
					a.refund(t.budget)
					t.out = smt.Outcome{Status: smt.StatusUnknown, Reason: smt.Canceled}
					a.cfg.Obs.Event(a.span, "core.query.skipped",
						obs.KV("sig", t.sig), obs.KV("reason", smt.Canceled))
					continue
				}
				if !a.deadline.IsZero() && !time.Now().Before(a.deadline) {
					a.refund(t.budget)
					t.out = smt.Outcome{Status: smt.StatusUnknown, Reason: smt.DeadlineExceeded}
					a.cfg.Obs.Event(a.span, "core.query.skipped",
						obs.KV("sig", t.sig), obs.KV("reason", smt.DeadlineExceeded))
					continue
				}
				t.out, t.panicked = a.runQuery(func() *smt.Problem {
					return buildUniquenessProblem(a.sys, t.cons, snap.IsUnique, t.sig)
				}, t.sig, len(t.cons), t.full, t.budget, a.querySeed(t.sig))
				t.ran = true
				a.refund(t.budget - t.out.Steps)
			}
		}()
	}
	wg.Wait()
	a.retryQuarantined(pending, snap)
}

// accountTask folds one completed task into the statistics and the memo
// cache. Called sequentially at the round barrier.
func (a *analysis) accountTask(t *queryTask) {
	if t.cached {
		a.report.Stats.CacheHits++
		a.cCacheHits.Inc()
		a.cfg.Obs.Event(a.span, "core.cache_hit", obs.KV("sig", t.sig))
		return
	}
	if !t.ran {
		return // skipped on budget, deadline, or cancellation
	}
	a.report.Stats.Queries++
	a.report.Stats.SolverSteps += t.out.Steps
	if t.key != "" && cacheable(t.out) {
		a.cache[t.key] = t.out
	}
}

// cacheable decides what the memo cache may retain. Decided outcomes (SAT
// with a checked model, proven UNSAT) always replay safely. Unknowns are
// split: a deterministic unknown — the search exhausted its patterns and
// enumeration without hitting any resource limit — replays identically for
// the same problem, but a *resource-limited* unknown (step budget,
// deadline, cancellation, injected fault) only describes the grant it ran
// under. Caching one would let a budget-starved first query poison a
// well-funded re-query of the same slice signature forever; see
// TestCacheDoesNotReplayResourceLimitedUnknowns. Quarantine products
// ("internal …") are likewise transient and never retained.
func cacheable(out smt.Outcome) bool {
	if out.Status != smt.StatusUnknown {
		return true
	}
	return !out.ResourceLimited && !strings.HasPrefix(out.Reason, "internal")
}
