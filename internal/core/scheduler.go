package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/smt"
)

// The parallel slice-query engine.
//
// The QED² inner loop issues one two-copy uniqueness query per unknown
// signal; queries of one round are independent (they all read the same
// uniqueness snapshot), so they are solved by the calling goroutine plus
// Config.Workers−1 helpers, and their outcomes are folded into the analysis
// in canonical signal order as they finish. The fold stops the round at the
// first conclusive outcome (a confirmed witness pair), so no query after it
// is solved or accounted. Three properties keep the analysis deterministic
// for any worker count:
//
//  1. solver seeds derive from the target signal ID, not from a global
//     query sequence number that would depend on completion order;
//  2. the shared global step budget is reserved per query at admission,
//     sequentially in canonical order, and unused steps are refunded as
//     each query finishes — so which query gets how much budget never
//     depends on timing;
//  3. uniqueness facts, counterexample confirmations and statistics are
//     folded in sequentially, in canonical order, by the calling goroutine,
//     so the fold reads the same outcomes and stops at the same task
//     whichever worker solved them.
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
	// known counts the slice's signals known unique at admission (the
	// staleness count runFull records once the outcome is settled).
	known int
	// budget is the reserved solver-step grant.
	budget int64
	// ran reports whether the solver was actually invoked (false for tasks
	// skipped on budget or deadline exhaustion).
	ran bool
	// panicked reports that the query crashed a worker and was quarantined
	// to Unknown; such tasks get one degrade-and-retry attempt once the
	// whole round has run (see retryOnce).
	panicked bool
	out      smt.Outcome
	// done is set once out is final; it publishes a helper's outcome to
	// the folding goroutine.
	done atomic.Bool
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

// admit reserves the task's step budget. Called sequentially in canonical
// signal order, which makes budget assignment deterministic; nSigs is the
// number of signals the query mentions.
func (a *analysis) admit(t *queryTask, nSigs int) {
	t.budget = a.reserve()
	if t.budget <= 0 {
		t.out = smt.Outcome{Status: smt.StatusUnknown, Reason: "global budget exhausted"}
		return
	}
	a.hSliceCons.Observe(int64(len(t.cons)))
	a.hSliceSigs.Observe(int64(nSigs))
}

// internalErrPrefix prefixes the Reason of outcomes fabricated by the
// panic-quarantine boundary (runQuery) and of InternalError reports. It is
// the vocabulary outcomeDegradation and settled classify on, so the
// composers and the classifiers can never drift apart.
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

// runQuery invokes the solver for one task inside the per-query fault
// boundary: a panic anywhere in problem construction or solving is recovered
// into an Unknown outcome with reason "internal error: …" (with a truncated
// stack captured as an obs event) instead of crashing the worker — and by
// extension the whole analysis. A panicked query can only ever degrade the
// verdict to unknown: safe needs a sound UNSAT proof and unsafe needs a
// checked counterexample, neither of which a crashed attempt can produce.
// isShared marks the signals both copies of the query share; ctx cancels the
// solve (the round's context, which is canceled once the round is decided).
func (a *analysis) runQuery(ctx context.Context, t *queryTask, isShared func(int) bool, grant, seed int64) (out smt.Outcome, panicked bool) {
	qs := a.cfg.Obs.Start(a.span, "core.query",
		obs.KV("sig", t.sig), obs.KV("cons", len(t.cons)), obs.KV("full", t.full), obs.KV("grant", grant))
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			a.nPanics.Add(1)
			a.cPanics.Inc()
			a.cfg.Obs.Event(a.span, "core.query.panic",
				obs.KV("sig", t.sig), obs.KV("panic", fmt.Sprint(r)),
				obs.KV("stack", truncStack(debug.Stack())))
			out = smt.Outcome{Status: smt.StatusUnknown, Reason: fmt.Sprintf("%s: %v", internalErrPrefix, r)}
		}
		// End the span here so a panic cannot leave it unbalanced.
		qs.End(obs.KV("status", out.Status.String()), obs.KV("steps", out.Steps))
	}()
	if faultinject.Enabled() {
		faultinject.Check("core.query")
	}
	out = smt.Solve(buildUniquenessProblem(a.sys, t.cons, isShared, t.sig), &smt.Options{
		MaxSteps: grant,
		Seed:     seed,
		Deadline: a.deadline,
		Ctx:      ctx,
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

// retryOnce re-runs a quarantined (panicked) task once with a reduced step
// budget and a perturbed seed. When the retry also panics — or no budget
// remains — the quarantined Unknown outcome t.out stands. The crashed
// attempt's own step consumption is unknowable, so its grant was refunded in
// full; the retry accounts its steps normally.
func (a *analysis) retryOnce(t *queryTask, isShared func(int) bool) smt.Outcome {
	if a.outOfBudget() {
		return t.out
	}
	grant := a.reserveN(a.cfg.QuerySteps / retryBudgetShrink)
	if grant <= 0 {
		return t.out
	}
	a.nRetries.Add(1)
	a.cRetries.Inc()
	out, panicked := a.runQuery(a.ctx, t, isShared, grant, a.querySeed(t.sig)^retrySeedPerturb)
	a.refund(grant - out.Steps)
	if panicked {
		return t.out
	}
	return out
}

// runRound solves the admitted tasks and folds their outcomes into the
// analysis in canonical order as they finish; isShared marks the signals
// both copies of every query share. The calling goroutine does the folding
// and, while the next task to fold is still running elsewhere, solves
// unstarted tasks itself; Workers−1 helper goroutines claim tasks from the
// same canonical-order queue, so at Workers=1 no goroutine is spawned and
// the caller solves every task just before folding it. Helpers only read
// immutable state (the system, the shared set) plus the atomic budget; all
// mutable analysis state is touched by fold alone.
//
// Once fold returns true the round is decided: no further task is handed
// out, tasks still running on helpers are canceled through a round-scoped
// context, their outcomes are never read, and runRound returns true. Each
// query runs inside runQuery's panic boundary. When the fold reaches the
// first quarantined task, every remaining task is run and waited for, and
// the quarantined ones among them get one reduced-budget retry in canonical
// order, so retry grants do not depend on the worker count.
func (a *analysis) runRound(tasks []*queryTask, isShared func(int) bool, fold func(*queryTask) (stop bool)) (stopped bool) {
	ctx, cancel := context.WithCancel(a.ctx)
	defer cancel()
	r := &round{a: a, tasks: tasks, isShared: isShared, ctx: ctx}
	var wg sync.WaitGroup
	if helpers := min(a.cfg.Workers, len(tasks)) - 1; helpers > 0 {
		r.finished = make(chan struct{}, len(tasks))
		for w := 0; w < helpers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := r.claim(); t != nil; t = r.claim() {
					r.run(t)
					r.finished <- struct{}{}
				}
			}()
		}
	}
	retried := false
	for i, t := range tasks {
		r.await(t)
		if t.panicked && !retried {
			for _, u := range tasks[i:] {
				r.await(u)
			}
			for _, u := range tasks[i:] {
				if u.panicked {
					u.out = a.retryOnce(u, isShared)
				}
			}
			retried = true
		}
		if fold(t) {
			r.stop.Store(true)
			cancel()
			wg.Wait()
			for _, u := range tasks[i+1:] {
				if u.budget > 0 && !u.done.Load() {
					a.refund(u.budget) // never handed out
				}
			}
			_, unrun := tally(tasks)
			a.cUnrun.Add(int64(unrun))
			return true
		}
	}
	wg.Wait()
	return false
}

// round is the shared state of one runRound call.
type round struct {
	a        *analysis
	tasks    []*queryTask
	isShared func(int) bool
	// ctx is canceled once the round is decided, stopping the queries
	// still running on helpers.
	ctx context.Context
	// next indexes the next task to hand out; stop ends the handing out.
	next atomic.Int64
	stop atomic.Bool
	// finished receives one token per task a helper completes (nil without
	// helpers); await blocks on it only while its task runs on a helper. It
	// is buffered for one token per task, so a helper never blocks on it.
	finished chan struct{}
}

// claim hands out the next unstarted task with a budget grant in canonical
// order, or nil once every task is handed out or the round is decided.
func (r *round) claim() *queryTask {
	for !r.stop.Load() {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.tasks) {
			return nil
		}
		if t := r.tasks[i]; t.budget > 0 {
			return t
		}
	}
	return nil
}

// await returns once t's outcome is final, solving unstarted tasks on the
// calling goroutine while t is still running on a helper. Claims follow
// canonical order, so an unstarted t is reached by the caller's own claims.
func (r *round) await(t *queryTask) {
	for t.budget > 0 && !t.done.Load() {
		if u := r.claim(); u != nil {
			r.run(u)
			continue
		}
		<-r.finished
	}
}

// run solves one claimed task, unless the analysis was canceled or its
// deadline passed, and refunds the unused part of its grant.
func (r *round) run(t *queryTask) {
	a := r.a
	switch {
	case a.ctx.Err() != nil:
		a.skip(t, smt.Canceled)
	case !a.deadline.IsZero() && !time.Now().Before(a.deadline):
		a.skip(t, smt.DeadlineExceeded)
	default:
		t.out, t.panicked = a.runQuery(r.ctx, t, r.isShared, t.budget, a.querySeed(t.sig))
		t.ran = true
		a.refund(t.budget - t.out.Steps)
	}
	t.done.Store(true)
}

// skip answers a task Unknown without solving it and refunds its grant.
func (a *analysis) skip(t *queryTask, reason string) {
	a.refund(t.budget)
	t.out = smt.Outcome{Status: smt.StatusUnknown, Reason: reason}
	a.cfg.Obs.Event(a.span, "core.query.skipped", obs.KV("sig", t.sig), obs.KV("reason", reason))
}

// tally counts, once runRound has returned, the round's tasks that invoked
// the solver and those holding a grant that were never handed out because
// the round was already decided.
func tally(tasks []*queryTask) (ran, unrun int) {
	for _, t := range tasks {
		switch {
		case t.ran:
			ran++
		case t.budget > 0 && !t.done.Load():
			unrun++
		}
	}
	return ran, unrun
}

// accountTask folds one completed task into the statistics. Called by a
// round's fold, sequentially in canonical order, so only tasks before the
// one that decided the round are accounted.
func (a *analysis) accountTask(t *queryTask) {
	if !t.ran {
		return // skipped on budget, deadline, or cancellation
	}
	a.report.Stats.Queries++
	a.report.Stats.SolverSteps += t.out.Steps
}

// settled reports whether an outcome answers its query for good, so that
// re-asking it unchanged would be wasted work. Decided outcomes (SAT with a
// checked model, proven UNSAT) are settled, and so is a deterministic
// unknown — the search exhausted its patterns and enumeration without
// hitting any resource limit. A *resource-limited* unknown (step budget,
// deadline, cancellation, injected fault) only describes the grant it ran
// under, so a well-funded later round must be free to re-ask it. Quarantine
// products (internalErrPrefix) are likewise transient.
func settled(out smt.Outcome) bool {
	if out.Status != smt.StatusUnknown {
		return true
	}
	return !out.ResourceLimited && !strings.HasPrefix(out.Reason, internalErrPrefix)
}
