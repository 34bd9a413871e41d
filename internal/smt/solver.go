package smt

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"time"

	"qed2/internal/faultinject"
	"qed2/internal/ff"
	"qed2/internal/obs"
	"qed2/internal/poly"
)

// Options configures the solver.
type Options struct {
	// MaxSteps bounds the total number of solver steps (propagation actions
	// plus search nodes). Default 200000.
	MaxSteps int64
	// MaxEnumeration: fields with modulus ≤ this bound get complete value
	// enumeration (making UNSAT answers possible on residual hard cores).
	// Default 4096.
	MaxEnumeration uint64
	// ProbeValues is the number of pseudo-random probe values tried per
	// enumerated variable on large fields. Default 8.
	ProbeValues int
	// Seed drives the deterministic probe generator.
	Seed int64
	// Deadline, when nonzero, bounds wall-clock time for this Solve call.
	// The step loop checks it every deadlineCheckEvery steps and aborts with
	// StatusUnknown / reason "deadline exceeded", so a single query can
	// overshoot the deadline by at most one check interval of work.
	Deadline time.Time
	// Ctx, when non-nil, cancels the Solve call: the step loop checks
	// ctx.Done() at the same cadence as the deadline and aborts with
	// StatusUnknown / reason "canceled". A ctx deadline is NOT folded into
	// Deadline here — callers (internal/core) unify the two up front so a
	// single wall-clock bound governs the whole analysis.
	Ctx context.Context
	// Obs, when non-nil, receives one "smt.solve" span per Solve call
	// (child of Parent), carrying the outcome and effort breakdown.
	Obs    *obs.Tracer
	Parent *obs.Span
	// Metrics, when non-nil, receives the smt.* counters and histograms
	// (see DESIGN §10 for the taxonomy).
	Metrics *obs.Metrics
}

// deadlineCheckEvery is the step interval between wall-clock deadline
// checks. Steps vary in cost (a propagation pass over a large system versus
// one enumerated value), so the interval is kept small; time.Now is cheap
// relative to even the lightest step.
const deadlineCheckEvery = 16

// DeadlineExceeded is the Outcome.Reason reported when a Solve call aborts
// because Options.Deadline passed.
const DeadlineExceeded = "deadline exceeded"

// Canceled is the Outcome.Reason reported when a Solve call aborts because
// Options.Ctx was canceled.
const Canceled = "canceled"

// budgetExhausted is the Outcome.Reason for step-budget exhaustion.
const budgetExhausted = "step budget exhausted"

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxSteps == 0 {
		out.MaxSteps = 200_000
	}
	if out.MaxEnumeration == 0 {
		out.MaxEnumeration = 4096
	}
	if out.ProbeValues == 0 {
		out.ProbeValues = 8
	}
	return out
}

// Solve decides the problem within the configured budget.
func Solve(p *Problem, opts *Options) Outcome {
	o := opts.withDefaults()
	var span *obs.Span
	if o.Obs.Enabled() {
		span = o.Obs.Start(o.Parent, "smt.solve",
			obs.KV("eqs", len(p.Eqs)), obs.KV("neqs", len(p.Neqs)), obs.KV("vars", len(p.Vars())))
	}
	out := solveProblem(p, o)
	o.observe(span, out)
	return out
}

// injectSolveFault applies the "smt.solve" chaos hook. Panics propagate to
// the caller's recover boundary (internal/core isolates them per query);
// injected errors and early deadlines come back as a terminal Outcome.
func injectSolveFault() (Outcome, bool) {
	if !faultinject.Enabled() {
		return Outcome{}, false
	}
	switch f := faultinject.Check("smt.solve"); {
	case f.Deadline:
		return Outcome{Status: StatusUnknown, Reason: DeadlineExceeded, ResourceLimited: true}, true
	case f.Err != "":
		return Outcome{Status: StatusUnknown, Reason: f.Err, ResourceLimited: true}, true
	}
	return Outcome{}, false
}

// observe folds one completed Solve call into the span and the metrics
// registry (both optional).
func (o *Options) observe(span *obs.Span, out Outcome) {
	if m := o.Metrics; m != nil {
		m.Counter("smt.queries").Inc()
		m.Counter("smt.steps").Add(out.Steps)
		m.Counter("smt.eliminations").Add(out.Effort.Eliminations)
		m.Counter("smt.branches").Add(out.Effort.Branches)
		m.Counter("smt.enumerations").Add(out.Effort.Enumerations)
		m.Counter("smt.status." + out.Status.String()).Inc()
		if out.Reason == DeadlineExceeded {
			m.Counter("smt.deadline_hits").Inc()
		}
		if out.Reason == budgetExhausted {
			m.Counter("smt.budget_hits").Inc()
		}
		if out.Reason == Canceled {
			m.Counter("smt.cancel_hits").Inc()
		}
		m.Histogram("smt.query.steps").Observe(out.Steps)
		m.Histogram("smt.query.depth").Observe(int64(out.Effort.MaxDepth))
	}
	if span != nil {
		attrs := []obs.Attr{
			obs.KV("status", out.Status.String()),
			obs.KV("steps", out.Steps),
			obs.KV("eliminations", out.Effort.Eliminations),
			obs.KV("branches", out.Effort.Branches),
			obs.KV("enumerations", out.Effort.Enumerations),
			obs.KV("depth", out.Effort.MaxDepth),
		}
		if out.Reason != "" {
			attrs = append(attrs, obs.KV("reason", out.Reason))
		}
		span.End(attrs...)
	}
}

func solveProblem(p *Problem, o Options) Outcome {
	if out, injected := injectSolveFault(); injected {
		return out
	}
	if !o.Deadline.IsZero() && !time.Now().Before(o.Deadline) {
		return Outcome{Status: StatusUnknown, Reason: DeadlineExceeded, ResourceLimited: true}
	}
	s := &solver{f: p.Field, opts: o}
	if o.Ctx != nil {
		if o.Ctx.Err() != nil {
			return Outcome{Status: StatusUnknown, Reason: Canceled, ResourceLimited: true}
		}
		s.done = o.Ctx.Done()
	}
	st := newState(p)
	res, model := s.solve(st, 0)
	return s.outcome(res, model, p)
}

// outcome assembles the Outcome for a finished search of p. A SAT model is
// re-verified against p's original constraints (defensive: a model that
// does not check is a solver bug; better to degrade to Unknown than to
// report a bogus SAT).
func (s *solver) outcome(res resultKind, model Model, p *Problem) Outcome {
	out := Outcome{Steps: s.steps, Effort: s.eff}
	switch res {
	case rSat:
		out.Status = StatusSat
		out.Model = model
		if err := p.Check(model); err != nil {
			out.Status = StatusUnknown
			out.Model = nil
			out.Reason = "internal: model check failed: " + err.Error()
		}
	case rUnsat:
		out.Status = StatusUnsat
	default:
		out.Status = StatusUnknown
		out.Reason = s.reason
		out.ResourceLimited = s.limited
		if out.Reason == "" {
			out.Reason = "search incomplete"
		}
	}
	return out
}

// newState builds the root search state for p: equations deduplicated
// modulo nonzero scaling, freeHint set to the problem's variables. The
// problem's LinCombs are referenced, not copied: poly values are immutable,
// so sharing them with the caller is safe. The expansions the deduplication
// computes become the root equations' memos.
func newState(p *Problem) *state {
	st := &state{f: p.Field, complete: true}
	seen := newQuadSet()
	for _, e := range p.Eqs {
		e.q = expandEq(e)
		if !seen.add(e.q) {
			continue
		}
		st.eqs = append(st.eqs, e)
	}
	st.neqs = append(st.neqs, p.Neqs...)
	st.freeHint = p.Vars()
	return st
}

type resultKind int

const (
	rSat resultKind = iota
	rUnsat
	rUnknown
)

type solver struct {
	f    *ff.Field
	opts Options
	// rng draws enumeration probes; probeRNG creates it on first use, since
	// most queries never enumerate and seeding it is not free.
	rng *rand.Rand
	// invs memoizes field inverses for this Solve call: a query divides by
	// the same few pivot coefficients over and over, and a BN254 inversion
	// costs far more than a map lookup.
	invs   map[ff.Element]ff.Element
	steps  int64
	eff    Effort
	reason string
	// done is Options.Ctx.Done(), cached so the step loop pays one channel
	// poll instead of an interface method call per check.
	done <-chan struct{}
	// halted latches budget/deadline exhaustion so the search loops can
	// abandon their remaining branches without cloning state for each one;
	// unwinding then costs O(depth), keeping a deadline overshoot within one
	// check interval of work.
	halted bool
	// limited records that halting was caused by an exhaustible resource
	// (budget, deadline, cancellation, injected fault); it feeds
	// Outcome.ResourceLimited.
	limited bool
}

func (s *solver) step() bool {
	if s.halted {
		return false
	}
	s.steps++
	if s.steps > s.opts.MaxSteps {
		s.reason = budgetExhausted
		s.halted = true
		s.limited = true
		return false
	}
	if s.steps%deadlineCheckEvery == 0 {
		// Wall-clock bounds, cancellation and the chaos hook share one
		// cadence: a single query overshoots any of them by at most one
		// check interval of work.
		if !s.opts.Deadline.IsZero() && !time.Now().Before(s.opts.Deadline) {
			s.reason = DeadlineExceeded
			s.halted = true
			s.limited = true
			return false
		}
		if s.done != nil {
			select {
			case <-s.done:
				s.reason = Canceled
				s.halted = true
				s.limited = true
				return false
			default:
			}
		}
		if faultinject.Enabled() {
			switch f := faultinject.Check("smt.step"); {
			case f.Deadline:
				s.reason = DeadlineExceeded
				s.halted = true
				s.limited = true
				return false
			case f.Err != "":
				s.reason = f.Err
				s.halted = true
				s.limited = true
				return false
			}
		}
	}
	return true
}

// subEntry is one link of the elimination chain: v := expr, recorded after
// the eliminations of prev. expr never names a variable eliminated earlier
// in the chain (those were substituted out of every constraint before expr
// was read off one), but it may name one eliminated later: completeModel
// evaluates the chain newest first, so such a variable has its value by
// then. Entries are never written after creation, so states share chains.
type subEntry struct {
	v    int
	expr *poly.LinComb
	prev *subEntry
}

type state struct {
	f    *ff.Field
	eqs  []Equation
	neqs []*poly.LinComb
	// subs is the newest link of the elimination chain (nil when empty).
	subs *subEntry
	// complete is false once an incomplete enumeration influenced this
	// branch; UNSAT conclusions then degrade to Unknown.
	complete bool
	// freeHint lists the problem's original variables (model domain).
	freeHint []int
	// derived records that pair derivation ran on this lineage; it runs
	// once, so the difference equations it adds are not derived again.
	derived bool
}

// clone copies the state shallowly: the constraint slices are fresh (both
// sides overwrite elements in place), but the LinComb values, expansion
// memos and the elimination chain they point at are shared, which is safe
// because none of them is ever written after creation.
func (st *state) clone() *state {
	out := *st
	out.eqs = append([]Equation(nil), st.eqs...)
	out.neqs = append([]*poly.LinComb(nil), st.neqs...)
	return &out
}

// addSub eliminates variable v by the linear expression expr (not
// mentioning v), rewriting every constraint; earlier links of the chain
// keep naming v (see subEntry). An equation that does not mention v keeps
// its sides (Substitute returns the receiver) and so its expansion memo;
// one that does is rebuilt without it.
func (st *state) addSub(v int, expr *poly.LinComb) {
	for i := range st.eqs {
		e := &st.eqs[i]
		a, b, c := e.A.Substitute(v, expr), e.B.Substitute(v, expr), e.C.Substitute(v, expr)
		if a != e.A || b != e.B || c != e.C {
			*e = Equation{A: a, B: b, C: c}
		}
	}
	for i := range st.neqs {
		st.neqs[i] = st.neqs[i].Substitute(v, expr)
	}
	st.subs = &subEntry{v: v, expr: expr, prev: st.subs}
}

// assignVar is addSub with a constant.
func (st *state) assignVar(v int, val ff.Element) {
	st.addSub(v, poly.Const(st.f, val))
}

// solve runs propagation + search on st, which it may mutate freely.
func (s *solver) solve(st *state, depth int) (resultKind, Model) {
	if depth > s.eff.MaxDepth {
		s.eff.MaxDepth = depth
	}
	if conflict, ok := s.propagate(st); !ok {
		return rUnknown, nil
	} else if conflict {
		if st.complete {
			return rUnsat, nil
		}
		return rUnknown, nil
	}
	if len(st.eqs) == 0 {
		if m, ok := s.completeModel(st); ok {
			return rSat, m
		}
		if st.complete {
			return rUnsat, nil
		}
		return rUnknown, nil
	}
	if debugNode != nil {
		debugNode(st)
	}
	return s.branch(st, depth)
}

// propagate simplifies to fixpoint. It returns (conflict, withinBudget).
func (s *solver) propagate(st *state) (bool, bool) {
	for {
		if !s.step() {
			return false, false
		}
		// Disequalities first: cheap conflict detection.
		kept := st.neqs[:0]
		for _, n := range st.neqs {
			if n.IsConst() {
				if n.Constant().IsZero() {
					return true, true
				}
				continue // trivially satisfied
			}
			kept = append(kept, n)
		}
		st.neqs = kept

		acted := false
		for i := 0; i < len(st.eqs); i++ {
			e := st.eqs[i]
			lin, isLin, conflict := linearView(st.f, e)
			if conflict {
				return true, true
			}
			if !isLin {
				continue
			}
			// Remove equation i.
			st.eqs = append(st.eqs[:i], st.eqs[i+1:]...)
			if lin == nil {
				// Trivially satisfied.
				acted = true
				break
			}
			v := pickPivot(st, lin)
			expr, _ := lin.SolveFor(v, s.inverse)
			st.addSub(v, expr)
			s.eff.Eliminations++
			acted = true
			break
		}
		if !acted {
			return false, true
		}
	}
}

// linearView reduces an equation to a linear one when possible.
// Returns (lin, isLinear, conflict): isLinear with lin == nil means the
// equation is trivially satisfied; conflict means it is trivially false.
func linearView(f *ff.Field, e Equation) (*poly.LinComb, bool, bool) {
	aConst, aOk := constOf(e.A)
	bConst, bOk := constOf(e.B)
	var lin *poly.LinComb
	switch {
	case aOk && bOk:
		lin = e.C.AddConst(f.Neg(f.Mul(aConst, bConst))).Neg() // a·b − C = 0 → C − a·b = 0 (sign irrelevant)
	case aOk:
		lin = e.B.Scale(aConst).Sub(e.C)
	case bOk:
		lin = e.A.Scale(bConst).Sub(e.C)
	default:
		// Both factors non-constant: never linear. F_p[x] is an integral
		// domain, so the product of the nonzero homogeneous linear parts of
		// A and B is a nonzero quadratic form, and A·B − C keeps it (C is
		// linear and cannot cancel it).
		return nil, false, false
	}
	if lin.IsConst() {
		if !lin.Constant().IsZero() {
			return nil, true, true
		}
		return nil, true, false
	}
	return lin, true, false
}

func constOf(lc *poly.LinComb) (ff.Element, bool) {
	if lc.IsConst() {
		return lc.Constant(), true
	}
	return ff.Element{}, false
}

// pickPivot chooses the elimination variable of a linear equation by the
// Markowitz rule: the variable occurring in the fewest other constraints,
// which keeps substitution fill-in low and leaves structural variables
// (inputs, shared signals) available for the pattern rules. Ties break on
// smallest ID for determinism.
//
// Only equations are tallied, never disequalities, so the elimination
// order depends on the equation system alone: a uniqueness query's
// per-target disequality never changes which variable is eliminated first.
func pickPivot(st *state, lin *poly.LinComb) int {
	vars := lin.Vars()
	if len(vars) == 1 {
		return vars[0]
	}
	// counts[k] tallies vars[k]; both vars and every term list ascend, so
	// each side is one merge walk.
	counts := make([]int, len(vars))
	tally := func(lc *poly.LinComb) {
		k := 0
		lc.VisitTerms(func(v int, _ ff.Element) {
			for k < len(vars) && vars[k] < v {
				k++
			}
			if k < len(vars) && vars[k] == v {
				counts[k]++
			}
		})
	}
	for _, e := range st.eqs {
		tally(e.A)
		tally(e.B)
		tally(e.C)
	}
	best := 0
	for k := range vars {
		if counts[k] < counts[best] {
			best = k
		}
	}
	return vars[best]
}

// branch performs one case split and recurses.
func (s *solver) branch(st *state, depth int) (resultKind, Model) {
	if !s.step() {
		return rUnknown, nil
	}

	// Pattern 0: pairwise differencing. Two equations sharing a product
	// factor imply a zero-product difference — e.g. x·k = c ∧ x′·k = c
	// implies (x − x′)·k = 0, the lemma that decides the two-copy
	// uniqueness queries. The derived equations are logical consequences,
	// so adding them preserves both SAT and UNSAT.
	if s.derivePairs(st) {
		return s.solve(st, depth)
	}

	// Pattern 0b: quadratic cancellation. When the expanded polynomials of
	// two equations differ by a linear form (their quadratic parts are
	// equal), the difference is a new linear equation — Gaussian
	// elimination lifted to the quadratic monomials. Each firing is
	// followed by a variable elimination in propagate, so this terminates.
	if s.deriveQuadDiff(st) {
		return s.solve(st, depth)
	}

	// Pattern 1: proportional factors. If A = k·B for a constant k ≠ 0 the
	// equation k·B² = c rewrites to B² = c/k, so B = ±√(c/k) — a complete
	// two-way linear split, or an immediate conflict when c/k is a
	// non-residue.
	for i, e := range st.eqs {
		c, ok := constOf(e.C)
		if !ok {
			continue
		}
		k, ok := e.A.Ratio(e.B, s.inverse)
		if !ok {
			continue
		}
		st.eqs = append(st.eqs[:i], st.eqs[i+1:]...)
		r, exists := s.f.Sqrt(s.f.Mul(c, s.inverse(k)))
		if !exists {
			if st.complete {
				return rUnsat, nil
			}
			return rUnknown, nil
		}
		if r.IsZero() {
			// B² = 0 ⟺ B = 0: deterministic.
			st.eqs = append(st.eqs, Equation{A: poly.ConstInt(s.f, 1), B: e.B, C: poly.NewLinComb(s.f)})
			return s.solve(st, depth)
		}
		branches := []*poly.LinComb{e.B.AddConst(s.f.Neg(r)), e.B.AddConst(r)}
		return s.splitLinear(st, branches, depth)
	}

	// Pattern 2: single-variable quadratic → explicit roots (complete).
	// After propagation A and B are both non-constant, so by the argument in
	// linearView no variable of A, B or C cancels from A·B − C: the
	// equation is single-variable iff the three sides mention only x.
	for i, e := range st.eqs {
		x, ok := soleVar(e)
		if !ok {
			continue
		}
		q := st.eqs[i].expanded()
		q2 := q.CoeffPair(x, x)
		q1 := q.Lin().Coeff(x)
		q0 := q.Lin().Constant()
		if q2.IsZero() {
			continue // linear; propagate would have caught it, defensive
		}
		st.eqs = append(st.eqs[:i], st.eqs[i+1:]...)
		roots, exists := quadraticRoots(s.f, q2, q1, q0)
		if !exists {
			if st.complete {
				return rUnsat, nil
			}
			return rUnknown, nil
		}
		var branches []*poly.LinComb
		for _, r := range roots {
			branches = append(branches, poly.Var(s.f, x).AddConst(s.f.Neg(r)))
		}
		return s.splitLinear(st, branches, depth)
	}

	// Pattern 3: zero product A·B = 0 → A = 0 ∨ B = 0 (complete).
	for i, e := range st.eqs {
		c, ok := constOf(e.C)
		if !ok || !c.IsZero() {
			continue
		}
		st.eqs = append(st.eqs[:i], st.eqs[i+1:]...)
		return s.splitLinear(st, []*poly.LinComb{e.A, e.B}, depth)
	}

	// Fallback: bounded value enumeration on the busiest variable.
	if debugTrace != nil {
		for _, e := range st.eqs {
			debugTrace("d%d eq: %s", depth, e.String())
		}
	}
	return s.enumerate(st, depth)
}

// derivePairs scans equation pairs for a shared product factor and appends
// the difference equation when the right-hand sides cancel:
//
//	A₁·F = C ∧ A₂·F = C  ⟹  (A₁ − A₂)·F = 0
//
// This zero-product consequence is the lemma that decides two-copy
// uniqueness queries (x·k = c ∧ x′·k = c ⟹ x = x′ ∨ k = 0). The pass runs
// once per search lineage — the pattern it targets is syntactic and present
// at the root — so it cannot blow up the search. Reports whether anything
// was added.
func (s *solver) derivePairs(st *state) bool {
	if st.derived || len(st.eqs) > maxDeriveEqs {
		return false
	}
	st.derived = true
	seen := newQuadSet()
	type half struct{ factor, other, c *poly.LinComb }
	views := func(e Equation) []half {
		return []half{
			{factor: e.A, other: e.B, c: e.C},
			{factor: e.B, other: e.A, c: e.C},
		}
	}
	added := false
	n := len(st.eqs)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, hi := range views(st.eqs[i]) {
				for _, hj := range views(st.eqs[j]) {
					if hi.factor.IsConst() || !hi.factor.Equal(hj.factor) {
						continue
					}
					cDiff := hi.c.Sub(hj.c)
					if !cDiff.IsZero() {
						continue
					}
					diff := hi.other.Sub(hj.other)
					if diff.IsZero() {
						continue // 0 = 0, vacuous
					}
					ne := Equation{A: diff, B: hi.factor, C: cDiff}
					ne.q = expandEq(ne)
					if !seen.add(ne.q) {
						continue
					}
					st.eqs = append(st.eqs, ne)
					added = true
				}
			}
		}
	}
	return added
}

// deriveQuadDiff scans equation pairs whose expanded difference is linear
// and non-trivial, appending it as a linear equation. Identical equations
// are dropped; contradictory ones (difference a nonzero constant) surface
// as a conflict in the next propagate pass.
func (s *solver) deriveQuadDiff(st *state) bool {
	n := len(st.eqs)
	if n < 2 || n > maxDeriveEqs {
		return false
	}
	// Bucket by a fingerprint of the quadratic monomial part: only
	// equations with identical quadratic parts can have a linear
	// difference, so the scan is near-linear instead of O(n²) expansions.
	// Identical parts always share a fingerprint, so no pair is missed;
	// the d.IsLinear() re-check below makes a collision-merged bucket
	// harmless.
	quads := make([]*poly.Quad, n)
	buckets := map[uint64][]int{}
	var keys []uint64
	for i := range st.eqs {
		q := st.eqs[i].expanded()
		quads[i] = q
		k := quadPartFingerprint(q)
		if _, ok := buckets[k]; !ok {
			keys = append(keys, k)
		}
		buckets[k] = append(buckets[k], i)
	}
	// First-seen bucket order, not map order: which pair fires first shapes
	// the whole search, so iteration must be deterministic.
	for _, k := range keys {
		idxs := buckets[k]
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				i, j := idxs[a], idxs[b]
				d := quads[i].Sub(quads[j])
				if !d.IsLinear() {
					continue
				}
				lin := d.Lin()
				if lin.IsConst() && lin.Constant().IsZero() {
					// Identical equations: drop the duplicate.
					st.eqs = append(st.eqs[:j], st.eqs[j+1:]...)
					return true
				}
				st.eqs = append(st.eqs, Equation{
					A: poly.ConstInt(s.f, 1),
					B: lin,
					C: poly.NewLinComb(s.f),
				})
				return true
			}
		}
	}
	return false
}

// maxDeriveEqs bounds the pair-derivation passes: beyond this size the
// quadratic expansions dominate solving time (only the monolithic baseline
// builds systems that large, and it is meant to demonstrate non-scaling).
const maxDeriveEqs = 256

// splitLinear explores st ∧ (l = 0) for each l in branches. The split is
// logically complete: the disjunction of the branches covers st.
func (s *solver) splitLinear(st *state, branches []*poly.LinComb, depth int) (resultKind, Model) {
	sawUnknown := false
	for i, l := range branches {
		if s.halted {
			return rUnknown, nil
		}
		s.eff.Branches++
		child := st
		if i < len(branches)-1 {
			child = st.clone()
		}
		child.eqs = append(child.eqs, Equation{A: poly.ConstInt(s.f, 1), B: l, C: poly.NewLinComb(s.f)})
		res, m := s.solve(child, depth+1)
		switch res {
		case rSat:
			return rSat, m
		case rUnknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return rUnknown, nil
	}
	return rUnsat, nil
}

// soleVar reports whether the sides of e mention exactly one variable x
// between them, returning it.
func soleVar(e Equation) (x int, ok bool) {
	x = -1
	for _, lc := range [...]*poly.LinComb{e.A, e.B, e.C} {
		if lc.IsConst() {
			continue
		}
		v, single := lc.IsSingleVar()
		if !single || (x >= 0 && v != x) {
			return 0, false
		}
		x = v
	}
	return x, x >= 0
}

// quadraticRoots solves q2·x² + q1·x + q0 = 0 (q2 ≠ 0), returning the roots
// or exists=false when the discriminant is a non-residue.
func quadraticRoots(f *ff.Field, q2, q1, q0 ff.Element) ([]ff.Element, bool) {
	// x = (-q1 ± √(q1² − 4·q2·q0)) / (2·q2). For a bit constraint
	// x·(x − 1) = 0, q2 = 1 and the discriminant is 1, which Sqrt and Inv
	// answer without exponentiating.
	disc := f.Sub(f.Square(q1), f.Double(f.Double(f.Mul(q2, q0))))
	r, ok := f.Sqrt(disc)
	if !ok {
		return nil, false
	}
	inv2a := f.Half(f.MustInv(q2))
	x1 := f.Mul(f.Sub(f.Neg(q1), r), inv2a)
	if r.IsZero() {
		return []ff.Element{x1}, true
	}
	x2 := f.Mul(f.Add(f.Neg(q1), r), inv2a)
	return []ff.Element{x1, x2}, true
}

// assignCand is one (variable := value) case of an enumeration split.
type assignCand struct {
	v   int
	val ff.Element
}

// enumerate tries concrete (variable, value) cases. Over small fields it
// enumerates one variable completely (keeping UNSAT conclusions valid);
// over large fields it tries the root of every single-variable product
// factor (the vanishing-denominator pattern behind most real
// under-constrained circuits) plus generic and random values for the
// busiest variable, degrading UNSAT to Unknown.
func (s *solver) enumerate(st *state, depth int) (resultKind, Model) {
	x := s.pickEnumVar(st)
	if x < 0 {
		// No quadratic variable left; should be unreachable.
		s.reason = "internal: nothing to enumerate"
		return rUnknown, nil
	}
	var candidates []assignCand
	completeEnum := false
	if s.f.IsSmall() && s.f.SmallModulus() <= s.opts.MaxEnumeration {
		p := s.f.SmallModulus()
		for v := uint64(0); v < p; v++ {
			candidates = append(candidates, assignCand{v: x, val: s.f.FromUint64(v)})
		}
		completeEnum = true
	} else {
		// Roots of every single-variable factor in the system: each zeroes
		// a product side and typically collapses its equation to linear.
		// The list stays short (about 20), so a scan deduplicates it.
		add := func(v int, val ff.Element) {
			c := assignCand{v: v, val: val}
			if !slices.Contains(candidates, c) {
				candidates = append(candidates, c)
			}
		}
		for _, e := range st.eqs {
			for _, lc := range [...]*poly.LinComb{e.A, e.B} {
				if v, ok := lc.IsSingleVar(); ok {
					add(v, s.root(lc))
				}
			}
		}
		for _, val := range s.heuristicCandidates(st, x) {
			add(x, val)
		}
	}
	sawUnknown := false
	for i, c := range candidates {
		if s.halted {
			return rUnknown, nil
		}
		s.eff.Enumerations++
		child := st
		if i < len(candidates)-1 {
			child = st.clone()
		}
		if !completeEnum {
			child.complete = false
		}
		if debugTrace != nil {
			debugTrace("d%d enum x%d := %s", depth, c.v, s.f.String(c.val))
		}
		child.assignVar(c.v, c.val)
		res, m := s.solve(child, depth+1)
		switch res {
		case rSat:
			return rSat, m
		case rUnknown:
			sawUnknown = true
		}
	}
	if completeEnum && !sawUnknown {
		if st.complete {
			return rUnsat, nil
		}
		return rUnknown, nil
	}
	if s.reason == "" {
		s.reason = "incomplete value enumeration on a hard quadratic core"
	}
	return rUnknown, nil
}

// pickEnumVar chooses the enumeration variable. Variables that occur as a
// single-variable product factor are strongly preferred: zeroing such a
// factor (the "vanishing denominator" pattern behind most real
// under-constrained circuits) is the highest-value case split, and the
// candidate generator knows the exact root for them. Ties break on
// occurrence count, then smallest ID for determinism.
func (s *solver) pickEnumVar(st *state) int {
	count := map[int]int{}
	factorVar := map[int]bool{}
	for _, e := range st.eqs {
		for _, lc := range [...]*poly.LinComb{e.A, e.B, e.C} {
			lc.VisitTerms(func(v int, _ ff.Element) { count[v]++ })
		}
		for _, lc := range []*poly.LinComb{e.A, e.B} {
			if v, ok := lc.IsSingleVar(); ok {
				factorVar[v] = true
			}
		}
	}
	vars := make([]int, 0, len(count))
	for v := range count {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	best, bestScore := -1, -1
	for _, v := range vars {
		score := count[v]
		if factorVar[v] {
			score += 1 << 20
		}
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

// heuristicCandidates assembles promising values for variable x: small
// constants, roots of single-variable factors mentioning x, and
// deterministic pseudo-random probes.
func (s *solver) heuristicCandidates(st *state, x int) []ff.Element {
	var out []ff.Element
	add := func(v ff.Element) {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	add(s.f.Zero())
	add(s.f.One())
	add(s.f.Neg(s.f.One()))
	add(s.f.NewElement(2))
	// Roots of factors that are single-variable in x: values that zero a
	// product side.
	for _, e := range st.eqs {
		for _, lc := range [...]*poly.LinComb{e.A, e.B} {
			if v, ok := lc.IsSingleVar(); ok && v == x {
				add(s.root(lc))
			}
		}
	}
	rng := s.probeRNG()
	for i := 0; i < s.opts.ProbeValues; i++ {
		add(s.f.RandFrom(rng))
	}
	return out
}

// root returns the value of x that zeroes the single-variable combination
// lc = c·x + d, namely −d/c.
func (s *solver) root(lc *poly.LinComb) ff.Element {
	x, _ := lc.IsSingleVar()
	return s.f.Neg(s.f.Mul(lc.Constant(), s.inverse(lc.Coeff(x))))
}

// inverse returns 1/c for a nonzero c, through the per-query memo.
func (s *solver) inverse(c ff.Element) ff.Element {
	if r, ok := s.invs[c]; ok {
		return r
	}
	r := s.f.MustInv(c)
	if s.invs == nil {
		s.invs = map[ff.Element]ff.Element{}
	}
	s.invs[c] = r
	return r
}

// probeRNG returns the probe generator, seeding it on first use.
func (s *solver) probeRNG() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.opts.Seed ^ 0x7f4a7c15))
	}
	return s.rng
}

// completeModel extends a constraint-free state to a full model, choosing
// free-variable values that satisfy the remaining disequalities.
func (s *solver) completeModel(st *state) (Model, bool) {
	model := Model{}
	eliminated := map[int]bool{}
	for e := st.subs; e != nil; e = e.prev {
		eliminated[e.v] = true
	}
	// Free variables: everything in the problem domain not eliminated.
	var free []int
	for _, v := range st.freeHint {
		if !eliminated[v] {
			free = append(free, v)
		}
	}
	// Also variables appearing only in residual disequalities.
	for _, n := range st.neqs {
		for _, v := range n.Vars() {
			if !eliminated[v] && !containsInt(free, v) {
				free = append(free, v)
			}
		}
	}
	sort.Ints(free)

	neqs := make([]*poly.LinComb, len(st.neqs))
	copy(neqs, st.neqs)
	for _, v := range free {
		// Collect forbidden values from disequalities where v is the last
		// unresolved variable.
		forbidden := map[ff.Element]bool{}
		for _, n := range neqs {
			vars := n.Vars()
			if len(vars) == 1 && vars[0] == v {
				forbidden[s.root(n)] = true
			}
		}
		val, ok := s.pickValueAvoiding(forbidden)
		if !ok {
			return nil, false
		}
		model[v] = val
		for i := range neqs {
			neqs[i] = neqs[i].SubstituteValue(v, val)
		}
	}
	// Any disequality now constant must be nonzero (single-var ones were
	// avoided; fully-substituted ones could still conflict only if they had
	// no free vars, which propagate already rejected).
	for _, n := range neqs {
		if n.IsConst() && n.Constant().IsZero() {
			return nil, false
		}
	}
	// Materialize eliminated variables from the elimination chain, newest
	// first: each link's expr names only free variables and variables
	// eliminated after it, which are valued by then.
	at := func(x int) ff.Element { return model.Eval(x) }
	for e := st.subs; e != nil; e = e.prev {
		model[e.v] = e.expr.Eval(at)
	}
	return model, true
}

// pickValueAvoiding returns a field element outside the forbidden set.
func (s *solver) pickValueAvoiding(forbidden map[ff.Element]bool) (ff.Element, bool) {
	if s.f.IsSmall() && uint64(len(forbidden)) >= s.f.SmallModulus() {
		// The forbidden set may cover the entire field.
		for v := uint64(0); v < s.f.SmallModulus(); v++ {
			c := s.f.FromUint64(v)
			if !forbidden[c] {
				return c, true
			}
		}
		return ff.Element{}, false
	}
	// Terminates within |forbidden|+1 iterations: a set of n elements cannot
	// exclude n+1 distinct candidates.
	//qed2:allow-unpolled-loop
	for i := int64(0); ; i++ {
		c := s.f.NewElement(i)
		if !forbidden[c] {
			return c, true
		}
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// debugTrace, when set (tests/diagnosis only), receives search events.
var debugTrace func(format string, args ...any)

// debugNode, when set (tests only), sees every search state just before it
// branches, after propagation: the point where the pattern rules start
// reading expansion memos.
var debugNode func(st *state)
