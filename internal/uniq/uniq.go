// Package uniq implements QED²'s lightweight uniqueness-constraint
// propagation: syntactic inference rules that grow a set of signals known
// to be uniquely determined by the circuit inputs, without calling a
// solver.
//
// The engine maintains a set U of unique signals, seeded with the circuit
// inputs and the constant-one signal (the paper's R-Input), and applies
// three rules to fixpoint:
//
//	R-Solve:  for a constraint whose expanded polynomial q = A·B − C has
//	          exactly one signal x ∉ U, where x occurs only linearly and
//	          with a constant nonzero coefficient (no monomial x·y for any
//	          y, including y ∈ U), the constraint rewrites to
//	          x = −rest/c with vars(rest) ⊆ U, so x is uniquely
//	          determined ⇒ x ∈ U.
//	R-Bits:   for a constraint whose unknowns are all boolean-constrained
//	          (some constraint is a nonzero multiple of x² − x), all occur
//	          only linearly, and whose coefficient magnitudes form a
//	          super-increasing sequence summing below the modulus, every
//	          unknown is uniquely determined ⇒ all of them join U.
//	R-OneHot: for a constraint whose unknowns sᵢ all occur only linearly,
//	          where each sᵢ has a selector guard sᵢ·(x − kᵢ) = 0 (some
//	          constraint factors that way) against one common selector
//	          x ∈ U, with the kᵢ pairwise distinct, every unknown is
//	          uniquely determined ⇒ all of them join U.
//
// R-Solve covers the paper's R-Lin (a constraint linear in its single
// unknown), R-Prod (z = x·y with x, y ∈ U: the monomial is over known
// signals) and R-Eq (x = y, in either direction). The paper's
// R-Bool/R-Cond mux patterns have no rule of their own; their selectors
// are left to the solver-backed queries of the core analysis.
//
// The constant-coefficient requirement is what keeps R-Solve sound: in
// x·u = v with u ∈ U the coefficient of x vanishes when u = 0, leaving x
// free, so such constraints are deliberately left to the core analysis.
// R-OneHot needs no constant values at all: for any fixed value of x, each
// sᵢ with kᵢ ≠ x is 0 by its guard, at most one sⱼ has kⱼ = x, and the
// constraint pins that one to (known part)/cⱼ. It targets circomlib's
// Decoder inside Multiplexer, whose sum Σ out[i] − success = 0 only
// fires once success is pinned by success − 1 = 0.
//
// solve, bits and BooleanOf are the rules themselves, over one polynomial
// and predicates for the known and boolean facts; the Propagator applies
// them to a system's constraints. The static pass (internal/sa) reads the
// Propagator's facts for its determinedness, and its cached expansions
// (Quad) for its residuals, detectors and Verify; its B-Range rule calls
// BooleanOf.
//
// External facts (signals proven unique by SMT queries) are injected with
// AddUniqueExternal, which re-runs propagation to fixpoint incrementally.
package uniq

import (
	"math/big"
	"slices"

	"qed2/internal/ff"
	"qed2/internal/obs"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
)

// Rule identifies how a signal was proven unique.
type Rule string

// Rules.
const (
	// RuleSeed marks inputs and the constant-one signal.
	RuleSeed Rule = "seed"
	// RuleSolve marks signals resolved by the linear-solve rule.
	RuleSolve Rule = "solve"
	// RuleBits marks signals resolved by the binary-decomposition rule:
	// boolean-constrained signals pinned by a linear equation whose
	// coefficients form a super-increasing sequence (e.g. powers of two),
	// which makes the subset sum — and hence every bit — unique.
	RuleBits Rule = "bits"
	// RuleOneHot marks signals resolved by the one-hot selector rule: the
	// summands of a linear equation, each guarded by s·(x − k) = 0 against
	// one known selector x with pairwise-distinct k, of which at most one
	// can be nonzero for any value of x.
	RuleOneHot Rule = "onehot"
	// RuleExternal marks facts injected by the caller (e.g. SMT queries).
	RuleExternal Rule = "external"
)

// Source records the provenance of a uniqueness fact.
type Source struct {
	Rule Rule
	// Constraint is the index of the constraint that fired (RuleSolve,
	// RuleBits, RuleOneHot), or -1 otherwise.
	Constraint int
}

// Propagator incrementally maintains the set of known-unique signals of
// one constraint system.
type Propagator struct {
	sys  *r1cs.System
	opts Options
	// facts[id] is id's provenance; the zero Source (empty Rule) marks a
	// signal not known unique. count is the number of known-unique signals.
	facts []Source
	count int
	quads []*poly.Quad // cached expansion per constraint
	// boolean[v] records that some constraint forces v ∈ {0,1}.
	boolean []bool
	// guards[s] lists the selector guards on s, in constraint order, and
	// guarded[x] the signals guarded against x; both stay nil when the
	// system has no guard or R-OneHot is off.
	guards  map[int][]guard
	guarded map[int][]int
	// pending[ci] marks constraints queued for a rule check; npending
	// counts them, and every pending index is ≥ next, so the worklist
	// takes the smallest pending constraint first by scanning up from next.
	pending  []bool
	npending int
	next     int
	// Per-rule observability counters, resolved once from Options.Metrics
	// (nil handles are no-ops): attempts count rule evaluations, fired
	// counts firings, and bits.resolved / onehot.resolved count signals
	// resolved by R-Bits / R-OneHot (one firing can resolve many).
	cSolveAttempts, cSolveFired                   *obs.Counter
	cBitsAttempts, cBitsFired, cBitsResolve       *obs.Counter
	cOneHotAttempts, cOneHotFired, cOneHotResolve *obs.Counter
	cSeeds, cExternal                             *obs.Counter
}

// guard is a selector guard s·(x − k) = 0 on a signal s: whenever x ≠ k,
// s = 0.
type guard struct {
	x int
	k ff.Element
}

// Options disables individual inference rules, for ablation studies.
type Options struct {
	// DisableSolve turns the linear-solve rule off, and R-OneHot with it.
	DisableSolve bool
	// DisableBits turns the binary-decomposition rule off, and R-OneHot
	// with it. The ablations measure the paper's two rules; R-OneHot
	// reaches further only on top of both.
	DisableBits bool
	// Metrics, when non-nil, receives the uniq.* counters (see DESIGN §10
	// for the taxonomy).
	Metrics *obs.Metrics
}

// New builds a propagator seeded with the inputs and the constant-one
// signal, and runs propagation to fixpoint.
func New(sys *r1cs.System) *Propagator {
	return NewWithOptions(sys, Options{})
}

// NewWithOptions is New with selected rules disabled.
func NewWithOptions(sys *r1cs.System, opts Options) *Propagator {
	n := sys.NumConstraints()
	p := &Propagator{
		sys:     sys,
		opts:    opts,
		facts:   make([]Source, sys.NumSignals()),
		quads:   make([]*poly.Quad, n),
		boolean: make([]bool, sys.NumSignals()),
		pending: make([]bool, n),

		cSolveAttempts: opts.Metrics.Counter("uniq.rule.solve.attempts"),
		cSolveFired:    opts.Metrics.Counter("uniq.rule.solve.fired"),
		cBitsAttempts:  opts.Metrics.Counter("uniq.rule.bits.attempts"),
		cBitsFired:     opts.Metrics.Counter("uniq.rule.bits.fired"),
		cBitsResolve:   opts.Metrics.Counter("uniq.rule.bits.resolved"),
		cSeeds:         opts.Metrics.Counter("uniq.seeds"),
		cExternal:      opts.Metrics.Counter("uniq.external"),
	}
	oneHot := !opts.DisableSolve && !opts.DisableBits
	if oneHot {
		p.cOneHotAttempts = opts.Metrics.Counter("uniq.rule.onehot.attempts")
		p.cOneHotFired = opts.Metrics.Counter("uniq.rule.onehot.fired")
		p.cOneHotResolve = opts.Metrics.Counter("uniq.rule.onehot.resolved")
	}
	for ci := range p.quads {
		q := sys.Constraint(ci).Quad()
		p.quads[ci] = q
		if b, ok := BooleanOf(q); ok {
			p.boolean[b] = true
		} else if oneHot {
			p.indexGuards(q)
		}
		p.queue(ci)
	}
	seed := Source{Rule: RuleSeed, Constraint: -1}
	if p.learn(r1cs.OneID, seed) {
		p.cSeeds.Inc()
	}
	for _, in := range sys.Inputs() {
		if p.learn(in, seed) {
			p.cSeeds.Inc()
		}
	}
	p.fixpoint()
	return p
}

// Quad returns constraint ci's expansion A·B − C, the polynomial the rules
// read. The result is shared and must not be mutated.
func (p *Propagator) Quad(ci int) *poly.Quad { return p.quads[ci] }

// IsUnique reports whether signal id is known to be uniquely determined.
func (p *Propagator) IsUnique(id int) bool { return p.facts[id].Rule != "" }

// SourceOf returns the provenance of a uniqueness fact.
func (p *Propagator) SourceOf(id int) (Source, bool) {
	return p.facts[id], p.IsUnique(id)
}

// NumUnique returns the number of known-unique signals.
func (p *Propagator) NumUnique() int { return p.count }

// Unknown returns the signals not (yet) known unique, ascending.
func (p *Propagator) Unknown() []int {
	var out []int
	for id := range p.facts {
		if !p.IsUnique(id) {
			out = append(out, id)
		}
	}
	return out
}

// CountByRule tallies uniqueness facts per rule.
func (p *Propagator) CountByRule() map[Rule]int {
	out := map[Rule]int{}
	for id, s := range p.facts {
		if p.IsUnique(id) {
			out[s.Rule]++
		}
	}
	return out
}

// Snapshot is an immutable point-in-time view of the known-unique set. It
// is safe for concurrent readers, which the Propagator itself is not: the
// parallel query engine takes one snapshot per round and hands it to every
// worker, while the analysis goroutine folds finished queries' facts into
// the propagator as the round runs.
type Snapshot struct {
	unique []bool
	count  int
}

// Snapshot captures the current unique set. The returned value never
// changes, even if the propagator keeps deriving facts.
func (p *Propagator) Snapshot() *Snapshot {
	s := &Snapshot{
		unique: make([]bool, len(p.facts)),
		count:  p.count,
	}
	for id := range p.facts {
		s.unique[id] = p.IsUnique(id)
	}
	return s
}

// IsUnique reports whether signal id was known unique at snapshot time.
func (s *Snapshot) IsUnique(id int) bool {
	return id >= 0 && id < len(s.unique) && s.unique[id]
}

// NumUnique returns the number of known-unique signals at snapshot time.
func (s *Snapshot) NumUnique() int { return s.count }

// AddUniqueExternal injects a fact proven outside the rules (an SMT query)
// with RuleExternal provenance and re-propagates. It reports whether the
// fact was new.
func (p *Propagator) AddUniqueExternal(id int) bool {
	if !p.learn(id, Source{Rule: RuleExternal, Constraint: -1}) {
		return false
	}
	p.cExternal.Inc()
	p.fixpoint()
	return true
}

// learn records a new fact and queues every constraint mentioning id. A
// selector also queues the constraints of the signals it guards: the sum
// R-OneHot resolves does not mention its selector. It reports whether the
// fact was new.
func (p *Propagator) learn(id int, src Source) bool {
	if p.IsUnique(id) {
		return false
	}
	p.facts[id] = src
	p.count++
	for _, ci := range p.sys.ConstraintsOf(id) {
		p.queue(ci)
	}
	for _, s := range p.guarded[id] {
		for _, ci := range p.sys.ConstraintsOf(s) {
			p.queue(ci)
		}
	}
	return true
}

// queue marks constraint ci for a rule check.
func (p *Propagator) queue(ci int) {
	if p.pending[ci] {
		return
	}
	p.pending[ci] = true
	p.npending++
	if p.npending == 1 || ci < p.next {
		p.next = ci
	}
}

// fixpoint applies the rules to the queued constraints, smallest index
// first, until none is queued.
func (p *Propagator) fixpoint() {
	for p.npending > 0 {
		for !p.pending[p.next] {
			p.next++
		}
		ci := p.next
		p.pending[ci] = false
		p.npending--
		q := p.quads[ci]
		var resolved []int
		var rule Rule
		if !p.opts.DisableSolve {
			p.cSolveAttempts.Inc()
			if x, ok := solve(q, p.IsUnique); ok {
				resolved = []int{x}
				rule = RuleSolve
				p.cSolveFired.Inc()
			}
		}
		if resolved == nil && !p.opts.DisableBits {
			p.cBitsAttempts.Inc()
			if xs := bits(q, p.IsUnique, p.isBoolean); xs != nil {
				resolved = xs
				rule = RuleBits
				p.cBitsFired.Inc()
				p.cBitsResolve.Add(int64(len(xs)))
			}
		}
		if resolved == nil && len(p.guards) > 0 {
			p.cOneHotAttempts.Inc()
			if xs := p.oneHot(q); xs != nil {
				resolved = xs
				rule = RuleOneHot
				p.cOneHotFired.Inc()
				p.cOneHotResolve.Add(int64(len(xs)))
			}
		}
		for _, x := range resolved {
			p.learn(x, Source{Rule: rule, Constraint: ci})
		}
	}
}

func (p *Propagator) isBoolean(id int) bool { return p.boolean[id] }

// OutputsUnique reports whether every output signal is known unique.
func (p *Propagator) OutputsUnique() bool {
	for _, o := range p.sys.Outputs() {
		if !p.IsUnique(o) {
			return false
		}
	}
	return true
}

// --- the rules ---------------------------------------------------------------
//
// solve and bits read the facts through predicates; R-OneHot reads the
// Propagator's guard index too. The rules walk q's terms without building
// a variable list: the quadratic monomials first, where any monomial that
// touches an unknown signal blocks the rule (x² has two roots, and x·y has
// a coefficient that vanishes when y = 0), then the linear terms. R-Bits
// and R-OneHot walk the linear terms a second time only to collect a
// candidate's unknowns.

// BooleanOf recognizes a boolean constraint: q is a nonzero multiple of
// x² − x for a single signal x, which forces x ∈ {0,1}.
func BooleanOf(q *poly.Quad) (int, bool) {
	if q.NumQuadTerms() != 1 {
		return 0, false
	}
	var sq poly.VarPair
	var c ff.Element
	q.VisitQuadTerms(func(p poly.VarPair, coeff ff.Element) { sq, c = p, coeff })
	lin := q.Lin()
	x, single := lin.IsSingleVar()
	if !single || sq.X != x || sq.Y != x || !lin.Constant().IsZero() {
		return 0, false
	}
	if lin.Coeff(x) != q.Field().Neg(c) {
		return 0, false
	}
	return x, true
}

// quadKnown reports whether every quadratic monomial of q is over known
// signals only.
func quadKnown(q *poly.Quad, known func(int) bool) bool {
	ok := true
	q.VisitQuadTerms(func(p poly.VarPair, _ ff.Element) {
		ok = ok && known(p.X) && known(p.Y)
	})
	return ok
}

// solve is R-Solve on q = 0: when exactly one signal x of q is unknown and
// x occurs only linearly (its coefficient is a nonzero constant), it
// returns x, which the equation pins to one value.
func solve(q *poly.Quad, known func(int) bool) (int, bool) {
	if !quadKnown(q, known) {
		return 0, false
	}
	x, n := -1, 0
	q.Lin().VisitTerms(func(v int, _ ff.Element) {
		if !known(v) {
			x = v
			n++
		}
	})
	return x, n == 1
}

// bits is R-Bits on q = 0: when every unknown signal of q is boolean and
// occurs only linearly, and the magnitudes of the unknowns' signed
// coefficients, sorted ascending, each exceed the sum of the smaller ones
// and total below the modulus, the equation has at most one solution over
// {0,1}^k for any value of the known part (field arithmetic cannot wrap a
// collision in). It returns those unknowns, ascending, or nil.
func bits(q *poly.Quad, known, boolean func(int) bool) []int {
	if !quadKnown(q, known) {
		return nil
	}
	n, allBool := 0, true
	q.Lin().VisitTerms(func(v int, _ ff.Element) {
		if !known(v) {
			n++
			allBool = allBool && boolean(v)
		}
	})
	if n == 0 || !allBool {
		return nil
	}
	f := q.Field()
	xs := make([]int, 0, n)
	mags := make([]*big.Int, 0, n)
	q.Lin().VisitTerms(func(v int, c ff.Element) {
		if !known(v) {
			m := f.Signed(c)
			xs = append(xs, v)
			mags = append(mags, m.Abs(m))
		}
	})
	slices.SortFunc(mags, (*big.Int).Cmp)
	sum := new(big.Int)
	for _, m := range mags {
		if m.Cmp(sum) <= 0 {
			return nil
		}
		sum.Add(sum, m)
	}
	if sum.Cmp(f.Modulus()) >= 0 {
		return nil
	}
	return xs
}

// indexGuards records the selector guards of one constraint q = 0: one
// quadratic term c·s·x with s ≠ x, no constant, and at most one linear
// term, on s. Then q = s·(c·x + d), a guard s·(x − k) = 0 with k = −d/c.
// With no linear term, s and x guard each other with k = 0.
func (p *Propagator) indexGuards(q *poly.Quad) {
	lin := q.Lin()
	if q.NumQuadTerms() != 1 || lin.NumTerms() > 1 || !lin.Constant().IsZero() {
		return
	}
	var a, b int
	var c ff.Element
	q.VisitQuadTerms(func(pr poly.VarPair, coeff ff.Element) { a, b, c = pr.X, pr.Y, coeff })
	if a == b {
		return
	}
	f := q.Field()
	s, ok := lin.IsSingleVar()
	switch {
	case !ok:
		p.addGuard(a, b, f.Zero())
		p.addGuard(b, a, f.Zero())
	case s == a || s == b:
		p.addGuard(s, a+b-s, f.Mul(f.Neg(lin.Coeff(s)), f.MustInv(c)))
	}
}

func (p *Propagator) addGuard(s, x int, k ff.Element) {
	if p.guards == nil {
		p.guards = map[int][]guard{}
		p.guarded = map[int][]int{}
	}
	p.guards[s] = append(p.guards[s], guard{x: x, k: k})
	p.guarded[x] = append(p.guarded[x], s)
}

// oneHot is R-OneHot on q = 0: when every unknown of q occurs only
// linearly and has a guard against one common known selector x, with the
// guards' constants pairwise distinct, it returns those unknowns,
// ascending, or nil. A known x is never one of q's unknowns. For any value
// of x every unknown sᵢ with kᵢ ≠ x is 0, and at most one has kⱼ = x; the
// equation fixes that one from its known part, since cⱼ is a nonzero
// constant. So no constant of q or value of x needs to be known.
func (p *Propagator) oneHot(q *poly.Quad) []int {
	if !quadKnown(q, p.IsUnique) {
		return nil
	}
	n, guarded := 0, true
	q.Lin().VisitTerms(func(v int, _ ff.Element) {
		if guarded && !p.IsUnique(v) {
			n++
			guarded = len(p.guards[v]) > 0
		}
	})
	if !guarded || n == 0 {
		return nil
	}
	xs := make([]int, 0, n)
	q.Lin().VisitTerms(func(v int, _ ff.Element) {
		if !p.IsUnique(v) {
			xs = append(xs, v)
		}
	})
	ks := make([]ff.Element, n)
	for _, g0 := range p.guards[xs[0]] {
		if p.IsUnique(g0.x) && p.guardedAgainst(xs, g0.x, ks) {
			return xs
		}
	}
	return nil
}

// guardedAgainst reports whether every signal of xs has a guard against x,
// filling ks with the guards' constants, and the constants are pairwise
// distinct.
func (p *Propagator) guardedAgainst(xs []int, x int, ks []ff.Element) bool {
	for i, v := range xs {
		j := slices.IndexFunc(p.guards[v], func(g guard) bool { return g.x == x })
		if j < 0 {
			return false
		}
		ks[i] = p.guards[v][j].k
		for _, k := range ks[:i] {
			if k == ks[i] {
				return false
			}
		}
	}
	return true
}
