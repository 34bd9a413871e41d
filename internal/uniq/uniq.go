// Package uniq implements QED²'s lightweight uniqueness-constraint
// propagation: syntactic inference rules that grow a set of signals known
// to be uniquely determined by the circuit inputs, without calling a
// solver.
//
// The engine maintains a set U of unique signals, seeded with the circuit
// inputs and the constant-one signal. The workhorse rule is:
//
//	R-Solve:  for a constraint whose expanded polynomial q = A·B − C has
//	          exactly one signal x ∉ U, where x occurs only linearly and
//	          with a constant nonzero coefficient (no monomial x·y for any
//	          y, including y ∈ U), the constraint rewrites to
//	          x = −rest/c with vars(rest) ⊆ U, so x is uniquely
//	          determined ⇒ x ∈ U.
//
// The constant-coefficient requirement is what keeps the rule sound: in
// x·u = v with u ∈ U the coefficient of x vanishes when u = 0, leaving x
// free, so such constraints are deliberately left to the solver-backed
// reasoning in the core analysis.
//
// External facts (signals proven unique by SMT queries) are injected with
// AddUnique, which re-runs propagation to fixpoint incrementally.
package uniq

import (
	"math/big"
	"sort"

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
	// RuleExternal marks facts injected by the caller (e.g. SMT queries).
	RuleExternal Rule = "external"
	// RuleStatic marks facts injected by the static-analysis pre-pass
	// (internal/sa): outputs and intermediates proven determined by
	// constant propagation / abstract interpretation before any SMT query.
	RuleStatic Rule = "static"
)

// Source records the provenance of a uniqueness fact.
type Source struct {
	Rule Rule
	// Constraint is the index of the constraint that fired (RuleSolve), or
	// -1 otherwise.
	Constraint int
}

// Propagator incrementally maintains the set of known-unique signals of
// one constraint system.
type Propagator struct {
	sys    *r1cs.System
	opts   Options
	unique map[int]Source
	quads  []*poly.Quad // cached expansion per constraint
	// sigCons[v] lists constraints mentioning v.
	sigCons map[int][]int
	// boolean[v] records that some constraint forces v ∈ {0,1}.
	boolean map[int]bool
	// Per-rule observability counters, resolved once from Options.Metrics
	// (nil handles are no-ops): attempts count rule evaluations, fired
	// counts firings, and bits.resolved counts signals resolved by R-Bits
	// (one firing can resolve many bits).
	cSolveAttempts, cSolveFired             *obs.Counter
	cBitsAttempts, cBitsFired, cBitsResolve *obs.Counter
	cSeeds, cExternal                       *obs.Counter
}

// Options disables individual inference rules, for ablation studies.
type Options struct {
	// DisableSolve turns the linear-solve rule off.
	DisableSolve bool
	// DisableBits turns the binary-decomposition rule off.
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
	p := &Propagator{
		sys:     sys,
		opts:    opts,
		unique:  map[int]Source{},
		sigCons: map[int][]int{},

		cSolveAttempts: opts.Metrics.Counter("uniq.rule.solve.attempts"),
		cSolveFired:    opts.Metrics.Counter("uniq.rule.solve.fired"),
		cBitsAttempts:  opts.Metrics.Counter("uniq.rule.bits.attempts"),
		cBitsFired:     opts.Metrics.Counter("uniq.rule.bits.fired"),
		cBitsResolve:   opts.Metrics.Counter("uniq.rule.bits.resolved"),
		cSeeds:         opts.Metrics.Counter("uniq.seeds"),
		cExternal:      opts.Metrics.Counter("uniq.external"),
	}
	p.quads = make([]*poly.Quad, sys.NumConstraints())
	p.boolean = map[int]bool{}
	for i := 0; i < sys.NumConstraints(); i++ {
		q := sys.Constraint(i).Quad()
		p.quads[i] = q
		for _, v := range q.Vars() {
			p.sigCons[v] = append(p.sigCons[v], i)
		}
		if b, ok := booleanOf(q); ok {
			p.boolean[b] = true
		}
	}
	p.seed(r1cs.OneID)
	for _, in := range sys.Inputs() {
		p.seed(in)
	}
	p.fixpoint(nil)
	return p
}

func (p *Propagator) seed(id int) {
	if _, ok := p.unique[id]; !ok {
		p.unique[id] = Source{Rule: RuleSeed, Constraint: -1}
		p.cSeeds.Inc()
	}
}

// IsUnique reports whether signal id is known to be uniquely determined.
func (p *Propagator) IsUnique(id int) bool {
	_, ok := p.unique[id]
	return ok
}

// SourceOf returns the provenance of a uniqueness fact.
func (p *Propagator) SourceOf(id int) (Source, bool) {
	s, ok := p.unique[id]
	return s, ok
}

// NumUnique returns the number of known-unique signals.
func (p *Propagator) NumUnique() int { return len(p.unique) }

// Unique returns the known-unique signal IDs, ascending.
func (p *Propagator) Unique() []int {
	out := make([]int, 0, len(p.unique))
	for v := range p.unique {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Unknown returns the signals not (yet) known unique, ascending.
func (p *Propagator) Unknown() []int {
	var out []int
	for id := 0; id < p.sys.NumSignals(); id++ {
		if !p.IsUnique(id) {
			out = append(out, id)
		}
	}
	return out
}

// CountByRule tallies uniqueness facts per rule.
func (p *Propagator) CountByRule() map[Rule]int {
	out := map[Rule]int{}
	for _, s := range p.unique {
		out[s.Rule]++
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
		unique: make([]bool, p.sys.NumSignals()),
		count:  len(p.unique),
	}
	for id := range p.unique {
		s.unique[id] = true
	}
	return s
}

// IsUnique reports whether signal id was known unique at snapshot time.
func (s *Snapshot) IsUnique(id int) bool {
	return id >= 0 && id < len(s.unique) && s.unique[id]
}

// NumUnique returns the number of known-unique signals at snapshot time.
func (s *Snapshot) NumUnique() int { return s.count }

// AddUnique injects an externally-proven fact and re-propagates.
// It reports whether the fact was new.
func (p *Propagator) AddUnique(id int, src Source) bool {
	if p.IsUnique(id) {
		return false
	}
	p.unique[id] = src
	if src.Rule == RuleExternal {
		p.cExternal.Inc()
	}
	p.fixpoint([]int{id})
	return true
}

// AddUniqueExternal is AddUnique with RuleExternal provenance.
func (p *Propagator) AddUniqueExternal(id int) bool {
	return p.AddUnique(id, Source{Rule: RuleExternal, Constraint: -1})
}

// AddUniqueStatic is AddUnique with RuleStatic provenance (facts from the
// static-analysis pre-pass).
func (p *Propagator) AddUniqueStatic(id int) bool {
	return p.AddUnique(id, Source{Rule: RuleStatic, Constraint: -1})
}

// fixpoint applies R-Solve until no constraint fires. If dirty is nil every
// constraint is considered; otherwise only constraints reachable from the
// given freshly-unique signals.
func (p *Propagator) fixpoint(dirty []int) {
	pending := map[int]bool{}
	if dirty == nil {
		for ci := range p.quads {
			pending[ci] = true
		}
	} else {
		for _, v := range dirty {
			for _, ci := range p.sigCons[v] {
				pending[ci] = true
			}
		}
	}
	// Worklist loop.
	for len(pending) > 0 {
		// Deterministic order: smallest constraint index first.
		var ci int
		first := true
		for k := range pending {
			if first || k < ci {
				ci = k
				first = false
			}
		}
		delete(pending, ci)
		var resolved []int
		var rule Rule
		if !p.opts.DisableSolve {
			p.cSolveAttempts.Inc()
			if x, ok := p.ruleSolve(ci); ok {
				resolved = []int{x}
				rule = RuleSolve
				p.cSolveFired.Inc()
			}
		}
		if resolved == nil && !p.opts.DisableBits {
			p.cBitsAttempts.Inc()
			if xs, ok := p.ruleBits(ci); ok {
				resolved = xs
				rule = RuleBits
				p.cBitsFired.Inc()
				p.cBitsResolve.Add(int64(len(xs)))
			}
		}
		for _, x := range resolved {
			p.unique[x] = Source{Rule: rule, Constraint: ci}
			for _, next := range p.sigCons[x] {
				pending[next] = true
			}
		}
	}
}

// booleanOf recognizes a boolean constraint: the expanded polynomial is a
// nonzero multiple of x² − x for a single signal x, which forces x ∈ {0,1}.
func booleanOf(q *poly.Quad) (int, bool) {
	vars := q.Vars()
	if len(vars) != 1 || q.NumQuadTerms() != 1 {
		return 0, false
	}
	x := vars[0]
	c := q.CoeffPair(x, x)
	if c.IsZero() {
		return 0, false
	}
	f := q.Field()
	if !q.Lin().Constant().IsZero() {
		return 0, false
	}
	if q.Lin().Coeff(x) != f.Neg(c) {
		return 0, false
	}
	return x, true
}

// ruleBits fires on a constraint whose unknowns are all boolean-constrained
// signals occurring linearly with constant coefficients that form a
// super-increasing sequence with total magnitude below the field modulus.
// Such a linear equation has at most one solution over {0,1}^k for any
// fixed value of the known part, so every unknown becomes unique.
func (p *Propagator) ruleBits(ci int) ([]int, bool) {
	q := p.quads[ci]
	f := q.Field()
	var unknowns []int
	for _, v := range q.Vars() {
		if p.IsUnique(v) {
			continue
		}
		if !p.boolean[v] {
			return nil, false
		}
		unknowns = append(unknowns, v)
	}
	if len(unknowns) == 0 {
		return nil, false
	}
	// Every unknown must occur only linearly (no quadratic monomial may
	// involve an unknown), with a constant nonzero coefficient.
	mags := make([]*big.Int, 0, len(unknowns))
	for _, x := range unknowns {
		for _, y := range q.Vars() {
			if !q.CoeffPair(x, y).IsZero() {
				return nil, false
			}
		}
		c := q.Lin().Coeff(x)
		if c.IsZero() {
			return nil, false
		}
		mag := new(big.Int).Abs(f.Signed(c))
		mags = append(mags, mag)
	}
	// Super-increasing check on magnitudes: sorted ascending, each entry
	// strictly exceeds the sum of all previous ones, and the total stays
	// below the modulus (so field arithmetic cannot wrap a collision in).
	sort.Slice(mags, func(i, j int) bool { return mags[i].Cmp(mags[j]) < 0 })
	sum := new(big.Int)
	for _, m := range mags {
		if m.Cmp(sum) <= 0 {
			return nil, false
		}
		sum.Add(sum, m)
	}
	if sum.Cmp(f.Modulus()) >= 0 {
		return nil, false
	}
	return unknowns, true
}

// ruleSolve checks whether constraint ci pins down exactly one new signal,
// returning it.
func (p *Propagator) ruleSolve(ci int) (int, bool) {
	q := p.quads[ci]
	// Find the unknowns.
	unknown := -1
	for _, v := range q.Vars() {
		if p.IsUnique(v) {
			continue
		}
		if unknown != -1 {
			return 0, false // two or more unknowns
		}
		unknown = v
	}
	if unknown == -1 {
		return 0, false
	}
	x := unknown
	// x must not occur in any quadratic monomial: x² would give two roots,
	// and x·y (even with y unique) has a vanishing coefficient when y = 0.
	if !q.CoeffPair(x, x).IsZero() {
		return 0, false
	}
	for _, y := range q.Vars() {
		if y != x && !q.CoeffPair(x, y).IsZero() {
			return 0, false
		}
	}
	// Linear occurrence with a constant nonzero coefficient.
	if q.Lin().Coeff(x).IsZero() {
		return 0, false
	}
	return x, true
}

// OutputsUnique reports whether every output signal is known unique.
func (p *Propagator) OutputsUnique() bool {
	for _, o := range p.sys.Outputs() {
		if !p.IsUnique(o) {
			return false
		}
	}
	return true
}
