package sa

import (
	"fmt"
	"math/big"

	"qed2/internal/ff"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
	"qed2/internal/uniq"
)

// AbsState is the result of an abstract interpretation of the constraint
// system over F_p. Four interacting domains are tracked per signal:
//
//   - Const: the signal provably takes one fixed value in every satisfying
//     assignment (derived by constant propagation through constraints).
//   - Bool: some constraint forces the signal into {0,1} (the s·(s−1)=0
//     pattern, possibly after constant substitution).
//   - Interval: the signed representative lies in [Lo, Hi] (interval.go).
//   - Nonzero: no satisfying assignment gives the signal the value 0.
//
// Determinedness (the signal is a function of the inputs) is not a domain
// of the interpreter: Determined reads the facts of internal/uniq's
// propagator, whose R-Solve, R-Bits and R-OneHot rules also decide the
// core analysis, plus the constants, which are trivially determined.
//
// Every fact is a theorem about the constraint set, derived by rules whose
// soundness arguments live in DESIGN.md §12 and §17; Verify replays the
// facts against the original constraints as an independent consistency
// check before anything downstream is allowed to act on them.
//
// All fact writes flow through the recording helpers (setConst, recordBool,
// recordInterval, recordNonzero) so the cross-domain meets fire on every
// update and Verify sees a coherent state; the `rangefact` vet check
// enforces this mechanically.
type AbsState struct {
	sys *r1cs.System
	// prop holds the uniqueness facts and each constraint's expansion
	// A·B − C, which the residuals, the detectors and Verify all read.
	prop *uniq.Propagator
	// constVal[id] is the proven constant (valid iff isConst[id]).
	constVal []ff.Element
	isConst  []bool
	isBool   []bool
	// residual[ci] is constraint ci's Quad with every proven constant
	// substituted.
	residual []*poly.Quad

	// ival[id] is the interval fact (nil = Top); nonzero[id] marks signals
	// proven ≠ 0.
	ival    []*Interval
	nonzero []bool

	// conflicts lists proofs of unsatisfiability — facts that exclude each
	// other, or a constraint no value in the established ranges satisfies —
	// surfaced as range-violation findings.
	conflicts []Conflict

	// constGen counts constant facts; scanGen[ci] is the constGen at which
	// residual[ci] was last scanned. Equal generations mean no new constant
	// can occur in the residual, so applyConsts returns the cached pointer
	// without rescanning (and without allocating).
	constGen int
	scanGen  []int

	// loLim/hiLim bound every signed representative: loLim < v ≤ hiLim.
	// full is the shared Top interval [loLim, hiLim].
	loLim, hiLim *big.Int
	full         *Interval
	pMod         *big.Int
}

// Conflict records a proof that no satisfying assignment exists: the
// range-domain analogue of a nonzero constant residual. Signal is the signal
// whose facts exclude each other, or -1 when constraint Constraint's value
// window admits no multiple of p; Constraint is -1 when the clash came from
// a constant rather than from a constraint's rule.
type Conflict struct {
	Constraint int
	Signal     int
	Msg        string
}

// Interpret runs uniq's propagation and then the abstract interpretation to
// fixpoint. The iteration order is deterministic (ascending constraint index
// per round, rules in fixed order per visit), so equal systems produce
// identical states.
func Interpret(sys *r1cs.System) *AbsState {
	n := sys.NumSignals()
	st := &AbsState{
		sys:      sys,
		prop:     uniq.New(sys),
		constVal: make([]ff.Element, n),
		isConst:  make([]bool, n),
		isBool:   make([]bool, n),
		residual: make([]*poly.Quad, sys.NumConstraints()),
		ival:     make([]*Interval, n),
		nonzero:  make([]bool, n),
		scanGen:  make([]int, sys.NumConstraints()),
		pMod:     sys.Field().Modulus(),
	}
	st.loLim, st.hiLim = signedBounds(sys.Field())
	st.full = newInterval(st.loLim, st.hiLim)
	for i := range st.scanGen {
		st.scanGen[i] = -1
	}
	st.setConst(r1cs.OneID, sys.Field().One())
	for ci := range st.residual {
		st.residual[ci] = st.prop.Quad(ci)
	}
	// Round-based fixpoint: scan all constraints in index order until a
	// full round derives nothing new. The boolean domains are monotone and
	// finite, and every interval fact comes from a rule that fires at most
	// once per signal (setConst, recordBool), so this terminates in a
	// bounded number of rounds.
	for changed := true; changed; {
		changed = false
		for ci := range st.residual {
			if st.visit(ci) {
				changed = true
			}
		}
	}
	st.checkWindows()
	return st
}

// visit applies every rule to one constraint residual; reports progress.
func (st *AbsState) visit(ci int) bool {
	q := st.applyConsts(ci)
	changed := false

	// Rule C-Solve: residual k·x + c = 0 with k ≠ 0 pins x = −c/k in every
	// satisfying assignment.
	if x, v, ok := constOf(q); ok {
		if st.setConst(x, v) {
			changed = true
		}
	}
	// Rule B-Range: residual k·(x² − x) = 0 forces x ∈ {0,1}.
	if x, ok := uniq.BooleanOf(q); ok {
		if st.recordBool(x, ci) {
			changed = true
		}
	}
	// Rules N-Inv / N-Mul: nonzero propagation through products.
	if st.ruleNonzeroProduct(ci, q) {
		changed = true
	}
	return changed
}

// applyConsts substitutes newly-proven constants into a residual, caching
// the result. The scan is generation-gated: when no constant fact has been
// recorded since the last scan of this constraint, the cached pointer is
// returned immediately, and when a scan finds nothing to substitute the
// original residual pointer is returned unchanged — repeated visits of a
// constant-free constraint allocate nothing.
func (st *AbsState) applyConsts(ci int) *poly.Quad {
	if st.scanGen[ci] == st.constGen {
		return st.residual[ci]
	}
	q := st.residual[ci]
	for {
		// The constant-one signal is itself a constant fact (value 1), so
		// an explicit var-0 occurrence folds away here like any other
		// constant. The visits find the minimum matching variable.
		found := -1
		q.Lin().VisitTerms(func(x int, _ ff.Element) {
			if st.isConst[x] && (found < 0 || x < found) {
				found = x
			}
		})
		q.VisitQuadTerms(func(p poly.VarPair, _ ff.Element) {
			if st.isConst[p.X] && (found < 0 || p.X < found) {
				found = p.X
			}
			if st.isConst[p.Y] && (found < 0 || p.Y < found) {
				found = p.Y
			}
		})
		if found < 0 {
			break
		}
		q = q.SubstituteValue(found, st.constVal[found])
	}
	st.residual[ci] = q
	st.scanGen[ci] = st.constGen
	return q
}

// --- recording helpers -------------------------------------------------------
//
// Every fact write goes through exactly one of the helpers below so that
// (a) the cross-domain meets fire on every update, (b) the constant
// generation counter driving the incremental scan stays coherent, and (c)
// Verify can assume the stored state is closed under the meets. Direct
// writes to the fact arrays outside these helpers are rejected by the
// `rangefact` vet analyzer.

// setConst records a constant fact (constants also have a singleton
// interval, and are nonzero when the value is).
func (st *AbsState) setConst(id int, v ff.Element) bool {
	if st.isConst[id] {
		return false
	}
	s := st.sys.Field().Signed(v)
	if iv := st.ival[id]; iv != nil && !iv.Contains(s) {
		st.recordConflict(-1, id,
			fmt.Sprintf("signal %s is pinned to %v but its established range is %s", st.sys.Name(id), s, iv))
	}
	if st.nonzero[id] && v.IsZero() {
		st.recordConflict(-1, id,
			fmt.Sprintf("signal %s is pinned to 0 but was proven nonzero", st.sys.Name(id)))
	}
	st.isConst[id] = true
	st.constVal[id] = v
	st.constGen++
	st.ival[id] = intervalOfConst(st.sys.Field(), v)
	if !v.IsZero() {
		st.nonzero[id] = true
	}
	return true
}

// recordBool records a booleanness fact and seeds the interval domain with
// [0, 1].
func (st *AbsState) recordBool(id, ci int) bool {
	if st.isBool[id] {
		return false
	}
	st.isBool[id] = true
	st.recordInterval(id, boolInterval(), ci)
	return true
}

// recordNonzero records that no satisfying assignment zeroes the signal.
func (st *AbsState) recordNonzero(id int) bool {
	if st.nonzero[id] {
		return false
	}
	st.nonzero[id] = true
	return true
}

// recordConflict records a proof of unsatisfiability.
func (st *AbsState) recordConflict(ci, id int, msg string) {
	st.conflicts = append(st.conflicts, Conflict{Constraint: ci, Signal: id, Msg: msg})
}

// recordInterval meets a derived interval fact into the state. The update
// is applied only when it strictly tightens the stored interval; an empty
// meet records a conflict instead. Cross-domain closure: a singleton
// promotes to a constant, and an interval excluding 0 implies nonzero.
func (st *AbsState) recordInterval(id int, iv *Interval, ci int) bool {
	if st.isConst[id] {
		return false
	}
	cur := st.ival[id]
	if cur == nil {
		cur = st.full
	}
	m, ok := cur.meet(iv)
	if !ok {
		st.recordConflict(ci, id,
			fmt.Sprintf("derived range %s for signal %s contradicts its established range %s", iv, st.sys.Name(id), cur))
		return false
	}
	if !cur.tightens(m) {
		return false
	}
	st.ival[id] = m
	if m.IsSingleton() {
		st.setConst(id, st.sys.Field().FromBig(m.Lo))
	} else if !m.ContainsZero() {
		st.recordNonzero(id)
	}
	return true
}

// ivOf returns the signal's interval, falling back to the full signed range
// (the trivially-true interval every signal satisfies).
func (st *AbsState) ivOf(id int) *Interval {
	if iv := st.ival[id]; iv != nil {
		return iv
	}
	return st.full
}

// --- range rules -------------------------------------------------------------

// window returns the exact integer range [lo, hi] of q's value over signed
// representatives — coefficients taken signed, each variable ranging over
// its interval (the full signed range when it has none) — and whether some
// multiple of p lies in it. In a satisfying assignment q ≡ 0 (mod p), so a
// window without a multiple of p admits no solution.
func (st *AbsState) window(q *poly.Quad) (lo, hi *big.Int, admits bool) {
	f := st.sys.Field()
	lo = f.Signed(q.Lin().Constant())
	hi = new(big.Int).Set(lo)
	q.VisitQuadTerms(func(p poly.VarPair, coeff ff.Element) {
		tLo, tHi := prodRange(f.Signed(coeff), st.ivOf(p.X), st.ivOf(p.Y))
		lo.Add(lo, tLo)
		hi.Add(hi, tHi)
	})
	q.Lin().VisitTerms(func(v int, coeff ff.Element) {
		tLo, tHi := termRange(f.Signed(coeff), st.ivOf(v))
		lo.Add(lo, tLo)
		hi.Add(hi, tHi)
	})
	return lo, hi, ceilDiv(lo, st.pMod).Cmp(floorDiv(hi, st.pMod)) <= 0
}

// checkWindows records a conflict for every constraint whose residual value
// window, under the final intervals, contains no multiple of p: the
// established ranges exclude every solution of that constraint. It runs
// once, after the fixpoint, since no rule reads these conflicts. A residual
// none of whose variables carries an interval fact is skipped: a variable
// without one spans the full signed range, which widens the window to at
// least p − 1 and so always admits a multiple of p, and a variable-free
// nonzero residual is a constant-replay failure (Verify layer 1), not a
// range one.
func (st *AbsState) checkWindows() {
	for ci, q := range st.residual {
		info := false
		q.Lin().VisitTerms(func(x int, _ ff.Element) {
			if st.ival[x] != nil {
				info = true
			}
		})
		q.VisitQuadTerms(func(p poly.VarPair, _ ff.Element) {
			if st.ival[p.X] != nil || st.ival[p.Y] != nil {
				info = true
			}
		})
		if !info {
			continue
		}
		if lo, hi, admits := st.window(q); !admits {
			st.recordConflict(ci, -1,
				fmt.Sprintf("constraint #%d cannot hold for any values in the established ranges (residual value window [%v, %v] contains no multiple of the field modulus)", ci, lo, hi))
		}
	}
}

// ruleNonzeroProduct covers the nonzero product rules:
//
//   - N-Inv: residual c·x·y + c₀ = 0 with c₀ ≠ 0 forces x·y = −c₀/c ≠ 0,
//     so both factors are nonzero in every satisfying assignment (the
//     x·inv = 1 inverse-witness pattern).
//   - N-Mul: residual c·x·y + d·z = 0 defines z = −(c/d)·x·y, so z ≠ 0
//     exactly when both x ≠ 0 and y ≠ 0; nonzero flows both ways.
func (st *AbsState) ruleNonzeroProduct(ci int, q *poly.Quad) bool {
	if q.NumQuadTerms() != 1 {
		return false
	}
	var px, py int
	q.VisitQuadTerms(func(p poly.VarPair, _ ff.Element) { px, py = p.X, p.Y })
	lin := q.Lin()
	changed := false
	switch {
	case lin.IsConst() && !lin.Constant().IsZero():
		// N-Inv.
		if st.recordNonzero(px) {
			changed = true
		}
		if st.recordNonzero(py) {
			changed = true
		}
	case lin.Constant().IsZero() && lin.NumTerms() == 1:
		// N-Mul: the single linear variable is z.
		z, _ := lin.IsSingleVar()
		if z == px || z == py {
			return false
		}
		if st.nonzero[px] && st.nonzero[py] && st.recordNonzero(z) {
			changed = true
		}
		if st.nonzero[z] {
			if st.recordNonzero(px) {
				changed = true
			}
			if st.recordNonzero(py) {
				changed = true
			}
		}
	}
	return changed
}

// --- classic rule recognizers ------------------------------------------------

// constOf recognizes a single-variable linear residual k·x + c = 0.
func constOf(q *poly.Quad) (x int, v ff.Element, ok bool) {
	if !q.IsLinear() {
		return 0, ff.Element{}, false
	}
	lin := q.Lin()
	x, single := lin.IsSingleVar()
	if !single {
		return 0, ff.Element{}, false
	}
	f := q.Field()
	k := lin.Coeff(x)
	if k.IsZero() {
		return 0, ff.Element{}, false
	}
	return x, f.Mul(f.Neg(lin.Constant()), f.MustInv(k)), true
}

// --- accessors ---------------------------------------------------------------

// Determined reports whether a signal is proven uniquely determined by the
// inputs: uniq's propagation proves it unique, or it is a proven constant.
func (st *AbsState) Determined(id int) bool { return st.isConst[id] || st.prop.IsUnique(id) }

// Bool reports whether a signal is proven ∈ {0,1}.
func (st *AbsState) Bool(id int) bool { return st.isBool[id] }

// Const returns a signal's proven constant value, if any.
func (st *AbsState) Const(id int) (ff.Element, bool) {
	return st.constVal[id], st.isConst[id]
}

// Interval returns a signal's proven signed-representative range (nil when
// unknown). The result must not be mutated.
func (st *AbsState) Interval(id int) *Interval { return st.ival[id] }

// Nonzero reports whether a signal is proven ≠ 0 in every satisfying
// assignment.
func (st *AbsState) Nonzero(id int) bool { return st.nonzero[id] }

// Conflicts returns the recorded unsatisfiability proofs. The result
// aliases internal state and must not be mutated.
func (st *AbsState) Conflicts() []Conflict { return st.conflicts }

// NumConst counts constant facts (excluding the constant-one signal).
func (st *AbsState) NumConst() int { return st.count(st.isConst) - 1 }

// NumBool counts boolean facts.
func (st *AbsState) NumBool() int { return st.count(st.isBool) }

// NumDetermined counts determined facts (inputs and constants included,
// the constant-one signal excluded).
func (st *AbsState) NumDetermined() int {
	n := 0
	for id := 1; id < st.sys.NumSignals(); id++ {
		if st.Determined(id) {
			n++
		}
	}
	return n
}

// NumInterval counts signals with a non-trivial interval fact (excluding
// the constant-one signal).
func (st *AbsState) NumInterval() int {
	n := 0
	for id, iv := range st.ival {
		if id != r1cs.OneID && iv != nil {
			n++
		}
	}
	return n
}

// NumNonzero counts nonzero facts (excluding the constant-one signal).
func (st *AbsState) NumNonzero() int { return st.count(st.nonzero) - 1 }

func (st *AbsState) count(bits []bool) int {
	n := 0
	for _, b := range bits {
		if b {
			n++
		}
	}
	return n
}
