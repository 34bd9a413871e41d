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
// system over F_p. Three domains are stored per signal:
//
//   - Const: the signal provably takes one fixed value in every satisfying
//     assignment (derived by constant propagation through constraints).
//   - Bool: some constraint forces the signal into {0,1} (the s·(s−1)=0
//     pattern, possibly after constant substitution).
//   - Nonzero: no satisfying assignment gives the signal the value 0.
//
// A signal's value range (Interval, interval.go) is derived from the first
// two: a constant's singleton, or [0, 1] for a boolean.
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
// recordNonzero) so the cross-domain checks run on every update and Verify
// sees a coherent state; the `rangefact` vet check enforces this
// mechanically.
type AbsState struct {
	sys *r1cs.System
	// prop holds the uniqueness facts and each constraint's expansion
	// A·B − C, which the residuals, the detectors and Verify all read.
	prop *uniq.Propagator
	// constVal[id] is the proven constant (valid iff isConst[id]).
	constVal []ff.Element
	isConst  []bool
	isBool   []bool
	// nonzero[id] marks signals proven ≠ 0.
	nonzero []bool
	// residual[ci] is constraint ci's Quad with every proven constant
	// substituted.
	residual []*poly.Quad

	// conflicts lists proofs of unsatisfiability — facts that exclude each
	// other, or a constraint that reduces to a nonzero constant or that no
	// value in the established ranges satisfies — surfaced as
	// range-violation findings.
	conflicts []Conflict

	// constGen counts constant facts; scanGen[ci] is the constGen at which
	// residual[ci] was last scanned. Equal generations mean no new constant
	// can occur in the residual, so applyConsts returns the cached pointer
	// without rescanning (and without allocating).
	constGen int
	scanGen  []int

	// full is the range of a signal with no const or bool fact.
	full *Interval
	pMod *big.Int
}

// Conflict records a proof that no satisfying assignment exists. Signal is
// the signal whose facts exclude each other, or -1 when constraint
// Constraint reduces to a nonzero constant or its value window admits no
// multiple of p; Constraint is -1 when the clash came from a constant
// rather than from a constraint.
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
		nonzero:  make([]bool, n),
		residual: make([]*poly.Quad, sys.NumConstraints()),
		scanGen:  make([]int, sys.NumConstraints()),
		full:     fullRange(sys.Field()),
		pMod:     sys.Field().Modulus(),
	}
	for i := range st.scanGen {
		st.scanGen[i] = -1
	}
	st.setConst(r1cs.OneID, sys.Field().One())
	for ci := range st.residual {
		st.residual[ci] = st.prop.Quad(ci)
	}
	// Round-based fixpoint: scan all constraints in index order until a
	// full round derives nothing new. Every domain is a monotone bit per
	// signal (a constant is set once), so this terminates within one round
	// per fact.
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
		if st.recordBool(x) {
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
// (a) a constant is checked against the signal's other facts, and (b) the
// constant generation counter driving the incremental scan stays coherent.
// Direct writes to the fact arrays outside these helpers are rejected by
// the `rangefact` vet analyzer.

// setConst records a constant fact (constants are nonzero when the value
// is).
func (st *AbsState) setConst(id int, v ff.Element) bool {
	if st.isConst[id] {
		return false
	}
	f := st.sys.Field()
	if st.isBool[id] && !v.IsZero() && !f.IsOne(v) {
		st.recordConflict(-1, id,
			fmt.Sprintf("signal %s is pinned to %v but its established range is %s", st.sys.Name(id), f.Signed(v), boolRange))
	}
	if st.nonzero[id] && v.IsZero() {
		st.recordConflict(-1, id,
			fmt.Sprintf("signal %s is pinned to 0 but was proven nonzero", st.sys.Name(id)))
	}
	st.isConst[id] = true
	st.constVal[id] = v
	st.constGen++
	if !v.IsZero() {
		st.nonzero[id] = true
	}
	return true
}

// recordBool records a booleanness fact.
func (st *AbsState) recordBool(id int) bool {
	if st.isBool[id] {
		return false
	}
	st.isBool[id] = true
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

// ivOf returns the signal's range, falling back to the full signed range
// (the trivially-true interval every signal satisfies).
func (st *AbsState) ivOf(id int) *Interval {
	if iv := st.Interval(id); iv != nil {
		return iv
	}
	return st.full
}

// --- range rules -------------------------------------------------------------

// window returns the exact integer range [lo, hi] of q's value over signed
// representatives — coefficients taken signed, each variable ranging over
// its range (the full signed range when it has none) — and whether some
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

// checkWindows records a conflict for every constraint whose residual
// reduces to a nonzero constant, or whose value window under the final
// ranges contains no multiple of p: the established facts exclude every
// solution of that constraint. It runs once, after the fixpoint, since no
// rule reads these conflicts. The residuals hold no constant signal, so a
// residual none of whose variables is boolean is skipped: a variable
// without a range spans the full signed range, which widens the window to
// at least p − 1 and so always admits a multiple of p.
func (st *AbsState) checkWindows() {
	f := st.sys.Field()
	for ci, q := range st.residual {
		if c, ok := q.IsConst(); ok {
			if !c.IsZero() {
				st.recordConflict(ci, -1,
					fmt.Sprintf("constraint #%d reduces to the nonzero constant %s once the proven constants are substituted", ci, f.String(c)))
			}
			continue
		}
		info := false
		q.Lin().VisitTerms(func(x int, _ ff.Element) {
			if st.isBool[x] {
				info = true
			}
		})
		q.VisitQuadTerms(func(p poly.VarPair, _ ff.Element) {
			if st.isBool[p.X] || st.isBool[p.Y] {
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

// Interval returns a signal's proven signed-representative range: the
// singleton of a constant, [0, 1] for a boolean, nil otherwise. The result
// must not be mutated.
func (st *AbsState) Interval(id int) *Interval {
	switch {
	case st.isConst[id]:
		v := st.sys.Field().Signed(st.constVal[id])
		return &Interval{Lo: v, Hi: v}
	case st.isBool[id]:
		return boolRange
	}
	return nil
}

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
