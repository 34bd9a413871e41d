package sa

import (
	"fmt"

	"qed2/internal/ff"
)

// Verify replays the derived facts against the original constraints as an
// independent consistency check of the abstract interpreter. No verdict
// reads the facts; a failed replay on a satisfiable system is an absint
// bug, and on an unsatisfiable one it is that system's proof, which -lint
// reports as a range-violation finding. Four layers run, cheapest first:
//
//  1. Constant replay: with every proven constant substituted, no original
//     constraint may reduce to a nonzero constant.
//  2. Cross-domain consistency: each signal's facts must agree with each
//     other (a boolean constant is 0 or 1, a nonzero signal is not the
//     constant 0).
//  3. Admissibility replay: re-deriving each constraint's signed value
//     window from the final ranges, some multiple of p must fit — the
//     window check Interpret runs on the residuals, evaluated here on the
//     original (unsubstituted) constraints.
//  4. Witness sampling: for each non-constant boolean, both candidates 0
//     and 1 are substituted into the signal's residual constraints; if
//     each contradicts some constraint the abstract set is empty — a
//     derivation bug the rules missed.
//
// Any conflict recorded during interpretation also fails Verify: a
// conflict claims the system is unsatisfiable, and a fact derived from an
// unsatisfiable system holds vacuously.
func (st *AbsState) Verify() error {
	f := st.sys.Field()
	// Layer 1: constant replay.
	for ci := 0; ci < st.sys.NumConstraints(); ci++ {
		q := st.prop.Quad(ci)
		for _, v := range q.Vars() {
			if st.isConst[v] {
				q = q.SubstituteValue(v, st.constVal[v])
			}
		}
		if c, isConst := q.IsConst(); isConst && !c.IsZero() {
			return fmt.Errorf("sa: constant replay failed on constraint #%d: residual %s ≠ 0", ci, f.String(c))
		}
	}

	// Layer 2: cross-domain consistency.
	for id := 0; id < st.sys.NumSignals(); id++ {
		if !st.isConst[id] {
			continue
		}
		v := st.constVal[id]
		if st.isBool[id] && !v.IsZero() && !f.IsOne(v) {
			return fmt.Errorf("sa: boolean signal %s pinned to non-boolean constant %s", st.sys.Name(id), f.String(v))
		}
		if st.nonzero[id] && v.IsZero() {
			return fmt.Errorf("sa: nonzero signal %s pinned to 0", st.sys.Name(id))
		}
	}

	// Layer 3: range admissibility replay on the original constraints.
	for ci := 0; ci < st.sys.NumConstraints(); ci++ {
		if lo, hi, admits := st.window(st.prop.Quad(ci)); !admits {
			return fmt.Errorf("sa: range replay failed on constraint #%d: value window [%v, %v] admits no multiple of the modulus", ci, lo, hi)
		}
	}

	// Layer 4: witness sampling over the non-constant booleans.
	sampled := 0
	for id := 1; id < st.sys.NumSignals() && sampled < maxSampledSignals; id++ {
		if !st.isBool[id] || st.isConst[id] {
			continue
		}
		sampled++
		if !st.candidateAdmissible(id, f.Zero()) && !st.candidateAdmissible(id, f.One()) {
			return fmt.Errorf("sa: witness sampling failed on signal %s: every value in %s is contradicted by some constraint", st.sys.Name(id), boolRange)
		}
	}

	if len(st.conflicts) > 0 {
		c := st.conflicts[0]
		return fmt.Errorf("sa: range conflict recorded (%d total): %s", len(st.conflicts), c.Msg)
	}
	return nil
}

// maxSampledSignals bounds the signals sampled per Verify call, so the
// check stays O(small).
const maxSampledSignals = 64

// candidateAdmissible substitutes x := v (plus all proven constants, via
// the cached residuals) into every constraint mentioning x and reports
// whether none reduces to a nonzero constant.
func (st *AbsState) candidateAdmissible(id int, v ff.Element) bool {
	for _, ci := range st.sys.ConstraintsOf(id) {
		q := st.residual[ci].SubstituteValue(id, v)
		if c, isConst := q.IsConst(); isConst && !c.IsZero() {
			return false
		}
	}
	return true
}
