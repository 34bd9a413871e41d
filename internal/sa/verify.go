package sa

import (
	"fmt"
	"math/big"
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
//     other (a constant lies in its interval, a boolean constant is 0 or 1,
//     a nonzero signal is not the constant 0) and be well-formed (intervals
//     inside the signed range).
//  3. Admissibility replay: re-deriving each constraint's signed value
//     window from the final intervals, some multiple of p must fit — the
//     window check Interpret runs on the residuals, evaluated here on the
//     original (unsubstituted) constraints.
//  4. Witness sampling: for signals whose interval is tiny (at most
//     maxSampleCandidates values), each candidate is substituted into the
//     signal's residual constraints; if every candidate contradicts some
//     constraint the abstract set is empty — a derivation bug the meets
//     missed.
//
// Any conflict recorded during interpretation also fails Verify: a
// conflict claims the system is unsatisfiable, and a fact derived from an
// unsatisfiable system holds vacuously.
func (st *AbsState) Verify() error {
	// Layer 1: constant replay.
	for ci := 0; ci < st.sys.NumConstraints(); ci++ {
		q := st.prop.Quad(ci)
		for _, v := range q.Vars() {
			if st.isConst[v] {
				q = q.SubstituteValue(v, st.constVal[v])
			}
		}
		if c, isConst := q.IsConst(); isConst && !c.IsZero() {
			return fmt.Errorf("sa: constant replay failed on constraint #%d: residual %s ≠ 0", ci, st.sys.Field().String(c))
		}
	}

	// Layer 2: cross-domain consistency.
	f := st.sys.Field()
	for id := 0; id < st.sys.NumSignals(); id++ {
		if iv := st.ival[id]; iv != nil {
			if iv.Lo.Cmp(iv.Hi) > 0 {
				return fmt.Errorf("sa: malformed interval %s on signal %s", iv, st.sys.Name(id))
			}
			if iv.Lo.Cmp(st.loLim) < 0 || iv.Hi.Cmp(st.hiLim) > 0 {
				return fmt.Errorf("sa: interval %s on signal %s leaves the signed range", iv, st.sys.Name(id))
			}
		}
		if !st.isConst[id] {
			continue
		}
		s := f.Signed(st.constVal[id])
		if iv := st.ival[id]; iv != nil && !iv.Contains(s) {
			return fmt.Errorf("sa: constant %v on signal %s outside its interval %s", s, st.sys.Name(id), iv)
		}
		if st.isBool[id] && s.Sign() != 0 && s.Cmp(bigOne) != 0 {
			return fmt.Errorf("sa: boolean signal %s pinned to non-boolean constant %v", st.sys.Name(id), s)
		}
		if st.nonzero[id] && st.constVal[id].IsZero() {
			return fmt.Errorf("sa: nonzero signal %s pinned to 0", st.sys.Name(id))
		}
	}

	// Layer 3: interval admissibility replay on the original constraints.
	for ci := 0; ci < st.sys.NumConstraints(); ci++ {
		if lo, hi, admits := st.window(st.prop.Quad(ci)); !admits {
			return fmt.Errorf("sa: range replay failed on constraint #%d: value window [%v, %v] admits no multiple of the modulus", ci, lo, hi)
		}
	}

	// Layer 4: witness sampling over tiny abstract sets.
	sampled := 0
	for id := 1; id < st.sys.NumSignals() && sampled < maxSampledSignals; id++ {
		cands := st.candidates(id)
		if cands == nil {
			continue
		}
		sampled++
		admissible := false
		for _, v := range cands {
			if st.candidateAdmissible(id, v) {
				admissible = true
				break
			}
		}
		if !admissible {
			return fmt.Errorf("sa: witness sampling failed on signal %s: every value in %s is contradicted by some constraint", st.sys.Name(id), st.ival[id])
		}
	}

	if len(st.conflicts) > 0 {
		c := st.conflicts[0]
		return fmt.Errorf("sa: range conflict recorded (%d total): %s", len(st.conflicts), c.Msg)
	}
	return nil
}

// Sampling limits: candidate sets larger than maxSampleCandidates are
// skipped (the abstract set is not "tiny"), and at most maxSampledSignals
// signals are sampled per Verify call so the check stays O(small).
const (
	maxSampleCandidates = 4
	maxSampledSignals   = 64
)

// candidates enumerates a non-constant signal's interval when it has at most
// maxSampleCandidates members, returning nil otherwise.
func (st *AbsState) candidates(id int) []*big.Int {
	iv := st.ival[id]
	if iv == nil || st.isConst[id] {
		return nil
	}
	width := iv.Width()
	if !width.IsInt64() || width.Int64() >= maxSampleCandidates {
		return nil
	}
	var out []*big.Int
	for v := new(big.Int).Set(iv.Lo); v.Cmp(iv.Hi) <= 0; v.Add(v, bigOne) {
		out = append(out, new(big.Int).Set(v))
	}
	return out
}

// candidateAdmissible substitutes x := v (plus all proven constants, via
// the cached residuals) into every constraint mentioning x and reports
// whether none reduces to a nonzero constant.
func (st *AbsState) candidateAdmissible(id int, v *big.Int) bool {
	e := st.sys.Field().FromBig(v)
	for _, ci := range st.sys.ConstraintsOf(id) {
		q := st.residual[ci].SubstituteValue(id, e)
		if c, isConst := q.IsConst(); isConst && !c.IsZero() {
			return false
		}
	}
	return true
}
