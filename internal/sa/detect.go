package sa

import (
	"fmt"
	"math/big"
	"sort"

	"qed2/internal/circom"
	"qed2/internal/ff"
	"qed2/internal/obs"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
)

// Lint is AnalyzeProgram's output: the facts Analyze returns plus the
// pattern detectors' findings.
type Lint struct {
	*Result
	// Findings are the detector results, in canonical order (sortFindings).
	Findings []Finding
}

// AnalyzeProgram runs the pass over a compiled circom program and evaluates
// every pattern detector on its facts: the constraint-system detectors, plus
// the program-level ones that need the witness-generation expressions the
// compiler attached to `<--` hints (information a bare .r1cs cannot carry;
// circom.ProgramFromSystem wraps one with none). Detectors are pure
// functions of the system, the component graph and the facts, so finding
// sets are deterministic.
func AnalyzeProgram(prog *circom.Program, opts *Options) *Lint {
	o := opts.withDefaults()
	sys := prog.System
	res, g := analyze(sys, o)
	ds := o.Obs.Start(o.ObsParent, "sa.detect")
	l := &Lint{Result: res}
	detectReachability(sys, l)
	detectHints(sys, l)
	detectUnused(sys, l)
	detectDangling(sys, g, l)
	detectNonBinarySelector(sys, l)
	detectNonBinaryDecomposition(sys, l)
	detectRangeViolation(sys, l)
	detectOverflowProneSum(sys, l)
	detectZeroDivisors(prog, l)
	sortFindings(l.Findings)
	ds.End(obs.KV("findings", len(l.Findings)))
	o.Metrics.Counter("sa.findings").Add(int64(len(l.Findings)))
	return l
}

// detectRangeViolation surfaces the abstract interpreter's conflicts: a
// boolean signal pinned to another constant, or a constraint whose
// established facts admit no solution. Since every fact is a theorem about
// satisfying assignments, a conflict proves the system unsatisfiable —
// either a constraint forces a signal outside its decomposition/tag range
// (the array-bounds-style defect) or the circuit admits no witness at all.
func detectRangeViolation(sys *r1cs.System, l *Lint) {
	for _, c := range l.Abs.Conflicts() {
		loc := r1cs.SourceLoc{}
		if c.Constraint >= 0 {
			loc = sys.Constraint(c.Constraint).Loc
		} else if c.Signal > 0 {
			loc = sys.Signal(c.Signal).Loc
		}
		sig := 0
		if c.Signal > 0 {
			sig = c.Signal
		}
		l.Findings = append(l.Findings,
			newFinding(sys, "range-violation", SeverityError, sig, c.Constraint, loc, c.Msg))
	}
}

// detectOverflowProneSum flags linear constraints whose range-bounded terms
// span at least the field modulus: two distinct in-range assignments can
// then alias the same field value, so the equation no longer pins the
// bounded signals' integer interpretation (the AliasCheck wraparound
// class). Constraints whose bounded span stays below p are wrap-free by the
// window argument of Interpret's window check. Wrap-free is not alias-free:
// a coefficient above (p−1)/2 has a negative signed value, so
// Num2Bits(254)'s bit sum spans exactly p − 1 and stays silent although its
// bits alias.
func detectOverflowProneSum(sys *r1cs.System, l *Lint) {
	f := sys.Field()
	p := f.Modulus()
	for ci := 0; ci < sys.NumConstraints(); ci++ {
		c := sys.Constraint(ci)
		q := l.Abs.prop.Quad(ci)
		if !q.IsLinear() {
			continue
		}
		// The range-bounded terms are the non-constant booleans: c·x with
		// x ∈ [0, 1] spans |c|.
		extent := new(big.Int)
		bounded := 0
		q.Lin().VisitTerms(func(v int, coeff ff.Element) {
			if !l.Abs.isBool[v] || l.Abs.isConst[v] {
				return
			}
			c := f.Signed(coeff)
			extent.Add(extent, c.Abs(c))
			bounded++
		})
		if bounded < 2 || extent.Cmp(p) < 0 {
			continue
		}
		l.Findings = append(l.Findings,
			newFinding(sys, "overflow-prone-sum", SeverityWarning, 0, ci, c.Loc,
				fmt.Sprintf("constraint #%d sums %d range-bounded signals whose combined span (%d bits) reaches the field modulus (%d bits): distinct in-range assignments can alias the same field value%s",
					ci, bounded, extent.BitLen(), f.BitLen(), tagSuffix(c.Tag))))
	}
}

// detectReachability renders the reachability facts: an output with no
// constraint path from any input that is not statically determined either
// is a definite under-constraint candidate — any satisfying assignment can
// be perturbed on the output's component without touching the inputs — but
// the verdict is still core's to make: core reports unsafe only on a
// confirmed witness pair.
func detectReachability(sys *r1cs.System, l *Lint) {
	for _, out := range l.UnreachableOutputs {
		sig := sys.Signal(out)
		msg := fmt.Sprintf("output %s has no constraint path from any input and is not statically determined: the prover can vary it freely (candidate witness pair: any two values)", sig.Name)
		if len(sys.ConstraintsOf(out)) == 0 {
			msg = fmt.Sprintf("output %s appears in no constraint at all: the prover can assign it any value", sig.Name)
		}
		l.Findings = append(l.Findings,
			newFinding(sys, "unreachable-output", SeverityError, out, -1, sig.Loc, msg))
	}
}

// detectHints flags `<--` signals: every use advisorily (the Circomspect
// "signal assignment" warning), and as an error when the signal appears in
// no constraint at all — nothing can pin such a value.
func detectHints(sys *r1cs.System, l *Lint) {
	for id := 1; id < sys.NumSignals(); id++ {
		sig := sys.Signal(id)
		if !sig.Hinted {
			continue
		}
		if len(sys.ConstraintsOf(id)) == 0 {
			sev := SeverityWarning
			note := "no constraint mentions it, so the prover may choose any value"
			if sig.Kind == r1cs.KindOutput {
				sev = SeverityError
				note = "no constraint mentions this output, so the circuit is under-constrained"
			}
			l.Findings = append(l.Findings,
				newFinding(sys, "unconstrained-hint", sev, id, -1, sig.Loc,
					fmt.Sprintf("signal %s is assigned with <-- but %s", sig.Name, note)))
			continue
		}
		l.Findings = append(l.Findings,
			newFinding(sys, "hinted-signal", SeverityInfo, id, -1, sig.Loc,
				fmt.Sprintf("signal %s is assigned with <-- (witness-only): verify the constraints mentioning it pin the value", sig.Name)))
	}
}

// detectUnused flags non-hinted signals that no constraint mentions:
// unused inputs (dead parameters weaken the interface contract) and
// floating internals from metadata-free .r1cs files.
func detectUnused(sys *r1cs.System, l *Lint) {
	for id := 1; id < sys.NumSignals(); id++ {
		sig := sys.Signal(id)
		if sig.Hinted || sig.Kind == r1cs.KindOutput || len(sys.ConstraintsOf(id)) > 0 {
			continue
		}
		what := "internal signal"
		if sig.Kind == r1cs.KindInput {
			what = "input signal"
		}
		l.Findings = append(l.Findings,
			newFinding(sys, "unused-signal", SeverityWarning, id, -1, sig.Loc,
				fmt.Sprintf("%s %s appears in no constraint", what, sig.Name)))
	}
}

// detectDangling flags constraints whose entire signal set lives in
// components containing neither inputs nor outputs: they constrain wires
// that cannot influence or be influenced by the circuit's interface.
func detectDangling(sys *r1cs.System, g *Graph, l *Lint) {
	for ci := 0; ci < sys.NumConstraints(); ci++ {
		c := sys.Constraint(ci)
		relevant := false
		seen := false
		for _, v := range c.Vars() {
			if v == r1cs.OneID {
				continue
			}
			seen = true
			comp := g.ComponentOf(v)
			if comp >= 0 && (g.compHasInput[comp] || g.compHasOutput[comp]) {
				relevant = true
				break
			}
		}
		if !seen || relevant {
			continue
		}
		l.Findings = append(l.Findings,
			newFinding(sys, "dangling-constraint", SeverityWarning, 0, ci, c.Loc,
				fmt.Sprintf("constraint #%d touches no signal connected to an input or output%s", ci, tagSuffix(c.Tag))))
	}
}

// detectNonBinarySelector flags the mux shape s·(a−b)+b where the selector
// s is not boolean-constrained: a malicious prover can pick s outside
// {0,1} and produce an output that is neither branch. The R1CS shape is a
// constraint whose A side is a single variable s and whose B side is a
// constant-free difference (coefficients summing to zero).
func detectNonBinarySelector(sys *r1cs.System, l *Lint) {
	abs := l.Abs
	f := sys.Field()
	for ci := 0; ci < sys.NumConstraints(); ci++ {
		c := sys.Constraint(ci)
		s, single := c.A.IsSingleVar()
		if !single || s == r1cs.OneID || c.B.IsConst() || c.B.NumTerms() < 2 {
			continue
		}
		if !c.B.Constant().IsZero() {
			continue
		}
		sum := f.Zero()
		c.B.VisitTerms(func(_ int, coeff ff.Element) { sum = f.Add(sum, coeff) })
		if !sum.IsZero() {
			continue
		}
		if abs.Bool(s) {
			continue
		}
		if _, isConst := abs.Const(s); isConst {
			continue
		}
		l.Findings = append(l.Findings,
			newFinding(sys, "non-binary-selector", SeverityWarning, s, ci, c.Loc,
				fmt.Sprintf("signal %s selects between branches in constraint #%d but is not constrained to {0,1}%s", sys.Name(s), ci, tagSuffix(c.Tag))))
	}
}

// detectNonBinaryDecomposition flags binary-decomposition constraints —
// linear equations with super-increasing coefficients over signals intended
// as bits — in which some "bit" has no boolean constraint: the subset-sum
// uniqueness argument collapses and the decomposition admits multiple
// solutions (the classic buggy-Num2Bits pattern).
func detectNonBinaryDecomposition(sys *r1cs.System, l *Lint) {
	abs := l.Abs
	for ci := 0; ci < sys.NumConstraints(); ci++ {
		c := sys.Constraint(ci)
		q := abs.prop.Quad(ci)
		if !q.IsLinear() {
			continue
		}
		// Candidate bit positions: variables that are boolean OR look like
		// they were meant to be (the shape fires only when ≥ 2 variables
		// have strictly super-increasing magnitudes and most are boolean).
		var bits, nonBool []int
		for _, v := range q.Vars() {
			if v == r1cs.OneID || abs.Determined(v) && !abs.Bool(v) {
				continue
			}
			bits = append(bits, v)
			if !abs.Bool(v) {
				nonBool = append(nonBool, v)
			}
		}
		if len(bits) < 2 || len(nonBool) == 0 || len(nonBool)*2 > len(bits) {
			continue // not decomposition-shaped, or too few bools to tell
		}
		if !superIncreasing(q, bits) {
			continue
		}
		for _, v := range nonBool {
			l.Findings = append(l.Findings,
				newFinding(sys, "non-binary-in-decomposition", SeverityWarning, v, ci, c.Loc,
					fmt.Sprintf("signal %s is used as a bit in decomposition constraint #%d but is never constrained to {0,1}: the decomposition is not unique%s", sys.Name(v), ci, tagSuffix(c.Tag))))
		}
	}
}

// superIncreasing reports whether the linear coefficients of the given
// variables have strictly super-increasing signed magnitudes (each exceeds
// the sum of all smaller ones) — the shape of a binary decomposition.
func superIncreasing(q *poly.Quad, vars []int) bool {
	f := q.Field()
	mags := make([]*big.Int, 0, len(vars))
	for _, v := range vars {
		c := q.Lin().Coeff(v)
		if c.IsZero() {
			return false
		}
		mags = append(mags, new(big.Int).Abs(f.Signed(c)))
	}
	sort.Slice(mags, func(i, j int) bool { return mags[i].Cmp(mags[j]) < 0 })
	sum := new(big.Int)
	for _, m := range mags {
		if m.Cmp(sum) <= 0 {
			return false
		}
		sum.Add(sum, m)
	}
	return true
}

// tagSuffix renders a constraint tag for messages.
func tagSuffix(tag string) string {
	if tag == "" {
		return ""
	}
	return " [" + tag + "]"
}
