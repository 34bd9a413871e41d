package sa

import (
	"fmt"

	"qed2/internal/circom"
	"qed2/internal/r1cs"
)

// detectZeroDivisors walks the witness expressions of unconstrained (`<--`)
// assignments looking for division by a non-constant denominator. At
// witness time a zero denominator either aborts generation (field division)
// or silently produces garbage (integer div/mod), and in the classic
// inverse-hint idiom (`inv <-- 1/x`) the accompanying constraint is
// satisfied by inv=0 when x=0 — the textbook IsZero bug. A division that
// only executes under a witness-time guard (the true/false arm of a `?:`)
// is reported at Info severity; an unguarded one is a Warning.
func detectZeroDivisors(prog *circom.Program, l *Lint) {
	sys := prog.System
	for i := range prog.Assignments {
		a := &prog.Assignments[i]
		if a.Constrained {
			continue
		}
		loc := sys.Signal(a.Target).Loc
		if loc.IsZero() {
			// Fall back to the assignment's own position inside the main
			// template when the signal was declared elsewhere.
			loc = r1cs.SourceLoc{Template: prog.MainTemplate, Line: a.Pos.Line, Col: a.Pos.Col}
		}
		walkDivisors(a.Expr, false, func(div circom.WExpr, op circom.TokKind, guarded bool) {
			if id, ok := divisorSignal(div); ok && l.Abs.Nonzero(id) {
				// The range/nonzero domains prove the denominator cannot be
				// zero in any satisfying assignment, discharging the warning.
				l.Findings = append(l.Findings,
					newFinding(sys, "nonzero-divisor-proved", SeverityInfo, a.Target, -1, loc,
						fmt.Sprintf("hint for signal %s divides by signal %s, which the range analysis proves nonzero in every satisfying assignment%s",
							sys.Name(a.Target), sys.Name(id), tagNote(l.Abs, id))))
				return
			}
			sev := SeverityWarning
			note := "if the denominator is zero, witness generation fails or the hint silently takes an arbitrary value"
			if guarded {
				sev = SeverityInfo
				note = "the division is behind a witness-time guard; verify the guard rules out a zero denominator"
			}
			l.Findings = append(l.Findings,
				newFinding(sys, "possibly-zero-divisor", sev, a.Target, -1, loc,
					fmt.Sprintf("hint for signal %s divides by non-constant expression %s (operator %q): %s",
						sys.Name(a.Target), div.String(), tokenText(op), note)))
		})
	}
}

// divisorSignal extracts the signal read by a divisor expression when it is
// a bare (possibly scaled) signal: a WSig node, or a single-term linear
// combination with no constant — the only shapes whose zero-ness coincides
// with a single signal's.
func divisorSignal(e circom.WExpr) (int, bool) {
	switch w := e.(type) {
	case *circom.WSig:
		return w.ID, true
	case *circom.WLin:
		if x, ok := w.LC.IsSingleVar(); ok && w.LC.Constant().IsZero() {
			return x, true
		}
	}
	return 0, false
}

// tagNote renders a signal's tag set as a message suffix.
func tagNote(abs *AbsState, id int) string {
	if ts := abs.TagString(id); ts != "" {
		return " " + ts
	}
	return ""
}

// walkDivisors visits every division/modulo node of a witness expression
// whose denominator is not a compile-time constant, tracking whether the
// node sits under a conditional arm.
func walkDivisors(e circom.WExpr, guarded bool, fn func(div circom.WExpr, op circom.TokKind, guarded bool)) {
	switch w := e.(type) {
	case *circom.WBin:
		switch w.Op {
		case circom.TokSlash, circom.TokIntDiv, circom.TokPercent:
			if !isConstExpr(w.R) {
				fn(w.R, w.Op, guarded)
			}
		}
		walkDivisors(w.L, guarded, fn)
		walkDivisors(w.R, guarded, fn)
	case *circom.WUn:
		walkDivisors(w.X, guarded, fn)
	case *circom.WCond:
		walkDivisors(w.C, guarded, fn)
		walkDivisors(w.T, true, fn)
		walkDivisors(w.F, true, fn)
	}
	// WConst, WSig, WLin, WQuad contain no division nodes.
}

// isConstExpr reports whether a witness expression references no signals —
// i.e. it evaluates to the same value in every witness.
func isConstExpr(e circom.WExpr) bool {
	deps := map[int]bool{}
	e.AddDeps(deps)
	return len(deps) == 0
}

// tokenText renders an operator token for messages.
func tokenText(op circom.TokKind) string { return op.String() }
