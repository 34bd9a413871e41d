// Package smt implements a satisfiability solver for systems of rank-1
// polynomial equations and linear disequalities over a prime field F_p —
// the query language the QED² analysis needs. It plays the role the Z3 /
// cvc5 finite-field backends play for the original tool (there are no
// usable SMT bindings in pure Go, so the decision procedure is built from
// scratch).
//
// A problem is a conjunction of
//
//	⟨A,x⟩·⟨B,x⟩ = ⟨C,x⟩   (rank-1 equations; linear when A or B is constant)
//	⟨L,x⟩ ≠ 0              (linear disequalities)
//
// The solver combines exhaustive propagation (substitution of resolved
// values, Gaussian elimination of linear equations, single-variable
// quadratic solving with field square roots) with complete case splitting
// on zero products (A·B=0 ⇒ A=0 ∨ B=0) and square patterns (A²=c ⇒
// A=±√c), falling back to bounded value enumeration for residual hard
// cores. Every answer is sound: SAT comes with a checked model, and UNSAT
// is only reported when the search was exhaustive (no incomplete
// enumeration was involved on any refuted branch).
package smt

import (
	"fmt"
	"slices"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// Equation is a rank-1 constraint ⟨A,x⟩·⟨B,x⟩ = ⟨C,x⟩.
type Equation struct {
	A, B, C *poly.LinComb
	// q memoizes the expansion A·B − C inside the solver (see expanded).
	// Code that rewrites a side builds a fresh Equation, which drops it.
	q *poly.Quad
}

// String renders the equation.
func (e Equation) String() string {
	return fmt.Sprintf("(%s)*(%s) = (%s)", e.A, e.B, e.C)
}

// Problem is a conjunction of equations and disequalities over one field.
type Problem struct {
	Field *ff.Field
	Eqs   []Equation
	// Neqs are linear disequalities L ≠ 0.
	Neqs []*poly.LinComb
}

// NewProblem creates an empty problem over f.
func NewProblem(f *ff.Field) *Problem {
	return &Problem{Field: f}
}

// AddEq appends the equation a·b = c.
func (p *Problem) AddEq(a, b, c *poly.LinComb) {
	p.Eqs = append(p.Eqs, Equation{A: a, B: b, C: c})
}

// AddLinearEq appends the linear equation l = 0.
func (p *Problem) AddLinearEq(l *poly.LinComb) {
	p.AddEq(poly.ConstInt(p.Field, 1), l, poly.NewLinComb(p.Field))
}

// AddNeq appends the disequality l ≠ 0.
func (p *Problem) AddNeq(l *poly.LinComb) {
	p.Neqs = append(p.Neqs, l)
}

// Vars returns every variable mentioned in the problem, ascending.
func (p *Problem) Vars() []int {
	var out []int
	add := func(v int, _ ff.Element) { out = append(out, v) }
	for _, e := range p.Eqs {
		e.A.VisitTerms(add)
		e.B.VisitTerms(add)
		e.C.VisitTerms(add)
	}
	for _, n := range p.Neqs {
		n.VisitTerms(add)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Model is a satisfying assignment, defined on every variable of the
// problem it solves.
type Model map[int]ff.Element

// Eval looks a variable up, defaulting to zero.
func (m Model) Eval(x int) ff.Element {
	return m[x]
}

// Check verifies that the model satisfies every constraint of the problem.
func (p *Problem) Check(m Model) error {
	f := p.Field
	at := m.Eval
	for i, e := range p.Eqs {
		l := f.Mul(e.A.Eval(at), e.B.Eval(at))
		r := e.C.Eval(at)
		if l != r {
			return fmt.Errorf("smt: equation %d violated: %s (lhs=%s rhs=%s)", i, e, f.String(l), f.String(r))
		}
	}
	for i, n := range p.Neqs {
		if n.Eval(at).IsZero() {
			return fmt.Errorf("smt: disequality %d violated: %s != 0", i, n)
		}
	}
	return nil
}

// Status is the outcome of a Solve call.
type Status int

// Solver outcomes.
const (
	// StatusSat means a model was found (Outcome.Model is set and checked).
	StatusSat Status = iota
	// StatusUnsat means the problem is proven unsatisfiable.
	StatusUnsat
	// StatusUnknown means the budget ran out or the search was incomplete.
	StatusUnknown
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	case StatusUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Effort breaks a Solve call's work down by mechanism. All counts are
// deterministic for a fixed problem, budget and seed (the search itself is
// deterministic); only a wall-clock deadline can cut them short.
type Effort struct {
	// Eliminations counts variable eliminations performed by propagation
	// (Gaussian substitution of linear equations).
	Eliminations int64
	// Branches counts case-split branches explored by the complete pattern
	// rules (zero products, squares, quadratic roots).
	Branches int64
	// Enumerations counts concrete candidate assignments tried by the
	// value-enumeration fallback (complete on small fields, heuristic
	// probing on large ones).
	Enumerations int64
	// MaxDepth is the deepest search node reached.
	MaxDepth int
}

// Outcome is the full result of a Solve call.
type Outcome struct {
	Status Status
	// Model is set iff Status == StatusSat.
	Model Model
	// Steps is the number of solver steps consumed.
	Steps int64
	// Effort attributes the steps to elimination, branching and
	// enumeration work.
	Effort Effort
	// Reason is a short human-readable note (budget exhausted, incomplete
	// enumeration, …) for Unknown outcomes.
	Reason string
	// ResourceLimited marks Unknown outcomes caused by an exhaustible
	// resource — step budget, wall-clock deadline, cancellation, or an
	// injected fault — rather than by the search being inherently
	// incomplete on this problem. Resource-limited outcomes are not
	// replay-safe: a re-run with a bigger budget could decide the query, so
	// memo caches must not retain them (see core/scheduler.go).
	ResourceLimited bool
}
