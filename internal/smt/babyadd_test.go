package smt

import (
	"testing"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// babyAddProblem builds the hand-built BabyAdd uniqueness query (shared:
// x1=1 y1=2 x2=3 y2=4 beta=5 gamma=6 delta=7 tau=8; xout=9 yout=10; primed
// +20) asking whether output out (9 for xout, 10 for yout) can differ
// between the two copies.
func babyAddProblem(out int) *Problem {
	f := ff.BN254()
	a := f.NewElement(168700)
	d := f.NewElement(168696)
	v := func(x int) *poly.LinComb { return poly.Var(f, x) }
	p := NewProblem(f)
	// E1: x1*y2 = beta
	p.AddEq(v(1), v(4), v(5))
	// E2: y1*x2 = gamma
	p.AddEq(v(2), v(3), v(6))
	// E3: (-a*x1 + y1)*(x2+y2) = delta
	p.AddEq(v(1).Scale(f.Neg(a)).Add(v(2)), v(3).Add(v(4)), v(7))
	// E4: beta*gamma = tau
	p.AddEq(v(5), v(6), v(8))
	onePlus := poly.ConstInt(f, 1).AddTerm(8, d)
	oneMinus := poly.ConstInt(f, 1).AddTerm(8, f.Neg(d))
	rhsY := v(7).Add(v(5).Scale(a)).Sub(v(6))
	// E5/E5': (1+d*tau)*xout = beta+gamma
	p.AddEq(onePlus, v(9), v(5).Add(v(6)))
	p.AddEq(onePlus, v(29), v(5).Add(v(6)))
	// E6/E6': (1-d*tau)*yout = delta + a*beta - gamma
	p.AddEq(oneMinus, v(10), rhsY)
	p.AddEq(oneMinus, v(30), rhsY)
	p.AddNeq(v(out).Sub(v(out + 20)))
	return p
}

// BabyJubJub's parameters make the twisted Edwards addition complete (d is
// a non-square), so xout is uniquely determined and the query must be
// UNSAT — reaching that verdict requires the pair-difference and
// proportional-square rules.
func TestBabyAddXoutUnsat(t *testing.T) {
	out := Solve(babyAddProblem(9), &Options{MaxSteps: 200000, Seed: 1})
	if out.Status != StatusUnsat {
		t.Fatalf("xout query: %v (steps=%d reason=%s), want unsat", out.Status, out.Steps, out.Reason)
	}
}

// The yout query is also genuinely unique (legendre(a·d) = -1 makes the
// forgery class empty), but the proof needs Gröbner-style reasoning beyond
// this solver. The required outcome is "never SAT": Unknown is acceptable,
// a model would be unsound.
func TestBabyAddYoutNeverSat(t *testing.T) {
	out := Solve(babyAddProblem(10), &Options{MaxSteps: 200000, Seed: 1})
	if out.Status == StatusSat {
		t.Fatalf("yout query SAT — unsound (model %v)", out.Model)
	}
}
