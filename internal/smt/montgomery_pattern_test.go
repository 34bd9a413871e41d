package smt

import (
	"testing"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// TestMontgomeryDoublePattern is a regression test for the vanishing-
// denominator search pattern: the uniqueness query of circomlib's
// MontgomeryDouble must come back SAT via the in[1] = 0 branch, which
// requires enumerating the root of a single-variable factor that is NOT
// the busiest variable.
func TestMontgomeryDoublePattern(t *testing.T) {
	p := montgomeryDoubleProblem()
	out := Solve(p, &Options{MaxSteps: 100000, Seed: 1})
	if out.Status != StatusSat {
		t.Fatalf("status=%v steps=%d reason=%s, want sat", out.Status, out.Steps, out.Reason)
	}
	if err := p.Check(out.Model); err != nil {
		t.Fatal(err)
	}
	// The model must exercise the vanishing denominator.
	if !out.Model.Eval(2).IsZero() {
		t.Errorf("expected in[1] = 0 in the model, got %v", out.Model.Eval(2))
	}
}

// montgomeryDoubleProblem is the uniqueness query of circomlib's
// MontgomeryDouble for out[0].
func montgomeryDoubleProblem() *Problem {
	f := ff.BN254()
	// vars: in0=1 in1=2 out0=3 out1=4 lamda=5 x1_2=6; primed +10
	v := func(x int) *poly.LinComb { return poly.Var(f, x) }
	c := func(k int64) *poly.LinComb { return poly.ConstInt(f, k) }
	p := NewProblem(f)
	// C0: in0*in0 = x1_2 (shared)
	p.AddEq(v(1), v(1), v(6))
	// C1: lamda * (2*in1) = 337396*in0 + 3*x1_2 + 1
	rhs := c(1).AddTerm(1, f.NewElement(337396)).AddTerm(6, f.NewElement(3))
	p.AddEq(v(5), v(2).Scale(f.NewElement(2)), rhs)
	p.AddEq(v(15), v(2).Scale(f.NewElement(2)), rhs)
	// C2: lamda*lamda = 2*in0 + out0 + 168698
	rhs2 := c(168698).AddTerm(1, f.NewElement(2))
	p.AddEq(v(5), v(5), rhs2.AddTerm(3, f.NewElement(1)))
	p.AddEq(v(15), v(15), rhs2.AddTerm(13, f.NewElement(1)))
	// C3: lamda*(in0 - out0) = in1 + out1
	p.AddEq(v(5), v(1).Sub(v(3)), v(2).Add(v(4)))
	p.AddEq(v(15), v(1).Sub(v(13)), v(2).Add(v(14)))
	p.AddNeq(v(3).Sub(v(13)))
	return p
}
