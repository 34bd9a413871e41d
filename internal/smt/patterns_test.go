package smt

import (
	"testing"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// --- proportional-factor detection -------------------------------------------------

func TestProportionalDetection(t *testing.T) {
	f := f97
	x := poly.Var(f, 0)
	y := poly.Var(f, 1)
	cases := []struct {
		a, b  *poly.LinComb
		wantK int64
		ok    bool
	}{
		{x, x, 1, true},
		{x.Scale(f.NewElement(3)), x, 3, true},
		{x.Neg(), x, 96, true},
		{x.Add(y).Scale(f.NewElement(5)), x.Add(y), 5, true},
		{x.Add(y), x.Sub(y), 0, false},
		{x, y, 0, false},
		{x.AddConst(f.NewElement(1)), x, 0, false},
		{poly.ConstInt(f, 3), x, 0, false}, // const side
		{x, poly.ConstInt(f, 3), 0, false},
	}
	for i, c := range cases {
		k, ok := c.a.Ratio(c.b, f.MustInv)
		if ok != c.ok {
			t.Errorf("case %d: ok=%v want %v", i, ok, c.ok)
			continue
		}
		if ok && i64(f, k) != c.wantK {
			t.Errorf("case %d: k=%v want %d", i, k, c.wantK)
		}
	}
}

// proportionalSquareProblem is (2x+2y)·(x+y) = c over F_97.
func proportionalSquareProblem(c int64) *Problem {
	f := f97
	l := poly.Var(f, 0).Add(poly.Var(f, 1))
	p := NewProblem(f)
	p.AddEq(l.Scale(f.NewElement(2)), l, poly.ConstInt(f, c))
	return p
}

func TestProportionalSquareUnsat(t *testing.T) {
	// (2x+2y)·(x+y) = 5 with 5·2⁻¹... i.e. (x+y)² = 5/2; check against a
	// value with no square root. Over F_97, pick c so that c/2 is a QNR:
	// 5 is a QNR mod 97 and 2⁻¹·10 = 5, so use C = 10.
	f := f97
	out := Solve(proportionalSquareProblem(10), &Options{Seed: 1})
	if out.Status != StatusUnsat {
		t.Fatalf("status = %v, want unsat ((x+y)² = 5 has no solution mod 97)", out.Status)
	}
	// Same shape with a solvable RHS: (x+y)² = 9·2/2 → use C = 18 → square 9.
	out = Solve(proportionalSquareProblem(18), &Options{Seed: 1})
	if out.Status != StatusSat {
		t.Fatalf("status = %v, want sat", out.Status)
	}
	sum := f.Add(out.Model.Eval(0), out.Model.Eval(1))
	if sq := f.Mul(sum, sum); i64(f, sq) != 9 {
		t.Errorf("(x+y)² = %v, want 9", sq)
	}
}

// --- pairwise differencing ---------------------------------------------------------

// sharedDenominatorProblem is x·k = 1 ∧ x′·k = 1 ∧ x ≠ x′ over BN254.
func sharedDenominatorProblem() *Problem {
	f := ff.BN254()
	x, xp, k := poly.Var(f, 0), poly.Var(f, 1), poly.Var(f, 2)
	p := NewProblem(f)
	p.AddEq(x, k, poly.ConstInt(f, 1))
	p.AddEq(xp, k, poly.ConstInt(f, 1))
	p.AddNeq(x.Sub(xp))
	return p
}

func TestDerivePairsDecidesSharedDenominator(t *testing.T) {
	// x·k = 1 ∧ x′·k = 1 ∧ x ≠ x′ is UNSAT: either k = 0 (conflicts with
	// the product being 1) or x = x′ (conflicts with the disequality).
	// Without pair differencing this needs enumeration and would be
	// Unknown over a big field.
	p := sharedDenominatorProblem()
	out := Solve(p, &Options{Seed: 1})
	if out.Status != StatusUnsat {
		t.Fatalf("status = %v (reason %s), want unsat", out.Status, out.Reason)
	}
}

// crossSidesProblem is k·x = 5 ∧ y·k = 5 ∧ k·kinv = 1 ∧ x ≠ y over BN254.
func crossSidesProblem() *Problem {
	f := ff.BN254()
	x, y, k, kinv := poly.Var(f, 0), poly.Var(f, 1), poly.Var(f, 2), poly.Var(f, 3)
	p := NewProblem(f)
	p.AddEq(k, x, poly.ConstInt(f, 5))
	p.AddEq(y, k, poly.ConstInt(f, 5))
	p.AddEq(k, kinv, poly.ConstInt(f, 1))
	p.AddNeq(x.Sub(y))
	return p
}

func TestDerivePairsCrossSides(t *testing.T) {
	// Factor shared across different sides: k·x = 5 ∧ y·k = 5 ∧ x ≠ y,
	// k constrained nonzero via k·kinv = 1 → UNSAT.
	p := crossSidesProblem()
	out := Solve(p, &Options{Seed: 1})
	if out.Status != StatusUnsat {
		t.Fatalf("status = %v (reason %s), want unsat", out.Status, out.Reason)
	}
}

// separateDenominatorsProblem is x·k₁ = 1 ∧ x′·k₂ = 1 ∧ x ≠ x′ over BN254.
func separateDenominatorsProblem() *Problem {
	f := ff.BN254()
	x, xp, k1, k2 := poly.Var(f, 0), poly.Var(f, 1), poly.Var(f, 2), poly.Var(f, 3)
	p := NewProblem(f)
	p.AddEq(x, k1, poly.ConstInt(f, 1))
	p.AddEq(xp, k2, poly.ConstInt(f, 1))
	p.AddNeq(x.Sub(xp))
	return p
}

func TestDerivePairsStillFindsSat(t *testing.T) {
	// x·k = 1 ∧ x′·k = 1 ∧ x ≠ x′ becomes SAT once k may differ: use two
	// separate ks.
	p := separateDenominatorsProblem()
	out := Solve(p, &Options{Seed: 1})
	if out.Status != StatusSat {
		t.Fatalf("status = %v, want sat", out.Status)
	}
	if err := p.Check(out.Model); err != nil {
		t.Fatal(err)
	}
}

// --- quadratic-difference derivation ------------------------------------------------

// quadDiffLinearProblem is x·y = 7 ∧ (x−3)·y = −8 over BN254.
func quadDiffLinearProblem() *Problem {
	f := ff.BN254()
	x, y := poly.Var(f, 0), poly.Var(f, 1)
	p := NewProblem(f)
	p.AddEq(x, y, poly.ConstInt(f, 7))
	p.AddEq(x.AddConst(f.NewElement(-3)), y, poly.ConstInt(f, 7-15))
	return p
}

func TestQuadDiffLinearizes(t *testing.T) {
	// x·y = 7 ∧ (x−3)·y = 7 − 3·5... i.e. x·y − 3y = 7 − 15 → subtracting
	// gives 3y = 15 → y = 5, then x = 7/5. All over BN254 (no enumeration
	// can stumble on this).
	f := ff.BN254()
	p := quadDiffLinearProblem()
	out := Solve(p, &Options{Seed: 1})
	if out.Status != StatusSat {
		t.Fatalf("status = %v (%s), want sat", out.Status, out.Reason)
	}
	if i64(f, out.Model.Eval(1)) != 5 {
		t.Errorf("y = %v, want 5", out.Model.Eval(1))
	}
	want := f.Mul(f.NewElement(7), f.MustInv(f.NewElement(5)))
	if out.Model.Eval(0) != want {
		t.Errorf("x = %v, want 7/5", out.Model.Eval(0))
	}
}

// quadDiffContradictionProblem is x·y = 1 ∧ x·y = 2 over BN254.
func quadDiffContradictionProblem() *Problem {
	f := ff.BN254()
	x, y := poly.Var(f, 0), poly.Var(f, 1)
	p := NewProblem(f)
	p.AddEq(x, y, poly.ConstInt(f, 1))
	p.AddEq(poly.Var(f, 0), poly.Var(f, 1), poly.ConstInt(f, 2))
	return p
}

func TestQuadDiffDetectsContradiction(t *testing.T) {
	// x·y = 1 ∧ x·y = 2: the difference is the constant 1 → UNSAT, over
	// the big field where enumeration alone could not conclude.
	p := quadDiffContradictionProblem()
	out := Solve(p, &Options{Seed: 1})
	if out.Status != StatusUnsat {
		t.Fatalf("status = %v (%s), want unsat", out.Status, out.Reason)
	}
}

func TestQuadPartFingerprintBuckets(t *testing.T) {
	f := f97
	x, y := poly.Var(f, 0), poly.Var(f, 1)
	q1 := poly.MulLin(x, y)                          // xy
	q2 := poly.MulLin(x, y).Add(poly.QuadFromLin(x)) // xy + x
	q3 := poly.MulLin(x.Scale(f.NewElement(2)), y)   // 2xy
	if quadPartFingerprint(q1) != quadPartFingerprint(q2) {
		t.Error("same quadratic part bucketed differently")
	}
	if quadPartFingerprint(q1) == quadPartFingerprint(q3) {
		t.Error("different quadratic parts share a bucket")
	}
}

// --- enumeration candidates ----------------------------------------------------------

// factorRootsProblem is the MontgomeryDouble-shaped system of
// TestEnumerationTriesAllFactorRoots.
func factorRootsProblem() *Problem {
	f := ff.BN254()
	a, b, c, cp := poly.Var(f, 0), poly.Var(f, 1), poly.Var(f, 2), poly.Var(f, 3)
	p := NewProblem(f)
	p.AddEq(a.AddConst(f.NewElement(-2)), b, c)
	p.AddEq(b.AddConst(f.NewElement(-3)), a, cp)
	p.AddEq(c, c.AddConst(f.NewElement(-1)), poly.NewLinComb(f))   // c ∈ {0,1}
	p.AddEq(cp, cp.AddConst(f.NewElement(-1)), poly.NewLinComb(f)) // c′ ∈ {0,1}
	p.AddLinearEq(c.Add(cp))                                       // c + c′ = 0 → both zero
	p.AddNeq(a)                                                    // a ≠ 0
	p.AddNeq(b)                                                    // b ≠ 0
	return p
}

func TestEnumerationTriesAllFactorRoots(t *testing.T) {
	// Regression test for the MontgomeryDouble search-ordering bug: the SAT
	// assignment requires the roots of BOTH single-variable factors, not
	// just the busiest variable's candidates. System:
	//
	//	(a−2)·b = c ∧ (b−3)·a = c′ ∧ c,c′ ∈ {0,1} ∧ c + c′ = 0 ∧ a,b ≠ 0
	//
	// forces c = c′ = 0, hence a = 2 (since b ≠ 0) and b = 3 (since a ≠ 0)
	// — values only reachable through the factor-root candidates.
	p := factorRootsProblem()
	out := Solve(p, &Options{Seed: 3})
	if out.Status != StatusSat {
		t.Fatalf("status = %v (%s), want sat via factor roots a=2, b=3", out.Status, out.Reason)
	}
	if i64(fbig, out.Model.Eval(0)) != 2 || i64(fbig, out.Model.Eval(1)) != 3 {
		t.Errorf("model a=%v b=%v, want 2,3", out.Model.Eval(0), out.Model.Eval(1))
	}
}

// --- budget interactions --------------------------------------------------------------

// deriveGuardProblem is a linear chain ten equations beyond maxDeriveEqs.
func deriveGuardProblem() *Problem {
	f := f97
	p := NewProblem(f)
	for i := 0; i < maxDeriveEqs+10; i++ {
		// x_i + 1 = x_{i+1}
		p.AddLinearEq(poly.Var(f, i).AddConst(f.NewElement(1)).Sub(poly.Var(f, i+1)))
	}
	return p
}

func TestDeriveGuardsRespectSize(t *testing.T) {
	// A system beyond maxDeriveEqs must still solve (without the derived
	// lemmas) and never panic.
	p := deriveGuardProblem()
	out := Solve(p, &Options{MaxSteps: 10_000_000, Seed: 1})
	if out.Status != StatusSat {
		t.Fatalf("status = %v", out.Status)
	}
}
