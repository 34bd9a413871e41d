package smt

import (
	"testing"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// BenchmarkSolverCore measures full Solve calls on the query shapes the
// analyzer actually issues: a shared-denominator uniqueness proof over BN254
// (pair differencing + zero-product split), the BabyAdd xout proof (the
// hardest deterministic UNSAT in the suite), and a small-field enumeration
// core.
func BenchmarkSolverCore(b *testing.B) {
	b.Run("shared-denominator-unsat", func(b *testing.B) {
		f := ff.BN254()
		for i := 0; i < b.N; i++ {
			x, xp, k := poly.Var(f, 0), poly.Var(f, 1), poly.Var(f, 2)
			p := NewProblem(f)
			p.AddEq(x, k, poly.ConstInt(f, 1))
			p.AddEq(xp, k, poly.ConstInt(f, 1))
			p.AddNeq(x.Sub(xp))
			if out := Solve(p, &Options{Seed: 1}); out.Status != StatusUnsat {
				b.Fatalf("status = %v", out.Status)
			}
		}
	})
	b.Run("babyadd-xout-unsat", func(b *testing.B) {
		f := ff.BN254()
		a := f.NewElement(168700)
		d := f.NewElement(168696)
		for i := 0; i < b.N; i++ {
			v := func(x int) *poly.LinComb { return poly.Var(f, x) }
			p := NewProblem(f)
			p.AddEq(v(1), v(4), v(5))
			p.AddEq(v(2), v(3), v(6))
			p.AddEq(v(1).Scale(f.Neg(a)).Add(v(2)), v(3).Add(v(4)), v(7))
			p.AddEq(v(5), v(6), v(8))
			onePlus := poly.ConstInt(f, 1).AddTerm(8, d)
			oneMinus := poly.ConstInt(f, 1).AddTerm(8, f.Neg(d))
			rhsY := v(7).Add(v(5).Scale(a)).Sub(v(6))
			p.AddEq(onePlus, v(9), v(5).Add(v(6)))
			p.AddEq(onePlus, v(29), v(5).Add(v(6)))
			p.AddEq(oneMinus, v(10), rhsY)
			p.AddEq(oneMinus, v(30), rhsY)
			p.AddNeq(v(9).Sub(v(29)))
			if out := Solve(p, &Options{MaxSteps: 200000, Seed: 1}); out.Status != StatusUnsat {
				b.Fatalf("status = %v", out.Status)
			}
		}
	})
	b.Run("small-field-enumeration", func(b *testing.B) {
		f := f97
		for i := 0; i < b.N; i++ {
			// x² + y² = 1 ∧ x ≠ 0 ∧ y ≠ 0: needs the enumeration fallback.
			x, y := poly.Var(f, 0), poly.Var(f, 1)
			p := NewProblem(f)
			p.AddEq(x, x, poly.Var(f, 2))
			p.AddEq(y, y, poly.ConstInt(f, 1).Sub(poly.Var(f, 2)))
			p.AddNeq(x)
			p.AddNeq(y)
			if out := Solve(p, &Options{Seed: 1}); out.Status != StatusSat {
				b.Fatalf("status = %v", out.Status)
			}
		}
	})
}

// BenchmarkEquationFingerprint measures the structural dedup keys on the
// solver hot path (they replaced string-building keys; the fingerprints
// must stay allocation-free per equation apart from the one expanded Quad).
func BenchmarkEquationFingerprint(b *testing.B) {
	f := ff.BN254()
	mk := func(shift int) Equation {
		a := poly.ConstInt(f, 3)
		c := poly.ConstInt(f, 7)
		for v := 0; v < 8; v++ {
			a = a.AddTerm(v+shift, f.NewElement(int64(2*v+1)))
			c = c.AddTerm(v+shift+8, f.NewElement(int64(v+5)))
		}
		return Equation{A: a, B: poly.Var(f, 40+shift), C: c}
	}
	eqs := []Equation{mk(0), mk(4), mk(9)}
	quads := make([]*poly.Quad, len(eqs))
	for i, e := range eqs {
		quads[i] = expandEq(e)
	}

	b.Run("shape", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= quadShapeFingerprint(quads[i%len(quads)])
		}
		_ = sink
	})
	b.Run("part", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= quadPartFingerprint(quads[i%len(quads)])
		}
		_ = sink
	})
	b.Run("dedup-set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set := newQuadSet()
			for _, e := range eqs {
				set.add(expandEq(e))
			}
			for _, e := range eqs {
				if set.add(expandEq(e)) {
					b.Fatal("duplicate not detected")
				}
			}
		}
	})
}
