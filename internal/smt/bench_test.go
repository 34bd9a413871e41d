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
	for _, c := range []struct {
		name  string
		build func() *Problem
		opts  Options
		want  Status
	}{
		{"shared-denominator-unsat", sharedDenominatorProblem, Options{Seed: 1}, StatusUnsat},
		{"babyadd-xout-unsat", func() *Problem { return babyAddProblem(9) }, Options{MaxSteps: 200000, Seed: 1}, StatusUnsat},
		{"small-field-enumeration", circleProblem, Options{Seed: 1}, StatusSat},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out := Solve(c.build(), &c.opts); out.Status != c.want {
					b.Fatalf("status = %v", out.Status)
				}
			}
		})
	}
}

// circleProblem is x² + y² = 1 ∧ x ≠ 0 ∧ y ≠ 0 over F_97: it needs the
// enumeration fallback.
func circleProblem() *Problem {
	f := f97
	x, y := poly.Var(f, 0), poly.Var(f, 1)
	p := NewProblem(f)
	p.AddEq(x, x, poly.Var(f, 2))
	p.AddEq(y, y, poly.ConstInt(f, 1).Sub(poly.Var(f, 2)))
	p.AddNeq(x)
	p.AddNeq(y)
	return p
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
