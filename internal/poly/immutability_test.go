package poly

import (
	"math/rand"
	"slices"
	"testing"

	"qed2/internal/ff"
)

// copyLC and copyQuad take deep copies that share no backing array with the
// original, so a write through any alias of the original shows up as an
// inequality.
func copyLC(lc *LinComb) *LinComb {
	return &LinComb{f: lc.f, konst: lc.konst, terms: slices.Clone(lc.terms)}
}

func copyQuad(q *Quad) *Quad {
	return &Quad{f: q.f, lin: copyLC(q.lin), quad: slices.Clone(q.quad)}
}

// TestOperandsImmutable checks that no operation writes to its operands.
// Results share term slices with their operands whenever nothing changes
// (Substitute of an absent variable returns the receiver itself), so a
// write anywhere would corrupt an unrelated constraint.
func TestOperandsImmutable(t *testing.T) {
	for _, f := range []*ff.Field{ff.BN254(), f97} {
		rng := rand.New(rand.NewSource(71))
		for i := 0; i < 300; i++ {
			const nVars = 5
			a, b := randLC(f, rng, nVars), randLC(f, rng, nVars)
			x := rng.Intn(nVars + 1) // nVars itself never occurs
			k := f.RandFrom(rng)
			if i%7 == 0 {
				k = f.Zero()
			}
			repl := b.SubstituteValue(x, f.Zero())
			qa, qb := MulLin(a, b), MulLin(b, repl).Add(QuadFromLin(a))
			// qh has no linear part, so SubstituteValue on it folds square
			// and cross terms into a linear part it must not share.
			qh := MulLin(a.AddConst(f.Neg(a.Constant())), b.AddConst(f.Neg(b.Constant())))
			ca, cb, crepl := copyLC(a), copyLC(b), copyLC(repl)
			cqa, cqb, cqh := copyQuad(qa), copyQuad(qb), copyQuad(qh)

			expr, _ := a.SolveFor(x, f.MustInv)
			ops := []struct {
				name string
				run  func() any
			}{
				{"Add", func() any { return a.Add(b).Add(NewLinComb(f)) }},
				{"Sub", func() any { return a.Sub(b).Sub(Const(f, k)) }},
				{"Neg", func() any { return a.Neg() }},
				{"Scale", func() any { return a.Scale(k) }},
				{"AddTerm", func() any { return a.AddTerm(x, k) }},
				{"AddConst", func() any { return a.AddConst(k) }},
				{"Substitute", func() any { return a.Substitute(x, repl) }},
				{"SubstituteValue", func() any { return a.SubstituteValue(x, k) }},
				{"SolveFor", func() any { return expr }},
				{"RenameVars", func() any { return a.RenameVars(func(v int) int { return nVars - v }) }},
				{"MulLin", func() any { return MulLin(a, b) }},
				{"QuadFromLin", func() any { return QuadFromLin(a).Add(qb) }},
				{"Quad.Add", func() any { return qa.Add(qb) }},
				{"Quad.Sub", func() any { return qa.Sub(qb) }},
				{"Quad.Neg", func() any { return qa.Neg() }},
				{"Quad.Scale", func() any { return qa.Scale(k) }},
				{"Quad.SubstituteValue", func() any {
					return qa.SubstituteValue(x, k).Add(qb.SubstituteValue(x, k)).Add(qh.SubstituteValue(x, k))
				}},
			}
			for _, op := range ops {
				res := op.run()
				if !a.Equal(ca) || !b.Equal(cb) || !repl.Equal(crepl) ||
					!qa.Equal(cqa) || !qb.Equal(cqb) || !qh.Equal(cqh) {
					t.Fatalf("%s over %s (iter %d) modified an operand", op.name, f.Name(), i)
				}
				if err := canonical(res); err != "" {
					t.Fatalf("%s over %s (iter %d): result not canonical: %s", op.name, f.Name(), i, err)
				}
			}
		}
	}
}

// canonical checks the representation invariants Equal relies on: terms
// strictly ascending, pairs strictly ascending with X ≤ Y, no zero
// coefficient anywhere. It returns a description of the first violation.
func canonical(v any) string {
	switch v := v.(type) {
	case *LinComb:
		if v == nil {
			return ""
		}
		for i, t := range v.terms {
			if t.c.IsZero() {
				return "zero coefficient stored"
			}
			if i > 0 && v.terms[i-1].v >= t.v {
				return "terms out of order"
			}
		}
	case *Quad:
		for i, t := range v.quad {
			if t.c.IsZero() || t.p.X > t.p.Y {
				return "zero or unordered pair stored"
			}
			if i > 0 && cmpPair(v.quad[i-1].p, t.p) >= 0 {
				return "pairs out of order"
			}
		}
		return canonical(v.lin)
	}
	return ""
}
