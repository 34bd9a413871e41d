package poly

import (
	"math/rand"
	"testing"

	"qed2/internal/ff"
)

// BenchmarkPolySubst measures the paths the solver's Gaussian elimination
// and pair derivation lean on: substituting into linear combinations and
// Quads, fixing a variable to a value, and the sorted merges behind
// LinComb.Add and Quad.Sub.
func BenchmarkPolySubst(b *testing.B) {
	f := ff.BN254()
	rng := rand.New(rand.NewSource(7))
	const nVars = 24
	dense := func() *LinComb {
		lc := Const(f, f.RandFrom(rng))
		for v := 0; v < nVars; v++ {
			lc = lc.AddTerm(v, f.RandFrom(rng))
		}
		return lc
	}
	a, c := dense(), dense()
	q, q2 := MulLin(a, c), MulLin(c, dense())
	repl := dense().SubstituteValue(3, f.Zero())
	val := f.RandFrom(rng)
	m := map[int]ff.Element{}
	for v := 0; v < nVars; v++ {
		m[v] = f.RandFrom(rng)
	}

	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"lincomb-add", func() { sinkLC = a.Add(c) }},
		{"lincomb-substitute", func() { sinkLC = a.Substitute(3, repl) }},
		{"lincomb-substitute-value", func() { sinkLC = a.SubstituteValue(3, val) }},
		{"quad-substitute-value", func() { sinkQuad = q.SubstituteValue(3, val) }},
		{"quad-eval", func() { sinkElt = q.EvalMap(m) }},
		{"quad-sub", func() { sinkQuad = q.Sub(q2) }},
		{"mullin", func() { sinkQuad = MulLin(a, c) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}

var (
	sinkLC   *LinComb
	sinkQuad *Quad
	sinkElt  ff.Element
)
