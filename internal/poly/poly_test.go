package poly

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"qed2/internal/ff"
)

var f97 = ff.MustField(big.NewInt(97))

// elt converts a small integer for test literals.
func elt(f *ff.Field, v int64) ff.Element { return f.NewElement(v) }

// int64Of extracts the plain value for assertions on small fields.
func int64Of(f *ff.Field, e ff.Element) int64 { return f.ToBig(e).Int64() }

// randLC builds a random linear combination over nVars variables.
func randLC(f *ff.Field, rng *rand.Rand, nVars int) *LinComb {
	lc := Const(f, f.RandFrom(rng))
	for v := 0; v < nVars; v++ {
		if rng.Intn(2) == 0 {
			lc = lc.AddTerm(v, f.RandFrom(rng))
		}
	}
	return lc
}

func randAssign(f *ff.Field, rng *rand.Rand, nVars int) map[int]ff.Element {
	m := map[int]ff.Element{}
	for v := 0; v < nVars; v++ {
		m[v] = f.RandFrom(rng)
	}
	return m
}

func TestLinCombBasics(t *testing.T) {
	f := f97
	lc := Var(f, 3).Scale(elt(f, 2)).AddTerm(7, elt(f, -1)).AddConst(elt(f, 1))
	if got := lc.String(); got != "2*x3 - x7 + 1" {
		t.Errorf("String = %q", got)
	}
	if lc.NumTerms() != 2 || lc.IsConst() || lc.IsZero() {
		t.Error("shape predicates wrong")
	}
	if got := int64Of(f, lc.Coeff(3)); got != 2 {
		t.Errorf("Coeff(3) = %d", got)
	}
	if got := lc.Coeff(99); !got.IsZero() {
		t.Errorf("Coeff(99) = %v", got)
	}
	if vars := lc.Vars(); !reflect.DeepEqual(vars, []int{3, 7}) {
		t.Errorf("Vars = %v", vars)
	}
	// 2*5 - 10 + 1 = 1
	m := map[int]ff.Element{3: elt(f, 5), 7: elt(f, 10)}
	if got := int64Of(f, lc.EvalMap(m)); got != 1 {
		t.Errorf("Eval = %d", got)
	}
}

func TestLinCombCancellation(t *testing.T) {
	f := f97
	a := Var(f, 1)
	b := Var(f, 1).Neg()
	sum := a.Add(b)
	if !sum.IsZero() {
		t.Errorf("x1 - x1 = %v", sum)
	}
	if sum.NumTerms() != 0 {
		t.Error("cancelled term still stored")
	}
}

func TestLinCombAlgebraQuick(t *testing.T) {
	f := f97
	const nVars = 6
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			for i := range vs {
				vs[i] = reflect.ValueOf(randLC(f, r, nVars))
			}
		},
	}
	rng := rand.New(rand.NewSource(5))
	// (a+b) evaluates as eval(a)+eval(b); similarly sub, neg, scale.
	prop := func(a, b *LinComb) bool {
		m := randAssign(f, rng, nVars)
		k := f.RandFrom(rng)
		if a.Add(b).EvalMap(m) != f.Add(a.EvalMap(m), b.EvalMap(m)) {
			return false
		}
		if a.Sub(b).EvalMap(m) != f.Sub(a.EvalMap(m), b.EvalMap(m)) {
			return false
		}
		if a.Neg().EvalMap(m) != f.Neg(a.EvalMap(m)) {
			return false
		}
		if a.Scale(k).EvalMap(m) != f.Mul(k, a.EvalMap(m)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	// a - a == 0 structurally.
	propZero := func(a *LinComb) bool { return a.Sub(a).IsZero() }
	if err := quick.Check(propZero, cfg); err != nil {
		t.Error(err)
	}
	// Adding zero and double negation are structural identities.
	propIdentity := func(a *LinComb) bool {
		return a.Equal(a.Add(NewLinComb(f))) && a.Equal(a.Neg().Neg())
	}
	if err := quick.Check(propIdentity, cfg); err != nil {
		t.Error(err)
	}
}

func TestSubstituteValue(t *testing.T) {
	f := f97
	lc := Var(f, 0).Scale(elt(f, 3)).AddTerm(1, elt(f, 5))
	got := lc.SubstituteValue(0, elt(f, 2))
	want := Term(f, 1, elt(f, 5)).AddConst(elt(f, 6))
	if !got.Equal(want) {
		t.Errorf("subst = %v, want %v", got, want)
	}
	// substituting an absent variable is a no-op
	if !lc.SubstituteValue(42, elt(f, 9)).Equal(lc) {
		t.Error("substituting absent var changed lc")
	}
}

func TestSubstituteLin(t *testing.T) {
	f := f97
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		lc := randLC(f, rng, 5)
		repl := randLC(f, rng, 5)
		repl = repl.SubstituteValue(2, f.Zero()) // repl must not mention x2
		got := lc.Substitute(2, repl)
		m := randAssign(f, rng, 5)
		// Evaluate lc with x2 := repl(m).
		m2 := map[int]ff.Element{}
		for k, v := range m {
			m2[k] = v
		}
		m2[2] = repl.EvalMap(m)
		if got.EvalMap(m) != lc.EvalMap(m2) {
			t.Fatalf("iter %d: substitution not semantics-preserving", i)
		}
		if !got.Coeff(2).IsZero() {
			t.Fatalf("iter %d: x2 still present after substitution", i)
		}
	}
}

func TestSolveFor(t *testing.T) {
	f := f97
	// 3*x0 + 5*x1 + 7 = 0  =>  x0 = (-5*x1 - 7)/3
	lc := Term(f, 0, elt(f, 3)).AddTerm(1, elt(f, 5)).AddConst(elt(f, 7))
	expr, ok := lc.SolveFor(0, f.MustInv)
	if !ok {
		t.Fatal("SolveFor failed")
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		x1 := f.RandFrom(rng)
		x0 := expr.EvalMap(map[int]ff.Element{1: x1})
		val := lc.EvalMap(map[int]ff.Element{0: x0, 1: x1})
		if !val.IsZero() {
			t.Fatalf("solved x0 does not satisfy equation (x1=%v)", x1)
		}
	}
	if _, ok := lc.SolveFor(9, f.MustInv); ok {
		t.Error("SolveFor(absent) succeeded")
	}
}

func TestRenameVars(t *testing.T) {
	f := f97
	lc := Var(f, 0).AddTerm(1, elt(f, 2))
	ren := lc.RenameVars(func(x int) int { return x + 100 })
	if !reflect.DeepEqual(ren.Vars(), []int{100, 101}) {
		t.Errorf("renamed vars = %v", ren.Vars())
	}
	defer func() {
		if recover() == nil {
			t.Error("non-injective rename did not panic")
		}
	}()
	lc.RenameVars(func(x int) int { return 0 })
}

func TestMulLinSemantics(t *testing.T) {
	f := f97
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		a := randLC(f, rng, 5)
		b := randLC(f, rng, 5)
		q := MulLin(a, b)
		m := randAssign(f, rng, 5)
		want := f.Mul(a.EvalMap(m), b.EvalMap(m))
		if got := q.EvalMap(m); got != want {
			t.Fatalf("iter %d: MulLin eval mismatch: got %v want %v\n a=%v b=%v q=%v", i, got, want, a, b, q)
		}
	}
}

func TestQuadAlgebra(t *testing.T) {
	f := f97
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		a := MulLin(randLC(f, rng, 4), randLC(f, rng, 4))
		b := MulLin(randLC(f, rng, 4), randLC(f, rng, 4))
		m := randAssign(f, rng, 4)
		k := f.RandFrom(rng)
		if a.Add(b).EvalMap(m) != f.Add(a.EvalMap(m), b.EvalMap(m)) {
			t.Fatal("Quad.Add mismatch")
		}
		if a.Sub(b).EvalMap(m) != f.Sub(a.EvalMap(m), b.EvalMap(m)) {
			t.Fatal("Quad.Sub mismatch")
		}
		if a.Neg().EvalMap(m) != f.Neg(a.EvalMap(m)) {
			t.Fatal("Quad.Neg mismatch")
		}
		if a.Scale(k).EvalMap(m) != f.Mul(k, a.EvalMap(m)) {
			t.Fatal("Quad.Scale mismatch")
		}
		if !a.Sub(a).IsZero() {
			t.Fatal("a-a not structurally zero")
		}
	}
}

func TestQuadSubstituteValue(t *testing.T) {
	f := f97
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 200; i++ {
		q := MulLin(randLC(f, rng, 4), randLC(f, rng, 4))
		v := f.RandFrom(rng)
		got := q.SubstituteValue(1, v)
		m := randAssign(f, rng, 4)
		m2 := map[int]ff.Element{}
		for k, val := range m {
			m2[k] = val
		}
		m2[1] = v
		if got.EvalMap(m) != q.EvalMap(m2) {
			t.Fatalf("iter %d: Quad substitution mismatch", i)
		}
		for _, x := range got.Vars() {
			if x == 1 {
				t.Fatalf("iter %d: x1 survived substitution", i)
			}
		}
	}
}

func TestQuadSquareTerm(t *testing.T) {
	f := f97
	// (x0+1)*(x0-1) = x0² - 1
	a := Var(f, 0).AddConst(elt(f, 1))
	b := Var(f, 0).AddConst(elt(f, -1))
	q := MulLin(a, b)
	if q.NumQuadTerms() != 1 || int64Of(f, q.CoeffPair(0, 0)) != 1 {
		t.Errorf("x0² coefficient wrong: %v", q)
	}
	if got := q.String(); got != "x0² - 1" {
		t.Errorf("String = %q", got)
	}
	// Substituting x0=5 gives 24.
	if got := q.SubstituteValue(0, elt(f, 5)); func() bool {
		c, ok := got.IsConst()
		return !ok || int64Of(f, c) != 24
	}() {
		t.Errorf("subst gave %v", got)
	}
}

func TestQuadEqualCanonical(t *testing.T) {
	f := f97
	a := Var(f, 0)
	b := Var(f, 1)
	q1 := MulLin(a, b)                  // x0*x1
	q2 := MulLin(b, a)                  // x1*x0
	q3 := MulLin(a.Scale(elt(f, 2)), b) // 2*x0*x1
	if !q1.Equal(q2) {
		t.Error("commuted products not canonical-equal")
	}
	if q1.Equal(q3) {
		t.Error("distinct polys compare equal")
	}
	if !q3.Scale(f.MustInv(elt(f, 2))).Equal(q1) {
		t.Error("(2*x0*x1)/2 != x0*x1")
	}
	if !q3.Sub(q3).Equal(NewQuad(f)) {
		t.Error("q - q != 0")
	}
}

func TestQuadDegreeAndShape(t *testing.T) {
	f := f97
	if d := NewQuad(f).Degree(); d != 0 {
		t.Errorf("deg 0 poly = %d", d)
	}
	if d := QuadFromLin(Var(f, 2)).Degree(); d != 1 {
		t.Errorf("deg 1 poly = %d", d)
	}
	q := MulLin(Var(f, 0), Var(f, 1))
	if d := q.Degree(); d != 2 {
		t.Errorf("deg 2 poly = %d", d)
	}
	if q.IsLinear() {
		t.Error("product reported linear")
	}
	if _, ok := q.IsConst(); ok {
		t.Error("product reported const")
	}
	if c, ok := ConstQuad(f, 7).IsConst(); !ok || int64Of(f, c) != 7 {
		t.Error("ConstQuad shape wrong")
	}
	if !reflect.DeepEqual(q.Vars(), []int{0, 1}) {
		t.Errorf("Vars = %v", q.Vars())
	}
}

func TestQuadStringForms(t *testing.T) {
	f := f97
	q := MulLin(Var(f, 0), Var(f, 1)).Neg()
	if got := q.String(); got != "-x0*x1" {
		t.Errorf("String = %q", got)
	}
	if got := NewQuad(f).String(); got != "0" {
		t.Errorf("zero String = %q", got)
	}
}
