package poly

import (
	"cmp"
	"fmt"
	"math/big" //qed2:allow-mathbig — rendering and signed-magnitude display only
	"slices"
	"strings"

	"qed2/internal/ff"
)

// VarPair identifies the bilinear monomial x·y with X ≤ Y.
type VarPair struct{ X, Y int }

func orderedPair(a, b int) VarPair {
	if a > b {
		a, b = b, a
	}
	return VarPair{a, b}
}

// cmpPair orders monomials canonically: by X, then by Y.
func cmpPair(a, b VarPair) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.Y, b.Y)
}

// pairTerm is one bilinear monomial c·x·y of a Quad.
type pairTerm struct {
	p VarPair
	c ff.Element
}

// Quad is a canonical multivariate polynomial of total degree ≤ 2:
//
//	Σ q_{ij}·xᵢ·xⱼ + Σ cᵢ·xᵢ + c₀
//
// Quads are the expanded, canonical view of rank-1 constraints
// ⟨A,s⟩·⟨B,s⟩−⟨C,s⟩: two constraints are semantically identical iff their
// Quads are equal. Like LinComb, a Quad is immutable.
type Quad struct {
	f   *ff.Field
	lin *LinComb
	// quad is ascending in canonical pair order and holds no zero
	// coefficient; it is never written after construction.
	quad []pairTerm
}

// NewQuad returns the zero quadratic polynomial.
func NewQuad(f *ff.Field) *Quad { return QuadFromLin(NewLinComb(f)) }

// ConstQuad returns the constant quadratic polynomial v.
func ConstQuad(f *ff.Field, v int64) *Quad {
	return QuadFromLin(ConstInt(f, v))
}

// QuadFromLin lifts a linear combination to a Quad.
func QuadFromLin(lc *LinComb) *Quad { return &Quad{f: lc.f, lin: lc} }

// MulLin returns the product a·b of two linear combinations as a Quad. The
// n·m bilinear products are collected, sorted, and merged.
func MulLin(a, b *LinComb) *Quad {
	if !a.f.SameField(b.f) {
		panic("poly: MulLin across fields")
	}
	f := a.f
	// (a₀ + Σaᵢxᵢ)(b₀ + Σbⱼxⱼ) = a₀b₀ + (b₀·Σaᵢxᵢ + a₀·Σbⱼxⱼ) + ΣΣ aᵢbⱼ·xᵢxⱼ
	var lin []term
	switch {
	case a.konst.IsZero() && b.konst.IsZero():
	case b.konst.IsZero():
		lin = scaleTerms(f, b.terms, -1, a.konst)
	case a.konst.IsZero():
		lin = scaleTerms(f, a.terms, -1, b.konst)
	default:
		lin = merge(f, scaleTerms(f, a.terms, -1, b.konst), -1, b.terms, opAxpy, a.konst)
	}
	q := &Quad{f: f, lin: &LinComb{f: f, konst: f.Mul(a.konst, b.konst), terms: lin}}
	if len(a.terms) == 0 || len(b.terms) == 0 {
		return q
	}
	prods := make([]pairTerm, 0, len(a.terms)*len(b.terms))
	for _, ta := range a.terms {
		for _, tb := range b.terms {
			prods = append(prods, pairTerm{orderedPair(ta.v, tb.v), f.Mul(ta.c, tb.c)})
		}
	}
	slices.SortFunc(prods, func(x, y pairTerm) int { return cmpPair(x.p, y.p) })
	// Fold runs of equal monomials in place; prods is still private here.
	n := 0
	for i := 0; i < len(prods); {
		t := prods[i]
		for i++; i < len(prods) && prods[i].p == t.p; i++ {
			t.c = f.Add(t.c, prods[i].c)
		}
		if !t.c.IsZero() {
			prods[n] = t
			n++
		}
	}
	q.quad = prods[:n:n]
	return q
}

// Field returns the coefficient field.
func (q *Quad) Field() *ff.Field { return q.f }

// Lin returns the linear (plus constant) part.
func (q *Quad) Lin() *LinComb { return q.lin }

// IsZero reports whether q is identically zero.
func (q *Quad) IsZero() bool { return len(q.quad) == 0 && q.lin.IsZero() }

// IsLinear reports whether the quadratic part is empty.
func (q *Quad) IsLinear() bool { return len(q.quad) == 0 }

// IsConst reports whether q is a constant, returning it when so.
func (q *Quad) IsConst() (ff.Element, bool) {
	if len(q.quad) == 0 && q.lin.IsConst() {
		return q.lin.Constant(), true
	}
	return ff.Element{}, false
}

// Degree returns 0, 1 or 2.
func (q *Quad) Degree() int {
	if len(q.quad) > 0 {
		return 2
	}
	if !q.lin.IsConst() {
		return 1
	}
	return 0
}

// mergePairs is merge for bilinear monomials: a + b, or a − b when sub.
// With b empty the result is a itself (slices are never written).
func mergePairs(f *ff.Field, a, b []pairTerm, sub bool) []pairTerm {
	if len(b) == 0 {
		return a
	}
	out := make([]pairTerm, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		c := 1
		switch {
		case j == len(b):
			c = -1
		case i < len(a):
			c = cmpPair(a[i].p, b[j].p)
		}
		if c < 0 {
			out = append(out, a[i])
			i++
			continue
		}
		bc := b[j].c
		if sub {
			bc = f.Neg(bc)
		}
		if c > 0 {
			out = append(out, pairTerm{b[j].p, bc})
		} else {
			if s := f.Add(a[i].c, bc); !s.IsZero() {
				out = append(out, pairTerm{a[i].p, s})
			}
			i++
		}
		j++
	}
	return out
}

// Add returns q + other.
func (q *Quad) Add(other *Quad) *Quad {
	return &Quad{f: q.f, lin: q.lin.Add(other.lin), quad: mergePairs(q.f, q.quad, other.quad, false)}
}

// Sub returns q - other.
func (q *Quad) Sub(other *Quad) *Quad {
	return &Quad{f: q.f, lin: q.lin.Sub(other.lin), quad: mergePairs(q.f, q.quad, other.quad, true)}
}

// Neg returns -q.
func (q *Quad) Neg() *Quad {
	out := &Quad{f: q.f, lin: q.lin.Neg(), quad: make([]pairTerm, len(q.quad))}
	for i, t := range q.quad {
		out.quad[i] = pairTerm{t.p, q.f.Neg(t.c)}
	}
	return out
}

// Scale returns k·q.
func (q *Quad) Scale(k ff.Element) *Quad {
	if k.IsZero() {
		return NewQuad(q.f)
	}
	out := &Quad{f: q.f, lin: q.lin.Scale(k), quad: make([]pairTerm, len(q.quad))}
	for i, t := range q.quad {
		out.quad[i] = pairTerm{t.p, q.f.Mul(t.c, k)}
	}
	return out
}

// Vars returns the set of variables occurring in q, ascending.
func (q *Quad) Vars() []int {
	out := q.lin.Vars()
	for _, t := range q.quad {
		out = append(out, t.p.X, t.p.Y)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Eval evaluates q under the assignment fn, allocation-free.
func (q *Quad) Eval(fn func(x int) ff.Element) ff.Element {
	acc := q.lin.Eval(fn)
	for _, t := range q.quad {
		acc = q.f.Add(acc, q.f.Mul(t.c, q.f.Mul(fn(t.p.X), fn(t.p.Y))))
	}
	return acc
}

// EvalMap is Eval over a map; absent variables read as zero.
func (q *Quad) EvalMap(m map[int]ff.Element) ff.Element {
	return q.Eval(func(x int) ff.Element { return m[x] })
}

// SubstituteValue returns q with variable x fixed to the constant v. It
// returns q itself when x does not occur.
func (q *Quad) SubstituteValue(x int, v ff.Element) *Quad {
	f := q.f
	// Monomials y·x with y < x precede those x·y with y > x in pair order,
	// so the linear terms they fold into come out ascending in y.
	var kept []pairTerm
	var folded []term
	var sq ff.Element
	touched := false
	for i, t := range q.quad {
		if t.p.X != x && t.p.Y != x {
			if touched {
				kept = append(kept, t)
			}
			continue
		}
		if !touched {
			touched = true
			kept = append(make([]pairTerm, 0, len(q.quad)-1), q.quad[:i]...)
		}
		if t.p.X == t.p.Y {
			sq = f.Mul(t.c, f.Mul(v, v))
			continue
		}
		y := t.p.Y
		if y == x {
			y = t.p.X
		}
		if c := f.Mul(t.c, v); !c.IsZero() {
			folded = append(folded, term{y, c})
		}
	}
	lin := q.lin.SubstituteValue(x, v)
	if !touched {
		if lin == q.lin {
			return q
		}
		return &Quad{f: f, lin: lin, quad: q.quad}
	}
	lin = lin.Add(&LinComb{f: f, konst: sq, terms: folded})
	return &Quad{f: f, lin: lin, quad: kept}
}

// CoeffPair returns the coefficient of the monomial xᵢ·xⱼ.
func (q *Quad) CoeffPair(i, j int) ff.Element {
	p := orderedPair(i, j)
	k, found := slices.BinarySearchFunc(q.quad, p, func(t pairTerm, p VarPair) int { return cmpPair(t.p, p) })
	if !found {
		return ff.Element{}
	}
	return q.quad[k].c
}

// NumQuadTerms returns the number of distinct bilinear monomials.
func (q *Quad) NumQuadTerms() int { return len(q.quad) }

// VisitQuadTerms calls fn for every bilinear monomial in canonical
// (sorted-pair) order, without allocating.
func (q *Quad) VisitQuadTerms(fn func(p VarPair, coeff ff.Element)) {
	for _, t := range q.quad {
		fn(t.p, t.c)
	}
}

// Equal reports canonical equality of two quadratic polynomials.
func (q *Quad) Equal(other *Quad) bool {
	return q.f.SameField(other.f) && q.lin.Equal(other.lin) && slices.Equal(q.quad, other.quad)
}

// String renders the polynomial; variables print as x<i>.
func (q *Quad) String() string {
	return q.StringNamed(func(x int) string { return fmt.Sprintf("x%d", x) })
}

// StringNamed renders the polynomial with the given variable namer.
func (q *Quad) StringNamed(name func(x int) string) string {
	var parts []string
	for _, t := range q.quad {
		p, c := t.p, q.f.Signed(t.c)
		mono := name(p.X) + "*" + name(p.Y)
		if p.X == p.Y {
			mono = name(p.X) + "²"
		}
		switch {
		case c.Cmp(oneInt) == 0:
			parts = append(parts, "+ "+mono)
		case c.Cmp(minusOneInt) == 0:
			parts = append(parts, "- "+mono)
		case c.Sign() < 0:
			parts = append(parts, fmt.Sprintf("- %v*%s", new(big.Int).Neg(c), mono))
		default:
			parts = append(parts, fmt.Sprintf("+ %v*%s", c, mono))
		}
	}
	linStr := q.lin.StringNamed(name)
	if linStr != "0" {
		if strings.HasPrefix(linStr, "-") {
			parts = append(parts, "- "+linStr[1:])
		} else {
			parts = append(parts, "+ "+linStr)
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	s := strings.Join(parts, " ")
	s = strings.TrimPrefix(s, "+ ")
	if strings.HasPrefix(s, "- ") {
		s = "-" + s[2:]
	}
	return s
}
