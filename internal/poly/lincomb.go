// Package poly implements the symbolic algebra used throughout the system:
// sparse linear combinations over signal variables and canonical quadratic
// forms, both with coefficients in a prime field F_p.
//
// Variables are identified by small non-negative integers; the mapping from
// variable IDs to circuit signals is owned by the r1cs package. Linear
// combinations are the building block of rank-1 constraints ⟨A,s⟩·⟨B,s⟩ =
// ⟨C,s⟩, and — crucially for the solver — the R1CS form is closed under
// substituting a linear combination for a variable, so the entire analysis
// pipeline stays within this algebra.
//
// Coefficients are stored as ff.Element values (no per-coefficient heap
// pointers); conversion to *big.Int happens only in the String renderers.
package poly

import (
	"cmp"
	"fmt"
	"math/big" //qed2:allow-mathbig — rendering and signed-magnitude display only
	"slices"
	"strings"

	"qed2/internal/ff"
)

// LinComb is a sparse linear combination  c₀ + Σᵢ cᵢ·xᵢ  with coefficients
// in F_p. LinComb values are immutable: every operation returns a new value
// (or the receiver itself when nothing changes) and never writes to its
// operands, so values may be shared freely between constraints, search
// states and goroutines.
type LinComb struct {
	f     *ff.Field
	konst ff.Element // constant term
	// terms is ascending by variable and holds no zero coefficient. The
	// slice is never written after construction, so results may share it.
	terms []term
}

// term is one monomial c·x of a linear combination.
type term struct {
	v int
	c ff.Element
}

// NewLinComb returns the zero linear combination over field f.
func NewLinComb(f *ff.Field) *LinComb { return &LinComb{f: f} }

// Const returns the constant linear combination v.
func Const(f *ff.Field, v ff.Element) *LinComb { return &LinComb{f: f, konst: v} }

// ConstBig returns the constant linear combination for a *big.Int, reduced
// into the field. Parse/deserialize boundary helper.
func ConstBig(f *ff.Field, v *big.Int) *LinComb { return Const(f, f.FromBig(v)) }

// ConstInt returns the constant linear combination for a small integer.
func ConstInt(f *ff.Field, v int64) *LinComb { return Const(f, f.NewElement(v)) }

// Var returns the linear combination consisting of the single variable x
// with coefficient 1.
func Var(f *ff.Field, x int) *LinComb { return Term(f, x, f.One()) }

// Term returns the linear combination coeff·x.
func Term(f *ff.Field, x int, coeff ff.Element) *LinComb {
	if coeff.IsZero() {
		return NewLinComb(f)
	}
	return &LinComb{f: f, terms: []term{{x, coeff}}}
}

// Field returns the coefficient field.
func (lc *LinComb) Field() *ff.Field { return lc.f }

// Constant returns the constant term.
func (lc *LinComb) Constant() ff.Element { return lc.konst }

// find returns the index of x in lc.terms, or -1 when x does not occur.
func (lc *LinComb) find(x int) int {
	lo, hi := 0, len(lc.terms)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lc.terms[m].v < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(lc.terms) && lc.terms[lo].v == x {
		return lo
	}
	return -1
}

// Coeff returns the coefficient of variable x (zero if absent).
func (lc *LinComb) Coeff(x int) ff.Element {
	if i := lc.find(x); i >= 0 {
		return lc.terms[i].c
	}
	return ff.Element{}
}

// NumTerms returns the number of variables with nonzero coefficient.
func (lc *LinComb) NumTerms() int { return len(lc.terms) }

// Vars returns the variables with nonzero coefficients, in ascending order.
// The slice is fresh; the caller may modify it.
func (lc *LinComb) Vars() []int {
	vs := make([]int, len(lc.terms))
	for i, t := range lc.terms {
		vs[i] = t.v
	}
	return vs
}

// UnionVars returns the variables occurring in any of a, b and c,
// ascending and without repeats, as one fresh slice. Each combination's
// terms are already ascending, so this is a three-way merge.
func UnionVars(a, b, c *LinComb) []int {
	lcs := [3]*LinComb{a, b, c}
	var pos [3]int
	out := make([]int, 0, len(a.terms)+len(b.terms)+len(c.terms))
	for {
		next := -1
		for i, lc := range lcs {
			if pos[i] < len(lc.terms) && (next < 0 || lc.terms[pos[i]].v < next) {
				next = lc.terms[pos[i]].v
			}
		}
		if next < 0 {
			return out
		}
		out = append(out, next)
		for i, lc := range lcs {
			if pos[i] < len(lc.terms) && lc.terms[pos[i]].v == next {
				pos[i]++
			}
		}
	}
}

// VisitTerms calls fn for every (variable, coefficient) pair in ascending
// variable order, without allocating.
func (lc *LinComb) VisitTerms(fn func(x int, coeff ff.Element)) {
	for _, t := range lc.terms {
		fn(t.v, t.c)
	}
}

// IsZero reports whether the combination is identically zero.
func (lc *LinComb) IsZero() bool { return lc.konst.IsZero() && len(lc.terms) == 0 }

// IsConst reports whether the combination has no variables.
func (lc *LinComb) IsConst() bool { return len(lc.terms) == 0 }

// IsSingleVar reports whether lc has exactly the form c·x + d with c ≠ 0,
// returning x when so.
func (lc *LinComb) IsSingleVar() (x int, ok bool) {
	if len(lc.terms) != 1 {
		return 0, false
	}
	return lc.terms[0].v, true
}

// mergeOp selects how merge folds the second operand's coefficients in.
type mergeOp int

const (
	opAdd  mergeOp = iota // a + b
	opSub                 // a − b
	opAxpy                // a + k·b
)

// merge returns the terms of a — without index skip, when skip ≥ 0 — merged
// with the terms of b under op, in one linear pass. Cancelled coefficients
// are dropped, so the result is again sorted and zero-free.
func merge(f *ff.Field, a []term, skip int, b []term, op mergeOp, k ff.Element) []term {
	out := make([]term, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if i == skip {
			i++
			continue
		}
		switch {
		case j == len(b) || (i < len(a) && a[i].v < b[j].v):
			out = append(out, a[i])
			i++
			continue
		case i == len(a) || b[j].v < a[i].v:
			out = append(out, term{b[j].v, op.apply(f, b[j].c, k)})
		default:
			if c := f.Add(a[i].c, op.apply(f, b[j].c, k)); !c.IsZero() {
				out = append(out, term{a[i].v, c})
			}
			i++
		}
		j++
	}
	return out
}

func (op mergeOp) apply(f *ff.Field, c, k ff.Element) ff.Element {
	switch op {
	case opSub:
		return f.Neg(c)
	case opAxpy:
		return f.Mul(c, k)
	}
	return c
}

// Add returns lc + other.
func (lc *LinComb) Add(other *LinComb) *LinComb {
	konst := lc.f.Add(lc.konst, other.konst)
	switch {
	case len(other.terms) == 0:
		return &LinComb{f: lc.f, konst: konst, terms: lc.terms}
	case len(lc.terms) == 0:
		return &LinComb{f: lc.f, konst: konst, terms: other.terms}
	}
	return &LinComb{f: lc.f, konst: konst, terms: merge(lc.f, lc.terms, -1, other.terms, opAdd, ff.Element{})}
}

// Sub returns lc - other.
func (lc *LinComb) Sub(other *LinComb) *LinComb {
	konst := lc.f.Sub(lc.konst, other.konst)
	if len(other.terms) == 0 {
		return &LinComb{f: lc.f, konst: konst, terms: lc.terms}
	}
	return &LinComb{f: lc.f, konst: konst, terms: merge(lc.f, lc.terms, -1, other.terms, opSub, ff.Element{})}
}

// Neg returns -lc.
func (lc *LinComb) Neg() *LinComb {
	out := &LinComb{f: lc.f, konst: lc.f.Neg(lc.konst), terms: make([]term, len(lc.terms))}
	for i, t := range lc.terms {
		out.terms[i] = term{t.v, lc.f.Neg(t.c)}
	}
	return out
}

// Scale returns k·lc for a field constant k; lc itself when k is one.
func (lc *LinComb) Scale(k ff.Element) *LinComb {
	switch {
	case k.IsZero():
		return NewLinComb(lc.f)
	case k == lc.f.One():
		return lc
	}
	return &LinComb{f: lc.f, konst: lc.f.Mul(lc.konst, k), terms: scaleTerms(lc.f, lc.terms, -1, k)}
}

// scaleTerms returns k·ts without index skip (when skip ≥ 0); k ≠ 0, so no
// coefficient vanishes.
func scaleTerms(f *ff.Field, ts []term, skip int, k ff.Element) []term {
	n := len(ts)
	if skip >= 0 {
		n--
	}
	out := make([]term, 0, n)
	for i, t := range ts {
		if i != skip {
			out = append(out, term{t.v, f.Mul(t.c, k)})
		}
	}
	return out
}

// AddTerm returns lc + coeff·x.
func (lc *LinComb) AddTerm(x int, coeff ff.Element) *LinComb {
	if coeff.IsZero() {
		return lc
	}
	return &LinComb{f: lc.f, konst: lc.konst, terms: merge(lc.f, lc.terms, -1, []term{{x, coeff}}, opAdd, ff.Element{})}
}

// AddConst returns lc + v.
func (lc *LinComb) AddConst(v ff.Element) *LinComb {
	return &LinComb{f: lc.f, konst: lc.f.Add(lc.konst, v), terms: lc.terms}
}

// Eval evaluates the combination under the assignment fn (variable → value).
// fn must return a field element for every variable of lc. The evaluation
// is allocation-free.
func (lc *LinComb) Eval(fn func(x int) ff.Element) ff.Element {
	acc := lc.konst
	for _, t := range lc.terms {
		acc = lc.f.Add(acc, lc.f.Mul(t.c, fn(t.v)))
	}
	return acc
}

// EvalMap is Eval over a map assignment; variables absent from m evaluate
// to zero.
func (lc *LinComb) EvalMap(m map[int]ff.Element) ff.Element {
	return lc.Eval(func(x int) ff.Element { return m[x] })
}

// without returns the terms of lc minus index i.
func (lc *LinComb) without(i int) []term {
	out := make([]term, 0, len(lc.terms)-1)
	out = append(out, lc.terms[:i]...)
	return append(out, lc.terms[i+1:]...)
}

// SubstituteValue returns lc with variable x replaced by the constant v. It
// returns lc itself when x does not occur.
func (lc *LinComb) SubstituteValue(x int, v ff.Element) *LinComb {
	i := lc.find(x)
	if i < 0 {
		return lc
	}
	konst := lc.f.Add(lc.konst, lc.f.Mul(lc.terms[i].c, v))
	return &LinComb{f: lc.f, konst: konst, terms: lc.without(i)}
}

// Substitute returns lc with variable x replaced by the linear combination
// repl (which must not mention x). It returns lc itself when x does not
// occur.
func (lc *LinComb) Substitute(x int, repl *LinComb) *LinComb {
	i := lc.find(x)
	if i < 0 {
		return lc
	}
	c := lc.terms[i].c
	konst := lc.f.Add(lc.konst, lc.f.Mul(c, repl.konst))
	return &LinComb{f: lc.f, konst: konst, terms: merge(lc.f, lc.terms, i, repl.terms, opAxpy, c)}
}

// SolveFor rewrites the equation lc = 0 as x = expr when the coefficient of
// x is nonzero, returning expr (which does not mention x). ok is false when
// x does not occur in lc. inv returns the inverse of a nonzero element: the
// solver passes one memoized per query, since it divides by the same few
// pivot coefficients over and over.
func (lc *LinComb) SolveFor(x int, inv func(ff.Element) ff.Element) (expr *LinComb, ok bool) {
	i := lc.find(x)
	if i < 0 {
		return nil, false
	}
	// c·x + rest = 0  ⇒  x = -rest / c
	c := lc.terms[i].c
	if c == lc.f.Neg(lc.f.One()) {
		return &LinComb{f: lc.f, konst: lc.konst, terms: lc.without(i)}, true
	}
	scale := lc.f.Neg(inv(c))
	return &LinComb{f: lc.f, konst: lc.f.Mul(lc.konst, scale), terms: scaleTerms(lc.f, lc.terms, i, scale)}, true
}

// Ratio reports whether lc = k·other for a nonzero constant k, both sides
// mentioning a variable, and returns k: the ratio of the coefficients of
// other's first variable. inv inverts a nonzero element. The terms are
// compared in place, so nothing is allocated.
func (lc *LinComb) Ratio(other *LinComb, inv func(ff.Element) ff.Element) (ff.Element, bool) {
	if len(lc.terms) == 0 || len(lc.terms) != len(other.terms) || lc.terms[0].v != other.terms[0].v {
		return ff.Element{}, false
	}
	f := lc.f
	k := f.Mul(lc.terms[0].c, inv(other.terms[0].c))
	if lc.konst != f.Mul(other.konst, k) {
		return ff.Element{}, false
	}
	for i, t := range lc.terms[1:] {
		o := other.terms[i+1]
		if t.v != o.v || t.c != f.Mul(o.c, k) {
			return ff.Element{}, false
		}
	}
	return k, true
}

// Equal reports structural equality (same field, same coefficients).
func (lc *LinComb) Equal(other *LinComb) bool {
	return lc.f.SameField(other.f) && lc.konst == other.konst && slices.Equal(lc.terms, other.terms)
}

// String renders the combination with signed coefficients, e.g.
// "2*x3 - x7 + 1". Variables print as x<i>; use StringNamed for real names.
func (lc *LinComb) String() string {
	return lc.StringNamed(func(x int) string { return fmt.Sprintf("x%d", x) })
}

// StringNamed renders the combination using the provided variable namer.
func (lc *LinComb) StringNamed(name func(x int) string) string {
	var parts []string
	for _, t := range lc.terms {
		c := lc.f.Signed(t.c)
		switch {
		case c.Cmp(oneInt) == 0:
			parts = append(parts, "+ "+name(t.v))
		case c.Cmp(minusOneInt) == 0:
			parts = append(parts, "- "+name(t.v))
		case c.Sign() < 0:
			parts = append(parts, fmt.Sprintf("- %v*%s", new(big.Int).Neg(c), name(t.v)))
		default:
			parts = append(parts, fmt.Sprintf("+ %v*%s", c, name(t.v)))
		}
	}
	if !lc.konst.IsZero() || len(parts) == 0 {
		c := lc.f.Signed(lc.konst)
		if c.Sign() < 0 {
			parts = append(parts, fmt.Sprintf("- %v", new(big.Int).Neg(c)))
		} else {
			parts = append(parts, fmt.Sprintf("+ %v", c))
		}
	}
	s := strings.Join(parts, " ")
	s = strings.TrimPrefix(s, "+ ")
	if strings.HasPrefix(s, "- ") {
		s = "-" + s[2:]
	}
	return s
}

var (
	oneInt      = big.NewInt(1)
	minusOneInt = big.NewInt(-1)
)

// RenameVars returns lc with every variable x replaced by rename(x).
// rename must be injective on the variables of lc.
func (lc *LinComb) RenameVars(rename func(x int) int) *LinComb {
	out := &LinComb{f: lc.f, konst: lc.konst, terms: make([]term, len(lc.terms))}
	for i, t := range lc.terms {
		out.terms[i] = term{rename(t.v), t.c}
	}
	slices.SortFunc(out.terms, func(a, b term) int { return cmp.Compare(a.v, b.v) })
	for i := 1; i < len(out.terms); i++ {
		if out.terms[i].v == out.terms[i-1].v {
			panic("poly: RenameVars with non-injective renaming")
		}
	}
	return out
}
