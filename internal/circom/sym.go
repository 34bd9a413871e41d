package circom

import (
	"fmt"
	"math/big"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// symVal is the symbolic value of an expression over signals during
// constraint emission. Mirroring the Circom compiler, a symbolic value is
// at most "quadratic": either a constant, a linear combination of signals,
// or A·B + C with A, B, C linear. Anything beyond that shape is rejected at
// compile time, exactly as circom rejects non-quadratic constraints.
type symVal struct {
	f *ff.Field
	// lin is set for degree ≤ 1 values (constants included).
	lin *poly.LinComb
	// qa·qb + qc is the value when quadratic (lin == nil).
	qa, qb, qc *poly.LinComb
}

func symConst(f *ff.Field, v *big.Int) *symVal {
	return &symVal{f: f, lin: poly.ConstBig(f, v)}
}

func symLin(f *ff.Field, lc *poly.LinComb) *symVal {
	return &symVal{f: f, lin: lc}
}

func symQuad(f *ff.Field, a, b, c *poly.LinComb) *symVal {
	return &symVal{f: f, qa: a, qb: b, qc: c}
}

// isConst reports whether the value is a compile-time constant, returning it
// in the evaluator's big.Int domain.
func (v *symVal) isConst() (*big.Int, bool) {
	if v.lin != nil && v.lin.IsConst() {
		return v.f.ToBig(v.lin.Constant()), true
	}
	return nil, false
}

func (v *symVal) isLinear() bool { return v.lin != nil }

// degreeName describes the value's shape for error messages.
func (v *symVal) degreeName() string {
	if c, ok := v.isConst(); ok {
		return fmt.Sprintf("constant %v", c)
	}
	if v.isLinear() {
		return "linear expression"
	}
	return "quadratic expression"
}

// symAdd returns a + b, rejecting the sum of two quadratic values (which is
// in general not expressible as a single rank-1 constraint).
func symAdd(a, b *symVal) (*symVal, error) {
	switch {
	case a.lin != nil && b.lin != nil:
		return symLin(a.f, a.lin.Add(b.lin)), nil
	case a.lin != nil:
		return symQuad(a.f, b.qa, b.qb, b.qc.Add(a.lin)), nil
	case b.lin != nil:
		return symQuad(a.f, a.qa, a.qb, a.qc.Add(b.lin)), nil
	default:
		return nil, errQuadSum
	}
}

// errQuadSum rejects the sum or difference of two quadratic values.
var errQuadSum = fmt.Errorf("sum of two quadratic expressions is not quadratic")

// symNeg returns -a.
func symNeg(a *symVal) *symVal {
	if a.lin != nil {
		return symLin(a.f, a.lin.Neg())
	}
	return symQuad(a.f, a.qa.Neg(), a.qb, a.qc.Neg())
}

// symSub returns a - b, merging the linear parts with one subtraction: only
// a quadratic b has a factor to negate.
func symSub(a, b *symVal) (*symVal, error) {
	switch {
	case a.lin != nil && b.lin != nil:
		return symLin(a.f, a.lin.Sub(b.lin)), nil
	case a.lin != nil:
		return symQuad(a.f, b.qa.Neg(), b.qb, a.lin.Sub(b.qc)), nil
	case b.lin != nil:
		return symQuad(a.f, a.qa, a.qb, a.qc.Sub(b.lin)), nil
	default:
		return nil, errQuadSum
	}
}

// symMul returns a·b, rejecting products whose degree would exceed 2.
func symMul(a, b *symVal) (*symVal, error) {
	if c, ok := a.isConst(); ok {
		return symScale(b, c), nil
	}
	if c, ok := b.isConst(); ok {
		return symScale(a, c), nil
	}
	if a.lin != nil && b.lin != nil {
		return symQuad(a.f, a.lin, b.lin, poly.NewLinComb(a.f)), nil
	}
	return nil, fmt.Errorf("product of %s and %s exceeds degree 2", a.degreeName(), b.degreeName())
}

// symScale returns k·a for a constant k.
func symScale(a *symVal, k *big.Int) *symVal {
	ke := a.f.FromBig(k)
	if a.lin != nil {
		return symLin(a.f, a.lin.Scale(ke))
	}
	return symQuad(a.f, a.qa.Scale(ke), a.qb, a.qc.Scale(ke))
}

// symDiv returns a / k for a constant nonzero divisor k. Division by a
// signal-dependent expression is only legal in witness-assignment position
// (<--), never in a constraint.
func symDiv(a, b *symVal) (*symVal, error) {
	k, ok := b.isConst()
	if !ok {
		return nil, fmt.Errorf("division by a signal-dependent expression is not allowed in constraints (use <-- and add the constraint explicitly)")
	}
	inv, err := a.f.InvBig(k)
	if err != nil {
		return nil, fmt.Errorf("division by zero")
	}
	return symScale(a, inv), nil
}
