package circom

import (
	"fmt"
	"math/big"

	"qed2/internal/ff"
)

// This file centralizes the concrete semantics of Circom operators over
// field elements, shared by the compile-time evaluator and the witness-time
// interpreter.
//
// Following the Circom 2 specification:
//   - +, -, * and / are field operations (/ is multiplication by inverse);
//   - relational operators compare the *signed representatives* of their
//     operands, i.e. the lift into (−p/2, p/2];
//   - \, %, <<, >>, &, |, ^ and ~ operate on the canonical *unsigned*
//     representative in [0, p) as an integer and reduce the result back into
//     the field (this is what lets circomlib evaluate CompConstant(-1): the
//     -1 reads as p−1, a 254-bit constant);
//   - boolean operators treat 0 as false and everything else as true and
//     produce 0/1;
//   - ** is field exponentiation with the exponent read as an unsigned
//     integer in [0, p).

// maxShift bounds shift amounts so a hostile or buggy circuit cannot force
// multi-gigabyte bignums.
const maxShift = 1 << 20

func truthy(v *big.Int) bool { return v.Sign() != 0 }

// zero and one are shared: boolElt returns them, and i++ and i-- add and
// subtract one. Compile-time values are never written in place.
var zero, one = new(big.Int), big.NewInt(1)

func boolElt(b bool) *big.Int {
	if b {
		return one
	}
	return zero
}

// applyBin applies a binary Circom operator to two normalized field
// elements in big.Int form — the compile-time evaluator's domain, where
// values flow into array sizes and loop bounds anyway.
func applyBin(f *ff.Field, op TokKind, a, b *big.Int) (*big.Int, error) {
	switch op {
	case TokPlus:
		return f.AddBig(a, b), nil
	case TokMinus:
		return f.SubBig(a, b), nil
	case TokStar:
		return f.MulBig(a, b), nil
	case TokSlash:
		r, err := f.DivBig(a, b)
		if err != nil {
			return nil, fmt.Errorf("division by zero")
		}
		return r, nil
	case TokPow:
		return f.ExpBig(a, b), nil
	case TokIntDiv:
		ua, ub := f.Reduce(a), f.Reduce(b)
		if ub.Sign() == 0 {
			return nil, fmt.Errorf("integer division by zero")
		}
		return f.Reduce(new(big.Int).Quo(ua, ub)), nil
	case TokPercent:
		ua, ub := f.Reduce(a), f.Reduce(b)
		if ub.Sign() == 0 {
			return nil, fmt.Errorf("modulo by zero")
		}
		return f.Reduce(new(big.Int).Rem(ua, ub)), nil
	case TokEq:
		return boolElt(a.Cmp(b) == 0), nil
	case TokNeq:
		return boolElt(a.Cmp(b) != 0), nil
	case TokLt:
		return boolElt(f.CmpSignedBig(a, b) < 0), nil
	case TokLeq:
		return boolElt(f.CmpSignedBig(a, b) <= 0), nil
	case TokGt:
		return boolElt(f.CmpSignedBig(a, b) > 0), nil
	case TokGeq:
		return boolElt(f.CmpSignedBig(a, b) >= 0), nil
	case TokAndAnd:
		return boolElt(truthy(a) && truthy(b)), nil
	case TokOrOr:
		return boolElt(truthy(a) || truthy(b)), nil
	case TokShl:
		n, err := shiftAmount(f, b)
		if err != nil {
			return nil, err
		}
		return f.Reduce(new(big.Int).Lsh(f.Reduce(a), n)), nil
	case TokShr:
		n, err := shiftAmount(f, b)
		if err != nil {
			return nil, err
		}
		return f.Reduce(new(big.Int).Rsh(f.Reduce(a), n)), nil
	case TokBitAnd:
		return bitwise(f, a, b, (*big.Int).And)
	case TokBitOr:
		return bitwise(f, a, b, (*big.Int).Or)
	case TokBitXor:
		return bitwise(f, a, b, (*big.Int).Xor)
	default:
		return nil, fmt.Errorf("operator %q is not a binary value operator", op)
	}
}

func shiftAmount(f *ff.Field, b *big.Int) (uint, error) {
	ub := f.Reduce(b)
	if ub.Cmp(big.NewInt(maxShift)) > 0 {
		return 0, fmt.Errorf("shift amount %v out of range", ub)
	}
	return uint(ub.Uint64()), nil
}

func bitwise(f *ff.Field, a, b *big.Int, op func(z, x, y *big.Int) *big.Int) (*big.Int, error) {
	return f.Reduce(op(new(big.Int), f.Reduce(a), f.Reduce(b))), nil
}

// applyUn applies a unary Circom operator.
func applyUn(f *ff.Field, op TokKind, a *big.Int) (*big.Int, error) {
	switch op {
	case TokMinus:
		return f.NegBig(a), nil
	case TokNot:
		return boolElt(!truthy(a)), nil
	case TokBitNot:
		// Circom's complement is with respect to the 254-bit mask; we use
		// the field-width mask, which agrees for BN254-sized fields.
		mask := new(big.Int).Lsh(big.NewInt(1), uint(f.BitLen()))
		mask.Sub(mask, big.NewInt(1))
		sa := f.SignedBig(a)
		if sa.Sign() < 0 {
			sa = f.Reduce(sa)
		}
		return f.Reduce(new(big.Int).AndNot(mask, sa)), nil
	default:
		return nil, fmt.Errorf("operator %q is not a unary value operator", op)
	}
}

// applyBinElt is applyBin over ff.Element — the witness interpreter's
// domain. Field-semantics operators run natively on limbs; the
// integer-semantics ones (\, %, shifts, bitwise) and signed comparisons
// genuinely need the unsigned/signed integer representative and convert at
// the edge.
func applyBinElt(f *ff.Field, op TokKind, a, b ff.Element) (ff.Element, error) {
	switch op {
	case TokPlus:
		return f.Add(a, b), nil
	case TokMinus:
		return f.Sub(a, b), nil
	case TokStar:
		return f.Mul(a, b), nil
	case TokSlash:
		r, err := f.Div(a, b)
		if err != nil {
			return ff.Element{}, fmt.Errorf("division by zero")
		}
		return r, nil
	case TokPow:
		return f.Exp(a, f.ToBig(b)), nil
	case TokEq:
		return boolEltOf(f, a == b), nil
	case TokNeq:
		return boolEltOf(f, a != b), nil
	case TokAndAnd:
		return boolEltOf(f, !a.IsZero() && !b.IsZero()), nil
	case TokOrOr:
		return boolEltOf(f, !a.IsZero() || !b.IsZero()), nil
	default:
		r, err := applyBin(f, op, f.ToBig(a), f.ToBig(b))
		if err != nil {
			return ff.Element{}, err
		}
		return f.FromBig(r), nil
	}
}

// applyUnElt is applyUn over ff.Element.
func applyUnElt(f *ff.Field, op TokKind, a ff.Element) (ff.Element, error) {
	switch op {
	case TokMinus:
		return f.Neg(a), nil
	case TokNot:
		return boolEltOf(f, a.IsZero()), nil
	default:
		r, err := applyUn(f, op, f.ToBig(a))
		if err != nil {
			return ff.Element{}, err
		}
		return f.FromBig(r), nil
	}
}

func boolEltOf(f *ff.Field, b bool) ff.Element {
	if b {
		return f.One()
	}
	return ff.Element{}
}
