package ff

import (
	"encoding/binary"
	"math/big" //qed2:allow-mathbig — boundary conversions (SetBig/Big), not hot-path arithmetic
	"math/bits"
)

// Element is a field element in a fixed four-limb little-endian
// representation. It is a comparable value type: == , map keys and slice
// copies all work, and the zero value is the field's additive identity.
//
// The representation depends on the field:
//
//   - large fields (modulus wider than 64 bits): the limbs hold the
//     Montgomery form a·R mod p with R = 2^256, kept canonical in [0, p);
//   - small fields (modulus fits a uint64): limb 0 holds the plain value in
//     [0, p) and the other limbs are zero, so exhaustive-enumeration code
//     can iterate raw uint64 values without conversion cost.
//
// Both representations are canonical, so two Elements of the same field are
// equal as field values iff they are equal as Go values. Elements carry no
// field pointer; all arithmetic goes through the owning *Field, and mixing
// Elements of different fields is a caller bug (exactly as it was for the
// previous *big.Int representation).
type Element [4]uint64

// ElementLimbs is the number of 64-bit limbs of an Element; MaxModulusBits
// is the widest supported modulus.
const (
	ElementLimbs   = 4
	MaxModulusBits = 64 * ElementLimbs
)

// IsZero reports whether e is the additive identity. (Zero is all-zero
// limbs in both representations: 0·R mod p = 0.)
func (e Element) IsZero() bool { return e == Element{} }

// --- limb-vector primitives ---------------------------------------------------

// addLimbs returns a + b and the carry-out.
func addLimbs(a, b Element) (Element, uint64) {
	var r Element
	var c uint64
	r[0], c = bits.Add64(a[0], b[0], 0)
	r[1], c = bits.Add64(a[1], b[1], c)
	r[2], c = bits.Add64(a[2], b[2], c)
	r[3], c = bits.Add64(a[3], b[3], c)
	return r, c
}

// subLimbs returns a - b and the borrow-out.
func subLimbs(a, b Element) (Element, uint64) {
	var r Element
	var bw uint64
	r[0], bw = bits.Sub64(a[0], b[0], 0)
	r[1], bw = bits.Sub64(a[1], b[1], bw)
	r[2], bw = bits.Sub64(a[2], b[2], bw)
	r[3], bw = bits.Sub64(a[3], b[3], bw)
	return r, bw
}

// ltLimbs reports a < b as 256-bit unsigned integers.
func ltLimbs(a, b Element) bool {
	_, bw := subLimbs(a, b)
	return bw != 0
}

// invUint64 returns a⁻¹ mod p for 0 < a < p and odd prime p, by the binary
// extended Euclidean algorithm (HAC 14.61 specialization for odd moduli).
func invUint64(a, p uint64) uint64 {
	u, v := a, p
	x1, x2 := uint64(1), uint64(0)
	for u != 1 && v != 1 {
		for u&1 == 0 {
			u >>= 1
			if x1&1 == 0 {
				x1 >>= 1
			} else {
				x1 = x1>>1 + p>>1 + 1 // (x1+p)/2 without overflow; both odd
			}
		}
		for v&1 == 0 {
			v >>= 1
			if x2&1 == 0 {
				x2 >>= 1
			} else {
				x2 = x2>>1 + p>>1 + 1
			}
		}
		if u >= v {
			u -= v
			if x1 >= x2 {
				x1 -= x2
			} else {
				x1 += p - x2
			}
		} else {
			v -= u
			if x2 >= x1 {
				x2 -= x1
			} else {
				x2 += p - x1
			}
		}
	}
	if u == 1 {
		return x1
	}
	return x2
}

// limbsFromBig converts a non-negative big.Int < 2^256 into limbs. It goes
// through a big-endian byte image, so it does not depend on the width of
// big.Word (32 bits on 386 and arm).
func limbsFromBig(v *big.Int) Element {
	var buf [8 * ElementLimbs]byte
	v.FillBytes(buf[:])
	var e Element
	for i := range e {
		e[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
	return e
}

// limbsToBig converts limbs into a fresh big.Int.
func limbsToBig(e Element) *big.Int {
	v := new(big.Int)
	var w big.Int
	for i := ElementLimbs - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, w.SetUint64(e[i]))
	}
	return v
}

// --- Montgomery multiplication (large-field path) -----------------------------

// montMul returns a·b·R⁻¹ mod p for canonical Montgomery inputs, using the
// textbook CIOS method (Koç–Acar–Kaliski), unrolled over the four limbs,
// with an explicit overflow word t4, which makes it correct for any odd
// modulus below 2^256 (the top limb may be full). The result is reduced
// into [0, p).
func (f *Field) montMul(a, b Element) Element {
	p0, p1, p2, p3 := f.pLimbs[0], f.pLimbs[1], f.pLimbs[2], f.pLimbs[3]
	var t0, t1, t2, t3, t4, t5, c, m uint64
	// Each round adds a·b[i] into t, then adds m·p so that the low word
	// cancels, and shifts t down one word.
	// Round 0.
	c, t0 = madd(a[0], b[0], t0, 0)
	c, t1 = madd(a[1], b[0], t1, c)
	c, t2 = madd(a[2], b[0], t2, c)
	c, t3 = madd(a[3], b[0], t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	m = t0 * f.pInv
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	c, t1 = madd(m, p2, t2, c)
	c, t2 = madd(m, p3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c
	// Round 1.
	c, t0 = madd(a[0], b[1], t0, 0)
	c, t1 = madd(a[1], b[1], t1, c)
	c, t2 = madd(a[2], b[1], t2, c)
	c, t3 = madd(a[3], b[1], t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	m = t0 * f.pInv
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	c, t1 = madd(m, p2, t2, c)
	c, t2 = madd(m, p3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c
	// Round 2.
	c, t0 = madd(a[0], b[2], t0, 0)
	c, t1 = madd(a[1], b[2], t1, c)
	c, t2 = madd(a[2], b[2], t2, c)
	c, t3 = madd(a[3], b[2], t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	m = t0 * f.pInv
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	c, t1 = madd(m, p2, t2, c)
	c, t2 = madd(m, p3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c
	// Round 3.
	c, t0 = madd(a[0], b[3], t0, 0)
	c, t1 = madd(a[1], b[3], t1, c)
	c, t2 = madd(a[2], b[3], t2, c)
	c, t3 = madd(a[3], b[3], t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	m = t0 * f.pInv
	c, _ = madd(m, p0, t0, 0)
	c, t0 = madd(m, p1, t1, c)
	c, t1 = madd(m, p2, t2, c)
	c, t2 = madd(m, p3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c
	r := Element{t0, t1, t2, t3}
	if t4 != 0 || !ltLimbs(r, f.pLimbs) {
		r, _ = subLimbs(r, f.pLimbs)
	}
	return r
}

// madd returns a·b + c + d as a (hi, lo) pair; it cannot overflow.
func madd(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var cc uint64
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	lo, cc = bits.Add64(lo, d, 0)
	hi += cc
	return hi, lo
}

// toMont converts a plain limb value < p into Montgomery form.
func (f *Field) toMont(a Element) Element { return f.montMul(a, f.rSquare) }

// fromMont converts a Montgomery-form value into plain limbs.
func (f *Field) fromMont(a Element) Element { return f.montMul(a, Element{1}) }
