package ff

import (
	"crypto/rand"
	"fmt"
	"math/big" //qed2:allow-mathbig — string/rand conversions at the API boundary, cold path
	"math/bits"
)

// This file implements the Element operations of a Field. Everything here is
// allocation-free on the hot paths: small fields dispatch to single-word
// uint64 arithmetic on limb 0, large fields to the four-limb Montgomery core
// in element.go. Conversions to and from *big.Int (FromBig/ToBig and the
// string/bytes codecs) are the only places that touch the heap.

// --- element construction & conversion ---------------------------------------

// Zero returns the additive identity.
func (f *Field) Zero() Element { return Element{} }

// One returns the multiplicative identity.
func (f *Field) One() Element { return f.one }

// NewElement reduces the signed integer v into the field.
func (f *Field) NewElement(v int64) Element {
	if v >= 0 {
		return f.FromUint64(uint64(v))
	}
	return f.Neg(f.FromUint64(uint64(-v)))
}

// FromUint64 reduces v into the field.
func (f *Field) FromUint64(v uint64) Element {
	if f.isSmall {
		return Element{v % f.smallMod}
	}
	return f.toMont(Element{v})
}

// FromBig reduces a *big.Int (any sign, any magnitude) into the field's
// element representation.
func (f *Field) FromBig(v *big.Int) Element {
	if !f.IsValidBig(v) {
		v = f.Reduce(v)
	}
	if f.isSmall {
		return Element{v.Uint64()}
	}
	return f.toMont(limbsFromBig(v))
}

// ToBig returns the plain integer value of e in [0, p) as a fresh big.Int.
func (f *Field) ToBig(e Element) *big.Int {
	if f.isSmall {
		return new(big.Int).SetUint64(e[0])
	}
	return limbsToBig(f.fromMont(e))
}

// FromString parses a decimal or 0x-hex literal (optionally negative) and
// reduces it into the field.
func (f *Field) FromString(s string) (Element, error) {
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return Element{}, fmt.Errorf("ff: cannot parse field element %q", s)
	}
	return f.FromBig(v), nil
}

// MustElement is FromString, panicking on parse failure.
func (f *Field) MustElement(s string) Element {
	v, err := f.FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// IsValid reports whether e is a canonical representation of a field
// element: in-range, and with no stray high limbs on the small-field path.
func (f *Field) IsValid(e Element) bool {
	if f.isSmall {
		return e[1] == 0 && e[2] == 0 && e[3] == 0 && e[0] < f.smallMod
	}
	return ltLimbs(e, f.pLimbs)
}

// Bytes returns the fixed-width big-endian encoding of e's plain value,
// exactly ByteLen() bytes, independent of the internal representation.
func (f *Field) Bytes(e Element) []byte {
	plain := e
	if !f.isSmall {
		plain = f.fromMont(e)
	}
	out := make([]byte, f.byteLen)
	for k := 0; k < f.byteLen; k++ {
		out[f.byteLen-1-k] = byte(plain[k/8] >> (8 * (k % 8)))
	}
	return out
}

// SetBytes decodes a fixed-width big-endian encoding produced by Bytes.
// It rejects (without panicking) inputs of the wrong length and values
// outside [0, p).
func (f *Field) SetBytes(b []byte) (Element, error) {
	if len(b) != f.byteLen {
		return Element{}, fmt.Errorf("ff: encoded element must be %d bytes, got %d", f.byteLen, len(b))
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(f.p) >= 0 {
		return Element{}, fmt.Errorf("ff: encoded value %s out of range for %s", v, f.name)
	}
	if f.isSmall {
		return Element{v.Uint64()}, nil
	}
	return f.toMont(limbsFromBig(v)), nil
}

// --- arithmetic -------------------------------------------------------------

// Add returns a + b. The limb chains are unrolled in the method body so it
// stays within the inlining budget: add/sub dominate poly substitution.
func (f *Field) Add(a, b Element) Element {
	if f.isSmall {
		return f.addSmall(a, b)
	}
	var r, s Element
	var c, bw uint64
	r[0], c = bits.Add64(a[0], b[0], 0)
	r[1], c = bits.Add64(a[1], b[1], c)
	r[2], c = bits.Add64(a[2], b[2], c)
	r[3], c = bits.Add64(a[3], b[3], c)
	s[0], bw = bits.Sub64(r[0], f.pLimbs[0], 0)
	s[1], bw = bits.Sub64(r[1], f.pLimbs[1], bw)
	s[2], bw = bits.Sub64(r[2], f.pLimbs[2], bw)
	s[3], bw = bits.Sub64(r[3], f.pLimbs[3], bw)
	if c != 0 || bw == 0 {
		return s
	}
	return r
}

func (f *Field) addSmall(a, b Element) Element {
	s, c := bits.Add64(a[0], b[0], 0)
	if c != 0 || s >= f.smallMod {
		s -= f.smallMod
	}
	return Element{s}
}

// Sub returns a - b.
func (f *Field) Sub(a, b Element) Element {
	if f.isSmall {
		return f.subSmall(a, b)
	}
	var r, s Element
	var bw, c uint64
	r[0], bw = bits.Sub64(a[0], b[0], 0)
	r[1], bw = bits.Sub64(a[1], b[1], bw)
	r[2], bw = bits.Sub64(a[2], b[2], bw)
	r[3], bw = bits.Sub64(a[3], b[3], bw)
	s[0], c = bits.Add64(r[0], f.pLimbs[0], 0)
	s[1], c = bits.Add64(r[1], f.pLimbs[1], c)
	s[2], c = bits.Add64(r[2], f.pLimbs[2], c)
	s[3], _ = bits.Add64(r[3], f.pLimbs[3], c)
	if bw != 0 {
		return s
	}
	return r
}

func (f *Field) subSmall(a, b Element) Element {
	s, bw := bits.Sub64(a[0], b[0], 0)
	if bw != 0 {
		s += f.smallMod
	}
	return Element{s}
}

// Neg returns -a.
func (f *Field) Neg(a Element) Element {
	if a.IsZero() {
		return Element{}
	}
	if f.isSmall {
		return Element{f.smallMod - a[0]}
	}
	r, _ := subLimbs(f.pLimbs, a)
	return r
}

// Mul returns a * b.
func (f *Field) Mul(a, b Element) Element {
	if f.isSmall {
		hi, lo := bits.Mul64(a[0], b[0])
		_, rem := bits.Div64(hi, lo, f.smallMod)
		return Element{rem}
	}
	return f.montMul(a, b)
}

// Square returns a².
func (f *Field) Square(a Element) Element { return f.Mul(a, a) }

// Double returns 2a.
func (f *Field) Double(a Element) Element { return f.Add(a, a) }

// Half returns a/2, by one multiplication with the precomputed 1/2.
func (f *Field) Half(a Element) Element { return f.Mul(a, f.inv2) }

// Inv returns a⁻¹, or ErrDivByZero if a ≡ 0. Small fields run the binary
// extended Euclidean algorithm on one word; large fields return ±1 as is
// and otherwise run Pornin's batched binary GCD (invMont in inv.go). Both
// paths are allocation-free.
func (f *Field) Inv(a Element) (Element, error) {
	if a.IsZero() {
		return Element{}, ErrDivByZero
	}
	if f.isSmall {
		return Element{invUint64(a[0], f.smallMod)}, nil
	}
	if a == f.one || a == f.Neg(f.one) {
		return a, nil // ±1 is its own inverse
	}
	return f.invMont(a), nil
}

// MustInv is Inv, panicking on division by zero.
func (f *Field) MustInv(a Element) Element {
	r, err := f.Inv(a)
	if err != nil {
		panic(err)
	}
	return r
}

// Div returns a / b, or ErrDivByZero if b ≡ 0.
func (f *Field) Div(a, b Element) (Element, error) {
	bi, err := f.Inv(b)
	if err != nil {
		return Element{}, err
	}
	return f.Mul(a, bi), nil
}

// Exp returns a^e for a non-negative exponent e. A negative exponent is
// interpreted as (a⁻¹)^|e| and panics if a ≡ 0.
func (f *Field) Exp(a Element, e *big.Int) Element {
	if e.Sign() < 0 {
		return f.Exp(f.MustInv(a), new(big.Int).Neg(e))
	}
	return f.expFixed(a, e, windowDigits(e))
}

// expFixed is Exp for a non-negative e with its windowDigits already at
// hand: NewField precomputes them for the exponent Sqrt uses.
func (f *Field) expFixed(a Element, e *big.Int, digits []uint8) Element {
	if digits != nil {
		return f.expWindow(a, digits)
	}
	r := f.one
	for i := e.BitLen() - 1; i >= 0; i-- {
		r = f.Mul(r, r)
		if e.Bit(i) == 1 {
			r = f.Mul(r, a)
		}
	}
	return r
}

// expWindowMinBits is the exponent length above which Exp switches from
// square-and-multiply, about 1.5 multiplications a bit, to a fixed 4-bit
// window, about 1.25 a bit plus a 14-multiplication table.
const expWindowMinBits = 64

// windowDigits returns the base-16 digits of a non-negative e, most
// significant first and without leading zeros, or nil when e is at most
// expWindowMinBits bits long. It reads bits through big.Int.Bit, so it does
// not depend on the width of big.Word.
func windowDigits(e *big.Int) []uint8 {
	if e.BitLen() <= expWindowMinBits {
		return nil
	}
	n := (e.BitLen() + 3) / 4
	d := make([]uint8, n)
	for j := range d {
		lo := 4 * (n - 1 - j)
		d[j] = uint8(e.Bit(lo) | e.Bit(lo+1)<<1 | e.Bit(lo+2)<<2 | e.Bit(lo+3)<<3)
	}
	return d
}

// expWindow returns a^e for the base-16 digits of e (windowDigits): four
// squarings per digit and one table multiplication per nonzero digit.
func (f *Field) expWindow(a Element, digits []uint8) Element {
	var table [16]Element
	table[0], table[1] = f.one, a
	for k := 2; k < len(table); k++ {
		table[k] = f.Mul(table[k-1], a)
	}
	r := f.one
	for i, d := range digits {
		if i > 0 {
			r = f.Square(f.Square(f.Square(f.Square(r))))
		}
		if d != 0 {
			r = f.Mul(r, table[d])
		}
	}
	return r
}

// ExpInt is Exp with an int64 exponent.
func (f *Field) ExpInt(a Element, e int64) Element {
	return f.Exp(a, big.NewInt(e))
}

// Equal reports a == b. (Representations are canonical, so this is plain
// value equality; it exists for symmetry with the rest of the API.)
func (f *Field) Equal(a, b Element) bool { return a == b }

// IsZero reports a ≡ 0.
func (f *Field) IsZero(a Element) bool { return a.IsZero() }

// IsOne reports a ≡ 1.
func (f *Field) IsOne(a Element) bool { return a == f.one }

// Signed returns the plain representative of a in (-(p-1)/2, (p-1)/2], the
// conventional "signed" reading of field elements used in diagnostics
// (e.g. printing -1 instead of p-1).
func (f *Field) Signed(a Element) *big.Int {
	return f.SignedBig(f.ToBig(a))
}

// String renders an element using the signed representative when that is
// shorter, e.g. "-1" rather than the full modulus-minus-one literal.
func (f *Field) String(a Element) string {
	return f.Signed(a).String()
}

// --- batch / aggregate operations -------------------------------------------

// Sum returns the field sum of all vs.
func (f *Field) Sum(vs ...Element) Element {
	var r Element
	for _, v := range vs {
		r = f.Add(r, v)
	}
	return r
}

// Prod returns the field product of all vs (1 for the empty product).
func (f *Field) Prod(vs ...Element) Element {
	r := f.one
	for _, v := range vs {
		r = f.Mul(r, v)
	}
	return r
}

// --- randomness ---------------------------------------------------------------

// Rand returns a uniformly random field element using crypto/rand.
func (f *Field) Rand() Element {
	v, err := rand.Int(rand.Reader, f.p)
	if err != nil {
		panic(fmt.Sprintf("ff: crypto/rand failure: %v", err))
	}
	return f.FromBig(v)
}

// RandSource abstracts the subset of math/rand we need, so deterministic
// test generators can be plugged in.
type RandSource interface {
	Uint64() uint64
}

// RandFrom returns a pseudo-random field element drawn from src. The
// distribution is uniform up to negligible modulo bias for large fields and
// exactly uniform via rejection for small fields. The draw sequence (number
// of Uint64 calls and resulting value) is stable across releases: seeded
// runs must keep reproducing the same solver search trees.
func (f *Field) RandFrom(src RandSource) Element {
	if f.isSmall {
		// Rejection sampling for exact uniformity.
		bound := f.smallMod
		limit := (^uint64(0) / bound) * bound
		for {
			v := src.Uint64()
			if v < limit {
				return Element{v % bound}
			}
		}
	}
	// The draw is nWords words read as one big-endian number v, and the
	// result is v mod p. Horner's rule computes it in the field, one word at
	// a time: p > 2^64 here, so each word and the shift 2^64 are already
	// reduced.
	nWords := (f.bitLen + 127) / 64 // 64 extra bits drown the modulo bias
	shift := f.Double(f.FromUint64(1 << 63))
	var v Element
	for i := 0; i < nWords; i++ {
		v = f.Add(f.Mul(v, shift), f.FromUint64(src.Uint64()))
	}
	return v
}

// --- square roots & quadratic residues ------------------------------------

// Legendre returns the Legendre symbol (a/p): 0 if a ≡ 0, 1 if a is a
// nonzero quadratic residue, -1 otherwise.
func (f *Field) Legendre(a Element) int {
	if a.IsZero() {
		return 0
	}
	if f.Exp(a, f.half) == f.one {
		return 1
	}
	return -1
}

// Sqrt returns a square root of a if one exists (Tonelli–Shanks), together
// with true; otherwise the zero Element and false. For a ≡ 0 and a ≡ 1 it
// returns a, true at once: 1 is the discriminant of every bit constraint
// x·(x − 1) = 0 the solver meets. The chosen root is deterministic: callers
// branch the solver search on it, so it must not vary between runs or
// representations.
//
// Write p - 1 = q·2^s with q odd. One exponentiation w = a^((q-1)/2)
// yields the starting root r = a·w = a^((q+1)/2) and t = r·w = a^q. Each
// round then finds the least i with t^(2^i) = 1 and multiplies r by
// b = c^(2^(m-i-1)) for the current generator c = z^(q·2^(s-m)), which is
// the precomputed tsRoots[s-i-1]. No separate Legendre test is needed: for
// a non-residue, t has order exactly 2^s, so the first search for an i < s
// runs out and reports false. For p ≡ 3 (mod 4), s = 1 and r is the
// familiar a^((p+1)/4).
func (f *Field) Sqrt(a Element) (Element, bool) {
	if a.IsZero() || a == f.one {
		return a, true // the roots the exponentiation below would return
	}
	w := f.expFixed(a, f.tsHalfQ, f.tsHalfQDigits)
	r := f.Mul(a, w)
	t := f.Mul(r, w)
	s := len(f.tsRoots)
	for m := s; t != f.one; {
		// Find least i in (0, m) with t^(2^i) == 1.
		i := 0
		for t2 := t; t2 != f.one; {
			t2 = f.Square(t2)
			i++
			if i == m {
				return Element{}, false // a is a non-residue
			}
		}
		b := f.tsRoots[s-i-1]
		m = i
		t = f.Mul(t, f.tsRoots[s-i])
		r = f.Mul(r, b)
	}
	return r, true
}
