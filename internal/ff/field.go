// Package ff implements arithmetic over prime finite fields F_p.
//
// It is the numeric substrate of the whole system: circuit signals take
// values in F_p, constraints are polynomial equations over F_p, and the
// solver reasons about satisfiability of such equations. Elements are
// represented by the fixed-limb value type Element — Montgomery form on
// four 64-bit limbs for large primes, a direct single-uint64 fast path for
// small ones — and all operations go through a *Field, which owns the
// modulus and never mutates its arguments. *big.Int appears only at the
// conversion boundary (parsing, printing, serialization, and the
// compile-time evaluator of the Circom front-end), via the *Big methods.
//
// The package ships the BN254 scalar field (the default field of the Circom
// toolchain) plus helpers to construct arbitrary prime fields up to 256
// bits, including small ones used by the test suite for exhaustive
// cross-validation.
package ff

import (
	"errors"
	"fmt"
	"math/big" //qed2:allow-mathbig — modulus bookkeeping and *Big reference ops, cold path
	"sync"
)

// Field represents the prime field F_p for an odd prime p.
// A Field is immutable after construction and safe for concurrent use.
type Field struct {
	p        *big.Int // the modulus
	half     *big.Int // (p - 1) / 2, threshold for signed interpretation
	bitLen   int
	byteLen  int
	name     string
	isSmall  bool   // p fits in uint64 (enables exhaustive enumeration)
	smallMod uint64 // p as uint64 when isSmall

	// Large-field (Montgomery) constants; unused when isSmall.
	pLimbs  Element // the modulus as limbs
	pInv    uint64  // -p⁻¹ mod 2^64
	rSquare Element // R² mod p (plain limbs), for conversion into Montgomery form
	rCube   Element // R³ mod p (plain limbs): Inv's plain-to-Montgomery correction
	one     Element // the multiplicative identity in the element representation
	inv2    Element // 1/2, for Half (every modulus is odd)

	// Tonelli–Shanks constants, with p - 1 = q·2^s and q odd, and z the
	// least quadratic non-residue.
	tsRoots       []Element // tsRoots[j] = z^(q·2^j) for j < s; len(tsRoots) = s
	tsHalfQ       *big.Int  // (q - 1) / 2
	tsHalfQDigits []uint8   // windowDigits(tsHalfQ)
}

// ErrNotPrime is returned by NewField when the modulus fails the primality test.
var ErrNotPrime = errors.New("ff: modulus is not prime")

// ErrDivByZero is returned when inverting or dividing by zero.
var ErrDivByZero = errors.New("ff: division by zero")

// fieldCache memoizes constructed fields by modulus so that repeated
// NewField calls (the test suite builds thousands of small fields) pay the
// ProbablyPrime check and Montgomery-constant setup only once. Fields are
// immutable, so sharing is safe.
var (
	fieldCacheMu sync.RWMutex
	fieldCache   = map[string]*Field{}
)

// NewField constructs the prime field F_p. It returns ErrNotPrime if p is
// not (probably) prime, and an error if p < 3 or p is wider than
// MaxModulusBits. Fields are cached by modulus, so constructing the same
// field twice returns the same (immutable, concurrency-safe) *Field.
func NewField(p *big.Int) (*Field, error) {
	if p == nil || p.Sign() <= 0 || p.Cmp(big.NewInt(3)) < 0 {
		return nil, fmt.Errorf("ff: modulus must be an odd prime >= 3, got %v", p)
	}
	key := p.String()
	fieldCacheMu.RLock()
	cached := fieldCache[key]
	fieldCacheMu.RUnlock()
	if cached != nil {
		return cached, nil
	}
	if p.BitLen() > MaxModulusBits {
		return nil, fmt.Errorf("ff: modulus wider than %d bits is not supported (got %d bits)", MaxModulusBits, p.BitLen())
	}
	if !p.ProbablyPrime(32) {
		return nil, ErrNotPrime
	}
	f := &Field{p: new(big.Int).Set(p)}
	pMinus1 := new(big.Int).Sub(f.p, big.NewInt(1))
	f.half = new(big.Int).Rsh(pMinus1, 1)
	f.bitLen = f.p.BitLen()
	f.byteLen = (f.bitLen + 7) / 8
	if f.p.IsUint64() {
		f.isSmall = true
		f.smallMod = f.p.Uint64()
		f.one = Element{1}
	} else {
		f.pLimbs = limbsFromBig(f.p)
		// -p⁻¹ mod 2^64 by Newton iteration (p is odd, so invertible).
		inv := f.pLimbs[0]
		for i := 0; i < 5; i++ {
			inv *= 2 - f.pLimbs[0]*inv
		}
		f.pInv = -inv
		r2 := new(big.Int).Lsh(big.NewInt(1), 2*MaxModulusBits)
		f.rSquare = limbsFromBig(r2.Mod(r2, f.p))
		r3 := new(big.Int).Lsh(big.NewInt(1), 3*MaxModulusBits)
		f.rCube = limbsFromBig(r3.Mod(r3, f.p))
		r := new(big.Int).Lsh(big.NewInt(1), MaxModulusBits)
		f.one = limbsFromBig(r.Mod(r, f.p))
	}
	s := int(pMinus1.TrailingZeroBits())
	q := new(big.Int).Rsh(pMinus1, uint(s))
	z := big.NewInt(2)
	for big.Jacobi(z, f.p) != -1 {
		z.Add(z, big.NewInt(1))
	}
	f.tsRoots = make([]Element, s)
	f.tsRoots[0] = f.Exp(f.FromBig(z), q)
	for j := 1; j < s; j++ {
		f.tsRoots[j] = f.Square(f.tsRoots[j-1])
	}
	f.tsHalfQ = new(big.Int).Rsh(q, 1)
	f.tsHalfQDigits = windowDigits(f.tsHalfQ)
	f.inv2 = f.MustInv(f.FromUint64(2))
	f.name = fmt.Sprintf("F_%s", shortModulus(f.p))
	fieldCacheMu.Lock()
	if prior, ok := fieldCache[key]; ok {
		f = prior // lost a construction race; keep the canonical instance
	} else {
		fieldCache[key] = f
	}
	fieldCacheMu.Unlock()
	return f, nil
}

// MustField is like NewField but panics on error. Intended for package-level
// well-known fields and tests.
func MustField(p *big.Int) *Field {
	f, err := NewField(p)
	if err != nil {
		panic(err)
	}
	return f
}

// MustFieldFromString parses a decimal (or 0x-prefixed hex) modulus and
// constructs the field, panicking on error.
func MustFieldFromString(s string) *Field {
	p, ok := new(big.Int).SetString(s, 0)
	if !ok {
		panic(fmt.Sprintf("ff: cannot parse modulus %q", s))
	}
	return MustField(p)
}

// SmallField constructs F_p for a small prime given as an int64.
func SmallField(p int64) (*Field, error) { return NewField(big.NewInt(p)) }

// BN254 returns the scalar field of the BN254 curve, the default field used
// by the Circom compiler and most deployed Circom circuits.
func BN254() *Field { return bn254 }

var bn254 = MustFieldFromString("21888242871839275222246405745257275088548364400416034343698204186575808495617")

// Modulus returns a copy of the field modulus.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.p) }

// BitLen returns the bit length of the modulus.
func (f *Field) BitLen() int { return f.bitLen }

// ByteLen returns the byte length of the Bytes encoding.
func (f *Field) ByteLen() int { return f.byteLen }

// Name returns a short human-readable name such as "F_97" or "F_2188…5617".
func (f *Field) Name() string { return f.name }

// IsSmall reports whether the modulus fits in a uint64, which enables
// exhaustive enumeration strategies in the solver and test suite.
func (f *Field) IsSmall() bool { return f.isSmall }

// SmallModulus returns the modulus as a uint64. It panics if !IsSmall().
func (f *Field) SmallModulus() uint64 {
	if !f.isSmall {
		panic("ff: SmallModulus on large field")
	}
	return f.smallMod
}

// SameField reports whether g is the same field (same modulus) as f.
func (f *Field) SameField(g *Field) bool {
	return f == g || (g != nil && f.p.Cmp(g.p) == 0)
}

// shortModulus renders a modulus compactly for field names.
func shortModulus(p *big.Int) string {
	s := p.String()
	if len(s) <= 10 {
		return s
	}
	return s[:4] + "…" + s[len(s)-4:]
}

// --- big.Int boundary API ----------------------------------------------------
//
// These arbitrary-precision operations exist for the edges of the system —
// parsing, printing, serialization, and the Circom compile-time evaluator,
// whose integer semantics (array indices, loop bounds, shifts) are
// inherently big.Int-shaped — and as the reference implementation the
// differential tests check the limb arithmetic against. None of them may
// appear in solver, substitution or witness-checking hot paths.

// Reduce returns v mod p in [0, p) without mutating v.
func (f *Field) Reduce(v *big.Int) *big.Int {
	return new(big.Int).Mod(v, f.p)
}

// IsValidBig reports whether v is already normalized into [0, p).
func (f *Field) IsValidBig(v *big.Int) bool {
	return v != nil && v.Sign() >= 0 && v.Cmp(f.p) < 0
}

// AddBig returns a + b mod p for normalized inputs.
func (f *Field) AddBig(a, b *big.Int) *big.Int {
	r := new(big.Int).Add(a, b)
	if r.Cmp(f.p) >= 0 {
		r.Sub(r, f.p)
	}
	return r
}

// SubBig returns a - b mod p for normalized inputs.
func (f *Field) SubBig(a, b *big.Int) *big.Int {
	r := new(big.Int).Sub(a, b)
	if r.Sign() < 0 {
		r.Add(r, f.p)
	}
	return r
}

// NegBig returns -a mod p for a normalized input.
func (f *Field) NegBig(a *big.Int) *big.Int {
	if a.Sign() == 0 {
		return new(big.Int)
	}
	return new(big.Int).Sub(f.p, a)
}

// MulBig returns a * b mod p.
func (f *Field) MulBig(a, b *big.Int) *big.Int {
	r := new(big.Int).Mul(a, b)
	return r.Mod(r, f.p)
}

// InvBig returns a⁻¹ mod p, or ErrDivByZero if a ≡ 0.
func (f *Field) InvBig(a *big.Int) (*big.Int, error) {
	if new(big.Int).Mod(a, f.p).Sign() == 0 {
		return nil, ErrDivByZero
	}
	r := new(big.Int).ModInverse(a, f.p)
	if r == nil {
		return nil, ErrDivByZero
	}
	return r, nil
}

// DivBig returns a / b mod p, or ErrDivByZero if b ≡ 0.
func (f *Field) DivBig(a, b *big.Int) (*big.Int, error) {
	bi, err := f.InvBig(b)
	if err != nil {
		return nil, err
	}
	return f.MulBig(a, bi), nil
}

// ExpBig returns a^e mod p for a non-negative exponent e. A negative
// exponent is interpreted as (a⁻¹)^|e| and panics if a ≡ 0.
func (f *Field) ExpBig(a, e *big.Int) *big.Int {
	if e.Sign() < 0 {
		inv, err := f.InvBig(a)
		if err != nil {
			panic(err)
		}
		return new(big.Int).Exp(inv, new(big.Int).Neg(e), f.p)
	}
	return new(big.Int).Exp(a, e, f.p)
}

// SignedBig returns the representative of a normalized big.Int element in
// (-(p-1)/2, (p-1)/2], the conventional "signed" reading used in
// diagnostics (e.g. printing -1 instead of p-1).
func (f *Field) SignedBig(a *big.Int) *big.Int {
	if a.Cmp(f.half) > 0 {
		return new(big.Int).Sub(a, f.p)
	}
	return new(big.Int).Set(a)
}

// CmpSignedBig compares the signed readings (SignedBig) of a and b and
// returns -1, 0 or +1. It allocates nothing when a and b are normalized, as
// the Circom front-end's relational operators pass them; other inputs take
// the SignedBig route.
func (f *Field) CmpSignedBig(a, b *big.Int) int {
	aNeg, bNeg := a.Cmp(f.half) > 0, b.Cmp(f.half) > 0
	if aNeg == bNeg {
		// Both readings shift by the same amount (0 or p).
		return a.Cmp(b)
	}
	if !f.IsValidBig(a) || !f.IsValidBig(b) {
		return f.SignedBig(a).Cmp(f.SignedBig(b))
	}
	if aNeg {
		return -1
	}
	return 1
}

// SmallNonNegBig returns the signed reading (SignedBig) of a as an int when
// that reading is non-negative and fits an int, without allocating; ok is
// false otherwise, and callers that need the reading use SignedBig.
func (f *Field) SmallNonNegBig(a *big.Int) (n int, ok bool) {
	if !a.IsInt64() || a.Sign() < 0 || a.Cmp(f.half) > 0 {
		return 0, false
	}
	v := a.Int64()
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}
