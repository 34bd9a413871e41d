package ff

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential tests: every Element operation must agree with the retained
// *big.Int reference implementation (the *Big boundary API plus big.Int
// modular arithmetic), over BN254 and a spread of small and odd-limb-count
// primes, including the edge values 0, 1, p-1 and Montgomery round-trips.

// diffFields returns the fields the differential suite runs over: BN254
// (4 limbs, the production field), two more 4-limb primes near 2^256 that
// drive the Mul/Inv/Sqrt carry paths up to MaxModulusBits, primes occupying
// 1, 2 and 3 limbs (odd limb counts exercise the zero high limbs of the
// representation), and tiny primes on the small-field fast path.
func diffFields(t testing.TB) []*Field {
	t.Helper()
	return []*Field{
		BN254(),
		// 2^255 - 19 (p ≡ 5 mod 8: Tonelli–Shanks with s = 2).
		MustField(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))),
		// 2^256 - 189 (p ≡ 3 mod 4, all 64 bits of the top limb in use).
		MustField(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(189))),
		// 3-limb prime: 2^190 - 11.
		MustField(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 190), big.NewInt(11))),
		// 2-limb prime: 2^127 - 1 (Mersenne).
		MustField(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))),
		// 1-limb primes: large 64-bit (still small-field path) and truly tiny.
		MustFieldFromString("18446744073709551557"), // largest prime < 2^64
		MustField(big.NewInt(65537)),
		MustField(big.NewInt(97)),
		MustField(big.NewInt(3)),
	}
}

// edgeValues returns the boundary cases every property also checks
// explicitly, since quick.Check rarely generates them.
func edgeValues(f *Field) []*big.Int {
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(f.Modulus(), big.NewInt(1)),
		new(big.Int).Sub(f.Modulus(), big.NewInt(2)),
		new(big.Int).Rsh(f.Modulus(), 1),
	}
}

// randBig draws a uniform value in [0, p) from a deterministic source.
func randBig(f *Field, rng *rand.Rand) *big.Int {
	return new(big.Int).Rand(rng, f.Modulus())
}

// checkPair runs prop on (a, b) picked from the quick.Check stream plus all
// edge-value pairs.
func forAllPairs(t *testing.T, f *Field, prop func(a, b *big.Int) bool) {
	t.Helper()
	edges := edgeValues(f)
	for _, a := range edges {
		for _, b := range edges {
			if !prop(a, b) {
				t.Fatalf("%s: property failed on edge pair a=%v b=%v", f.Name(), a, b)
			}
		}
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(0xd1ff)),
	}
	wrapped := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return prop(randBig(f, r), randBig(f, r))
	}
	if err := quick.Check(wrapped, cfg); err != nil {
		t.Fatalf("%s: %v", f.Name(), err)
	}
}

func TestElementDifferentialBinaryOps(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			forAllPairs(t, f, func(a, b *big.Int) bool {
				ea, eb := f.FromBig(a), f.FromBig(b)
				ra, rb := f.Reduce(a), f.Reduce(b)
				if got, want := f.ToBig(f.Add(ea, eb)), f.AddBig(ra, rb); got.Cmp(want) != 0 {
					t.Errorf("Add(%v,%v) = %v, want %v", ra, rb, got, want)
					return false
				}
				if got, want := f.ToBig(f.Sub(ea, eb)), f.SubBig(ra, rb); got.Cmp(want) != 0 {
					t.Errorf("Sub(%v,%v) = %v, want %v", ra, rb, got, want)
					return false
				}
				if got, want := f.ToBig(f.Mul(ea, eb)), f.MulBig(ra, rb); got.Cmp(want) != 0 {
					t.Errorf("Mul(%v,%v) = %v, want %v", ra, rb, got, want)
					return false
				}
				wantDiv, errBig := f.DivBig(ra, rb)
				gotDiv, errElt := f.Div(ea, eb)
				if (errBig == nil) != (errElt == nil) {
					t.Errorf("Div(%v,%v) error mismatch: big=%v elt=%v", ra, rb, errBig, errElt)
					return false
				}
				if errBig == nil && f.ToBig(gotDiv).Cmp(wantDiv) != 0 {
					t.Errorf("Div(%v,%v) = %v, want %v", ra, rb, f.ToBig(gotDiv), wantDiv)
					return false
				}
				return true
			})
		})
	}
}

func TestElementDifferentialUnaryOps(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			forAllPairs(t, f, func(a, e *big.Int) bool {
				ea := f.FromBig(a)
				ra := f.Reduce(a)
				if got, want := f.ToBig(f.Neg(ea)), f.NegBig(ra); got.Cmp(want) != 0 {
					t.Errorf("Neg(%v) = %v, want %v", ra, got, want)
					return false
				}
				if got, want := f.ToBig(f.Square(ea)), f.MulBig(ra, ra); got.Cmp(want) != 0 {
					t.Errorf("Square(%v) = %v, want %v", ra, got, want)
					return false
				}
				if got, want := f.ToBig(f.Double(ea)), f.AddBig(ra, ra); got.Cmp(want) != 0 {
					t.Errorf("Double(%v) = %v, want %v", ra, got, want)
					return false
				}
				wantInv, errBig := f.InvBig(ra)
				gotInv, errElt := f.Inv(ea)
				if (errBig == nil) != (errElt == nil) {
					t.Errorf("Inv(%v) error mismatch: big=%v elt=%v", ra, errBig, errElt)
					return false
				}
				if errBig == nil && f.ToBig(gotInv).Cmp(wantInv) != 0 {
					t.Errorf("Inv(%v) = %v, want %v", ra, f.ToBig(gotInv), wantInv)
					return false
				}
				exp := f.Reduce(e)
				if got, want := f.ToBig(f.Exp(ea, exp)), f.ExpBig(ra, exp); got.Cmp(want) != 0 {
					t.Errorf("Exp(%v,%v) = %v, want %v", ra, exp, got, want)
					return false
				}
				if got, want := f.Signed(ea), f.SignedBig(ra); got.Cmp(want) != 0 {
					t.Errorf("Signed(%v) = %v, want %v", ra, got, want)
					return false
				}
				return true
			})
		})
	}
}

// expBoundaryExponents returns exponents of every bit length Exp treats
// differently: 1–9 (square-and-multiply, and the first window digits),
// 63–65 (both sides of expWindowMinBits, and of a 64-bit word) and 127–129,
// 255–256 (word and limb boundaries). Each length contributes its smallest
// value 2^(n−1), its largest 2^n − 1, and one seeded value in between. The
// values come from whole uint64 draws, so they do not depend on the width of
// big.Word.
func expBoundaryExponents(rng *rand.Rand) []*big.Int {
	var out []*big.Int
	for _, n := range []uint{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256} {
		top := new(big.Int).Lsh(big.NewInt(1), n-1)
		all := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), n), big.NewInt(1))
		mid := new(big.Int)
		for i := uint(0); i < n; i += 64 {
			mid.Lsh(mid, 64).Or(mid, new(big.Int).SetUint64(rng.Uint64()))
		}
		mid.And(mid, all).Or(mid, top)
		out = append(out, top, all, mid)
	}
	return out
}

// TestElementDifferentialExpBoundaries checks Exp against ExpBig at the
// exponent lengths where it switches algorithm or crosses a word, for
// positive and negative exponents, on every differential field.
func TestElementDifferentialExpBoundaries(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			bases := append(edgeValues(f), f.ToBig(f.RandFrom(rng)), f.ToBig(f.RandFrom(rng)))
			for _, e := range expBoundaryExponents(rng) {
				neg := new(big.Int).Neg(e)
				for _, a := range bases {
					ea := f.FromBig(a)
					if got, want := f.ToBig(f.Exp(ea, e)), f.ExpBig(a, e); got.Cmp(want) != 0 {
						t.Fatalf("Exp(%v, %v) = %v, want %v", a, e, got, want)
					}
					if a.Sign() == 0 {
						continue // a negative power of zero panics on both sides
					}
					if got, want := f.ToBig(f.Exp(ea, neg)), f.ExpBig(a, neg); got.Cmp(want) != 0 {
						t.Fatalf("Exp(%v, %v) = %v, want %v", a, neg, got, want)
					}
				}
			}
		})
	}
}

// TestElementMontgomeryRoundTrip checks that FromBig → ToBig is the identity
// on [0, p) (i.e. the Montgomery conversion round-trips), that canonical
// representations make == coincide with field equality, and that the zero
// value is the additive identity.
func TestElementMontgomeryRoundTrip(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			vals := append(edgeValues(f), randBig(f, rng), randBig(f, rng), randBig(f, rng))
			for _, v := range vals {
				rv := f.Reduce(v)
				e := f.FromBig(rv)
				if !f.IsValid(e) {
					t.Fatalf("FromBig(%v) not canonical: %v", rv, e)
				}
				if got := f.ToBig(e); got.Cmp(rv) != 0 {
					t.Fatalf("round-trip: ToBig(FromBig(%v)) = %v", rv, got)
				}
				if e2 := f.FromBig(new(big.Int).Add(rv, f.Modulus())); e2 != e {
					t.Fatalf("FromBig(%v + p) != FromBig(%v): representations not canonical", rv, rv)
				}
			}
			var zero Element
			if f.FromBig(big.NewInt(0)) != zero {
				t.Fatalf("FromBig(0) is not the zero Element")
			}
			if !f.IsOne(f.FromBig(big.NewInt(1))) {
				t.Fatalf("FromBig(1) is not One")
			}
			if f.Add(f.One(), zero) != f.One() {
				t.Fatalf("zero value is not the additive identity")
			}
		})
	}
}

func TestElementDifferentialAggregates(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var elts []Element
			var bigs []*big.Int
			for i := 0; i < 9; i++ {
				v := randBig(f, rng)
				if i == 0 {
					v = big.NewInt(1)
				}
				if i == 1 {
					v = new(big.Int).Sub(f.Modulus(), big.NewInt(1))
				}
				elts = append(elts, f.FromBig(v))
				bigs = append(bigs, f.Reduce(v))
			}
			sum := new(big.Int)
			prod := big.NewInt(1)
			for _, v := range bigs {
				sum = f.AddBig(sum, v)
				prod = f.MulBig(prod, v)
			}
			if got := f.ToBig(f.Sum(elts...)); got.Cmp(sum) != 0 {
				t.Fatalf("Sum = %v, want %v", got, sum)
			}
			if got := f.ToBig(f.Prod(elts...)); got.Cmp(prod) != 0 {
				t.Fatalf("Prod = %v, want %v", got, prod)
			}
		})
	}
}

// TestElementDifferentialInvEdges checks Inv against the big.Int reference
// on the values where a binary GCD's carries, borrows and early exits sit:
// ±1, ±2, small k and p - k, and every power of two and its negation.
func TestElementDifferentialInvEdges(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			p := f.Modulus()
			var vals []*big.Int
			for k := int64(1); k <= 64; k++ {
				vals = append(vals, big.NewInt(k), new(big.Int).Sub(p, big.NewInt(k)))
			}
			for i := 0; i <= f.BitLen(); i++ {
				pow := new(big.Int).Lsh(big.NewInt(1), uint(i))
				vals = append(vals, pow, new(big.Int).Sub(p, pow))
			}
			for _, v := range vals {
				rv := f.Reduce(v)
				if rv.Sign() == 0 {
					continue
				}
				want, err := f.InvBig(rv)
				if err != nil {
					t.Fatalf("InvBig(%v): %v", rv, err)
				}
				got, err := f.Inv(f.FromBig(rv))
				if err != nil {
					t.Fatalf("Inv(%v): %v", rv, err)
				}
				if f.ToBig(got).Cmp(want) != 0 {
					t.Fatalf("Inv(%v) = %v, want %v", rv, f.ToBig(got), want)
				}
			}
		})
	}
}

func TestElementDifferentialSqrtLegendre(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			vals := append(edgeValues(f), randBig(f, rng), randBig(f, rng), randBig(f, rng), randBig(f, rng))
			for _, v := range vals {
				rv := f.Reduce(v)
				e := f.FromBig(rv)
				// Reference Legendre via big.Int Jacobi.
				want := big.Jacobi(rv, f.Modulus())
				if got := f.Legendre(e); got != want {
					t.Fatalf("Legendre(%v) = %d, want %d", rv, got, want)
				}
				root, ok := f.Sqrt(e)
				if ok != (want >= 0) {
					t.Fatalf("Sqrt(%v) ok=%v, want %v", rv, ok, want >= 0)
				}
				if ok {
					if got := f.ToBig(f.Square(root)); got.Cmp(rv) != 0 {
						t.Fatalf("Sqrt(%v)² = %v", rv, got)
					}
					// Cross-check the root against big.Int ModSqrt up to sign;
					// TestSqrtRootPinned pins which of the two comes back.
					ref := new(big.Int).ModSqrt(rv, f.Modulus())
					if ref == nil {
						t.Fatalf("ModSqrt(%v) = nil but Sqrt succeeded", rv)
					}
					gotRoot := f.ToBig(root)
					if gotRoot.Cmp(ref) != 0 && gotRoot.Cmp(f.NegBig(ref)) != 0 {
						t.Fatalf("Sqrt(%v) = %v, not ±%v", rv, gotRoot, ref)
					}
				}
			}
		})
	}
}

// TestFieldCache pins the satellite fix: constructing the same field twice
// returns the identical cached instance and skips the repeated primality
// check (observable as identity, and as large-N construction being cheap).
func TestFieldCache(t *testing.T) {
	a := MustField(big.NewInt(101))
	b := MustField(big.NewInt(101))
	if a != b {
		t.Fatalf("NewField(101) not cached: got distinct instances")
	}
	c := MustFieldFromString("101")
	if a != c {
		t.Fatalf("MustFieldFromString(101) not cached")
	}
	if BN254() != MustField(BN254().Modulus()) {
		t.Fatalf("BN254 modulus not cached")
	}
	for i := 0; i < 5000; i++ {
		if f, err := SmallField(97); err != nil || f != MustField(big.NewInt(97)) {
			t.Fatalf("SmallField(97) iteration %d: %v %v", i, f, err)
		}
	}
}

// sqrtDigests pins the exact root Sqrt returns, not just its sign class: the
// solver branches on that choice, so any change to it moves search trees.
// The digests were recorded with the square-and-multiply Tonelli–Shanks
// that preceded the exponent window and the Sqrt(1) fast path, and that
// matched the digests of the original implementation on that
// implementation's inputs.
var sqrtDigests = map[string]string{
	"F_2188…5617": "5b4286b0919ca08cb67395b87e3539e3672ca1f766cef774d67113318476ad42",
	"F_5789…9949": "7dd0cc540a35c610c9758ba4494cee0052b7efff56c0cfa27c8b64b23789d6f4",
	"F_1157…9747": "af661c1928b30d7aab9936d30f919ba247a027ce1e2c49a301e6e8e99c15c580",
	"F_1569…8213": "2db37bea56f6c99801e5500b5fbcfb242191be6739faccdf017dbf9ff89707a6",
	"F_1701…5727": "feb2ea7b97d2be05111ca05dd3a7f1fa430ff5e57f5013f5305bb8835c656a20",
	"F_1844…1557": "fe41fbbd5c2d2a28a419009deceb859ee7d81c002d412ec15755952d6619cc9d",
	"F_65537":     "cd737987ff26da0a0987a41a56d12abb40346e6d577d46c5c0b3e6bb4de8847e",
	"F_97":        "6ff5a0ade4e8fb3d7de3b7c6c1ca2d287f4ec262e8b8e190fd887db1dff9e4a4",
	"F_3":         "46c4f8918d7ba4cd32a810d59782df8b82c6778270260ae17278da435b59480e",
}

// TestSqrtRootPinned hashes Sqrt's (ok, root) answers over seeded squares
// and seeded arbitrary values (about half of them non-residues) on every
// differential field, and compares against the recorded digests.
func TestSqrtRootPinned(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			h := sha256.New()
			vals := edgeValues(f)
			for i := 0; i < 48; i++ {
				// RandFrom draws whole uint64 words, so the inputs do not
				// depend on big.Word's width (big.Int.Rand's draws do).
				v := f.ToBig(f.RandFrom(rng))
				vals = append(vals, v, f.MulBig(v, v))
			}
			for _, v := range vals {
				root, ok := f.Sqrt(f.FromBig(v))
				if ok {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
				h.Write(f.Bytes(root))
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := sqrtDigests[f.Name()]; got != want {
				t.Fatalf("Sqrt digest = %s, want %s", got, want)
			}
		})
	}
}

// TestSignedHelpersMatchSignedBig: CmpSignedBig and SmallNonNegBig agree
// with the allocating SignedBig reading they stand in for, on the values
// around the sign threshold (0, 1, half, half+1, p−1), on random elements,
// and, for the comparison, on unnormalized inputs that take its slow path.
func TestSignedHelpersMatchSignedBig(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			p := f.Modulus()
			half := new(big.Int).Rsh(p, 1)
			vals := []*big.Int{
				big.NewInt(0), big.NewInt(1), half,
				new(big.Int).Add(half, big.NewInt(1)),
				new(big.Int).Sub(p, big.NewInt(1)),
			}
			rng := rand.New(rand.NewSource(0x51ed))
			for i := 0; i < 64; i++ {
				vals = append(vals, randBig(f, rng))
			}
			for _, a := range vals {
				sa := f.SignedBig(a)
				n, ok := f.SmallNonNegBig(a)
				wantOK := sa.Sign() >= 0 && sa.IsInt64() && int64(int(sa.Int64())) == sa.Int64()
				if ok != wantOK || (ok && int64(n) != sa.Int64()) {
					t.Errorf("SmallNonNegBig(%v) = %d, %v; signed reading %v", a, n, ok, sa)
				}
			}
			unnormalized := []*big.Int{big.NewInt(-1), new(big.Int).Set(p), new(big.Int).Add(p, half)}
			all := append(append([]*big.Int(nil), vals...), unnormalized...)
			for _, a := range all {
				for _, b := range all {
					if got, want := f.CmpSignedBig(a, b), f.SignedBig(a).Cmp(f.SignedBig(b)); got != want {
						t.Errorf("CmpSignedBig(%v, %v) = %d, want %d", a, b, got, want)
					}
				}
			}
		})
	}
}

// randFromRef is RandFrom's contract in big.Int terms: a small field
// rejects every draw at or above the largest multiple of p below 2^64 and
// reduces the first one below it; a large field reads (bitLen+127)/64 draws
// as one big-endian number and reduces it mod p.
func randFromRef(f *Field, src RandSource) *big.Int {
	p := f.Modulus()
	if p.IsUint64() {
		bound := p.Uint64()
		limit := (^uint64(0) / bound) * bound
		for {
			if v := src.Uint64(); v < limit {
				return new(big.Int).SetUint64(v % bound)
			}
		}
	}
	v := new(big.Int)
	for i := 0; i < (p.BitLen()+127)/64; i++ {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(src.Uint64()))
	}
	return v.Mod(v, p)
}

// TestRandFromMatchesBigReference checks that RandFrom returns the
// reference value from the same draws, and consumes the same number of
// them, on every differential field and a 62-bit prime.
func TestRandFromMatchesBigReference(t *testing.T) {
	fields := append(diffFields(t), MustFieldFromString("4611686018427387847")) // largest prime < 2^62
	for _, f := range fields {
		t.Run(f.Name(), func(t *testing.T) {
			got, ref := rand.New(rand.NewSource(0x5eed)), rand.New(rand.NewSource(0x5eed))
			for i := 0; i < 2000; i++ {
				g, w := f.ToBig(f.RandFrom(got)), randFromRef(f, ref)
				if g.Cmp(w) != 0 {
					t.Fatalf("draw %d: RandFrom = %v, reference %v", i, g, w)
				}
			}
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("RandFrom consumed a different number of draws: next %#x, reference %#x", g, w)
			}
		})
	}
}
