package ff

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

var testFields = []*Field{
	BN254(),
	MustField(big.NewInt(97)),
	MustField(big.NewInt(1009)),
	MustField(big.NewInt((1 << 31) - 1)), // Mersenne prime 2^31-1
}

func TestNewFieldRejectsComposite(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 4, 9, 15, 100, 1 << 20} {
		if _, err := SmallField(n); err == nil {
			t.Errorf("NewField(%d) accepted a non-prime/out-of-range modulus", n)
		}
	}
}

func TestNewFieldAcceptsPrimes(t *testing.T) {
	for _, n := range []int64{3, 5, 7, 97, 65537, (1 << 31) - 1} {
		f, err := SmallField(n)
		if err != nil {
			t.Fatalf("NewField(%d): %v", n, err)
		}
		if !f.IsSmall() || f.SmallModulus() != uint64(n) {
			t.Errorf("NewField(%d): IsSmall/SmallModulus mismatch", n)
		}
	}
}

func TestNewFieldRejectsWideModulus(t *testing.T) {
	// 2^521 - 1 is prime but wider than MaxModulusBits.
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 521), big.NewInt(1))
	if _, err := NewField(p); err == nil {
		t.Fatal("NewField accepted a modulus wider than MaxModulusBits")
	}
}

func TestBN254Basics(t *testing.T) {
	f := BN254()
	if f.IsSmall() {
		t.Fatal("BN254 reported small")
	}
	if f.BitLen() != 254 {
		t.Fatalf("BN254 bitlen = %d, want 254", f.BitLen())
	}
	// -1 must print as -1 via signed representation.
	m1 := f.Neg(f.One())
	if got := f.String(m1); got != "-1" {
		t.Errorf("String(-1) = %q", got)
	}
}

// randElt returns a deterministic pseudo-random element for property tests.
func randElt(f *Field, rng *rand.Rand) Element {
	return f.RandFrom(rng)
}

// toInt64 returns the plain value of e as an int64 (small-field tests only).
func toInt64(f *Field, e Element) int64 {
	return f.ToBig(e).Int64()
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, f := range testFields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			cfg := &quick.Config{
				MaxCount: 200,
				Values: func(vs []reflect.Value, r *rand.Rand) {
					for i := range vs {
						vs[i] = reflect.ValueOf(randElt(f, r))
					}
				},
			}
			// Commutativity, associativity, distributivity.
			comm := func(a, b Element) bool {
				return f.Add(a, b) == f.Add(b, a) &&
					f.Mul(a, b) == f.Mul(b, a)
			}
			if err := quick.Check(comm, cfg); err != nil {
				t.Error(err)
			}
			assoc := func(a, b, c Element) bool {
				l := f.Add(f.Add(a, b), c)
				r := f.Add(a, f.Add(b, c))
				lm := f.Mul(f.Mul(a, b), c)
				rm := f.Mul(a, f.Mul(b, c))
				return l == r && lm == rm
			}
			if err := quick.Check(assoc, cfg); err != nil {
				t.Error(err)
			}
			distrib := func(a, b, c Element) bool {
				l := f.Mul(a, f.Add(b, c))
				r := f.Add(f.Mul(a, b), f.Mul(a, c))
				return l == r
			}
			if err := quick.Check(distrib, cfg); err != nil {
				t.Error(err)
			}
			inverses := func(a Element) bool {
				if !f.Sub(f.Add(a, f.Neg(a)), f.Zero()).IsZero() {
					return false
				}
				if a.IsZero() {
					return true
				}
				inv := f.MustInv(a)
				return f.Mul(a, inv) == f.One()
			}
			if err := quick.Check(inverses, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSubNegConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range testFields {
		for i := 0; i < 100; i++ {
			a, b := randElt(f, rng), randElt(f, rng)
			want := f.Add(a, f.Neg(b))
			got := f.Sub(a, b)
			if got != want {
				t.Fatalf("%s: Sub mismatch a=%v b=%v", f.Name(), a, b)
			}
			if !f.IsValid(got) {
				t.Fatalf("%s: Sub out of range", f.Name())
			}
		}
	}
}

func TestDivByZero(t *testing.T) {
	f := MustField(big.NewInt(97))
	if _, err := f.Inv(f.Zero()); err != ErrDivByZero {
		t.Errorf("Inv(0) err = %v, want ErrDivByZero", err)
	}
	if _, err := f.Div(f.One(), f.Zero()); err != ErrDivByZero {
		t.Errorf("Div(1,0) err = %v, want ErrDivByZero", err)
	}
	// A multiple of p reduces to the zero element and must still be caught.
	if _, err := f.Inv(f.FromBig(big.NewInt(97 * 3))); err != ErrDivByZero {
		t.Errorf("Inv(3p) err = %v, want ErrDivByZero", err)
	}
}

func TestExp(t *testing.T) {
	f := MustField(big.NewInt(97))
	if got := f.ExpInt(f.NewElement(2), 10); got != f.NewElement(1024%97) {
		t.Errorf("2^10 = %v", f.String(got))
	}
	// Fermat: a^(p-1) = 1 for a != 0.
	for a := int64(1); a < 97; a++ {
		if got := f.ExpInt(f.NewElement(a), 96); !f.IsOne(got) {
			t.Fatalf("%d^96 = %v, want 1", a, f.String(got))
		}
	}
	// Negative exponent.
	inv2 := f.MustInv(f.NewElement(2))
	if got := f.ExpInt(f.NewElement(2), -1); got != inv2 {
		t.Errorf("2^-1 = %v, want %v", f.String(got), f.String(inv2))
	}
}

func TestSqrtExhaustiveSmall(t *testing.T) {
	f := MustField(big.NewInt(97)) // 97 ≡ 1 (mod 4): exercises Tonelli–Shanks
	squares := map[int64]bool{}
	for a := int64(0); a < 97; a++ {
		squares[(a*a)%97] = true
	}
	for a := int64(0); a < 97; a++ {
		r, ok := f.Sqrt(f.NewElement(a))
		if ok != squares[a] {
			t.Fatalf("Sqrt(%d) ok=%v, want %v", a, ok, squares[a])
		}
		if ok && toInt64(f, f.Mul(r, r)) != a {
			t.Fatalf("Sqrt(%d) = %v, square is %v", a, r, f.Mul(r, r))
		}
	}
}

func TestSqrtP3Mod4(t *testing.T) {
	f := MustField(big.NewInt(1019)) // 1019 ≡ 3 (mod 4): direct path
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := randElt(f, rng)
		sq := f.Square(a)
		r, ok := f.Sqrt(sq)
		if !ok {
			t.Fatalf("Sqrt(%v²) not found", a)
		}
		if f.Square(r) != sq {
			t.Fatalf("Sqrt(%v²) = %v wrong", a, r)
		}
	}
}

func TestSqrtBN254(t *testing.T) {
	f := BN254()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		a := randElt(f, rng)
		sq := f.Square(a)
		r, ok := f.Sqrt(sq)
		if !ok || f.Square(r) != sq {
			t.Fatalf("BN254 Sqrt round-trip failed for %v", a)
		}
	}
}

func TestLegendre(t *testing.T) {
	f := MustField(big.NewInt(97))
	if f.Legendre(f.Zero()) != 0 {
		t.Error("Legendre(0) != 0")
	}
	nResidues := 0
	for a := int64(1); a < 97; a++ {
		switch f.Legendre(f.NewElement(a)) {
		case 1:
			nResidues++
		case -1:
		default:
			t.Fatalf("Legendre(%d) out of {-1,1}", a)
		}
	}
	if nResidues != 48 {
		t.Errorf("quadratic residues mod 97: got %d, want 48", nResidues)
	}
}

func TestSignedAndString(t *testing.T) {
	f := MustField(big.NewInt(97))
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0"}, {1, "1"}, {48, "48"}, {49, "-48"}, {96, "-1"},
	}
	for _, c := range cases {
		if got := f.String(f.NewElement(c.in)); got != c.want {
			t.Errorf("String(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFromString(t *testing.T) {
	f := MustField(big.NewInt(97))
	cases := map[string]int64{
		"0":    0,
		"96":   96,
		"97":   0,
		"-1":   96,
		"0x61": 0, // 0x61 = 97
		"100":  3,
	}
	for in, want := range cases {
		got, err := f.FromString(in)
		if err != nil {
			t.Fatalf("FromString(%q): %v", in, err)
		}
		if toInt64(f, got) != want {
			t.Errorf("FromString(%q) = %v, want %d", in, got, want)
		}
	}
	if _, err := f.FromString("zebra"); err == nil {
		t.Error("FromString(zebra) succeeded")
	}
}

func TestSumProd(t *testing.T) {
	f := MustField(big.NewInt(97))
	if !f.Sum().IsZero() {
		t.Error("empty Sum != 0")
	}
	if !f.IsOne(f.Prod()) {
		t.Error("empty Prod != 1")
	}
	got := f.Sum(f.NewElement(90), f.NewElement(10), f.NewElement(5))
	if toInt64(f, got) != 8 {
		t.Errorf("Sum = %v", got)
	}
	got = f.Prod(f.NewElement(10), f.NewElement(10))
	if toInt64(f, got) != 3 {
		t.Errorf("Prod = %v", got)
	}
}

func TestRandFromUniformSmall(t *testing.T) {
	f := MustField(big.NewInt(5))
	rng := rand.New(rand.NewSource(1))
	counts := map[int64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[toInt64(f, f.RandFrom(rng))]++
	}
	for v := int64(0); v < 5; v++ {
		c := counts[v]
		if c < n/5-n/50 || c > n/5+n/50 {
			t.Errorf("value %d count %d is far from uniform", v, c)
		}
	}
}

func TestRandCrypto(t *testing.T) {
	f := BN254()
	a, b := f.Rand(), f.Rand()
	if !f.IsValid(a) || !f.IsValid(b) {
		t.Fatal("Rand produced out-of-range element")
	}
	if a == b {
		t.Error("two crypto-random BN254 elements collided (astronomically unlikely)")
	}
}

func TestSameField(t *testing.T) {
	a := MustField(big.NewInt(97))
	b := MustField(big.NewInt(97))
	c := MustField(big.NewInt(101))
	if !a.SameField(b) || a.SameField(c) || a.SameField(nil) {
		t.Error("SameField misbehaves")
	}
}

func TestAccessors(t *testing.T) {
	f := MustField(big.NewInt(97))
	if f.Modulus().Int64() != 97 {
		t.Error("Modulus")
	}
	m := f.Modulus()
	m.SetInt64(5) // must not corrupt the field
	if f.Modulus().Int64() != 97 {
		t.Error("Modulus returned aliased storage")
	}
	if toInt64(f, f.MustElement("-1")) != 96 {
		t.Error("MustElement")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustElement(garbage) did not panic")
		}
	}()
	f.MustElement("zebra")
}

func TestMustFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustField(4) did not panic")
		}
	}()
	MustField(big.NewInt(4))
}

func TestMustFieldFromStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFieldFromString(garbage) did not panic")
		}
	}()
	MustFieldFromString("zebra")
}

func TestZeroOneDoubleSquare(t *testing.T) {
	f := MustField(big.NewInt(97))
	if !f.Zero().IsZero() || toInt64(f, f.One()) != 1 {
		t.Error("Zero/One")
	}
	if toInt64(f, f.Double(f.NewElement(50))) != 3 {
		t.Error("Double")
	}
	if toInt64(f, f.Square(f.NewElement(10))) != 3 {
		t.Error("Square")
	}
	if !f.IsOne(f.One()) || f.IsOne(f.Zero()) || !f.IsZero(f.Zero()) {
		t.Error("IsOne/IsZero")
	}
	if f.SmallModulus() != 97 {
		t.Error("SmallModulus")
	}
	defer func() {
		if recover() == nil {
			t.Error("SmallModulus on BN254 did not panic")
		}
	}()
	BN254().SmallModulus()
}
