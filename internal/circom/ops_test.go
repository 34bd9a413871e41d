package circom

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"qed2/internal/ff"
)

var f97t = ff.MustField(big.NewInt(97))

// TestApplyBinTable exercises every binary operator against hand-computed
// results, including the signed-representative semantics of the relational
// and integer operators.
func TestApplyBinTable(t *testing.T) {
	f := f97t
	cases := []struct {
		op   TokKind
		a, b int64 // signed inputs, reduced into the field
		want int64 // signed expected result
	}{
		{TokPlus, 90, 10, 3},
		{TokMinus, 3, 10, -7},
		{TokStar, 10, 10, 3},
		{TokPow, 2, 10, -43}, // 1024 mod 97 = 54 ≡ −43 signed
		{TokIntDiv, 17, 5, 3},
		{TokIntDiv, -17, 5, 16}, // unsigned: −17 ≡ 80, 80\5 = 16
		{TokPercent, 17, 5, 2},
		{TokPercent, -17, 5, 0}, // unsigned: 80 % 5 = 0
		{TokEq, 5, 5, 1},
		{TokEq, 5, 6, 0},
		{TokNeq, 5, 6, 1},
		{TokLt, -1, 0, 1}, // signed comparison: −1 < 0
		{TokLt, 96, 0, 1}, // 96 ≡ −1 mod 97
		{TokGt, 48, -48, 1},
		{TokLeq, 5, 5, 1},
		{TokGeq, 4, 5, 0},
		{TokAndAnd, 3, 4, 1},
		{TokAndAnd, 3, 0, 0},
		{TokOrOr, 0, 0, 0},
		{TokOrOr, 0, 9, 1},
		{TokShl, 3, 4, 48},
		{TokShr, 48, 4, 3},
		{TokBitAnd, 0b1100, 0b1010, 0b1000},
		{TokBitOr, 0b1100, 0b1010, 0b1110},
		{TokBitXor, 0b1100, 0b1010, 0b0110},
	}
	for _, c := range cases {
		got, err := applyBinElt(f, c.op, f.NewElement(c.a), f.NewElement(c.b))
		if err != nil {
			t.Errorf("%v(%d,%d): %v", c.op, c.a, c.b, err)
			continue
		}
		if f.Signed(got).Int64() != c.want {
			t.Errorf("%v(%d,%d) = %v, want %d", c.op, c.a, c.b, f.Signed(got), c.want)
		}
	}
}

// TestApplyBinComparisonsMatchSignedBig: the four relational operators
// agree with comparing the SignedBig readings of their operands, over BN254
// and F_97, on the values around the sign threshold and on random elements.
func TestApplyBinComparisonsMatchSignedBig(t *testing.T) {
	for _, f := range []*ff.Field{ff.BN254(), f97t} {
		p := f.Modulus()
		half := new(big.Int).Rsh(p, 1)
		vals := []*big.Int{
			big.NewInt(0), big.NewInt(1), half,
			new(big.Int).Add(half, big.NewInt(1)),
			new(big.Int).Sub(p, big.NewInt(1)),
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 32; i++ {
			vals = append(vals, new(big.Int).Rand(rng, p))
		}
		ops := []struct {
			op   TokKind
			want func(c int) bool
		}{
			{TokLt, func(c int) bool { return c < 0 }},
			{TokLeq, func(c int) bool { return c <= 0 }},
			{TokGt, func(c int) bool { return c > 0 }},
			{TokGeq, func(c int) bool { return c >= 0 }},
		}
		for _, a := range vals {
			for _, b := range vals {
				c := f.SignedBig(a).Cmp(f.SignedBig(b))
				for _, o := range ops {
					got, err := applyBin(f, o.op, a, b)
					if err != nil {
						t.Fatalf("%s: %v(%v, %v): %v", f.Name(), o.op, a, b, err)
					}
					if truthy(got) != o.want(c) {
						t.Errorf("%s: %v(%v, %v) = %v, want %v", f.Name(), o.op, a, b, got, o.want(c))
					}
				}
			}
		}
	}
}

// TestPowMatchesBigReference checks the witness interpreter's ** (ff.Exp on
// limbs) against the compile-time evaluator's (ff.ExpBig) over BN254, for
// exponents from 0 up to the width of the field, where Exp switches from
// square-and-multiply to its 4-bit window.
func TestPowMatchesBigReference(t *testing.T) {
	f := ff.BN254()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []uint{0, 1, 4, 5, 63, 64, 65, 66, 128, 200, 253} {
		e := new(big.Int).Lsh(big.NewInt(1), n)
		for _, exp := range []*big.Int{e, new(big.Int).Sub(e, big.NewInt(1)), new(big.Int).Rand(rng, e)} {
			for _, a := range []ff.Element{f.Zero(), f.One(), f.NewElement(-3), f.RandFrom(rng)} {
				got, err := applyBinElt(f, TokPow, a, f.FromBig(exp))
				if err != nil {
					t.Fatal(err)
				}
				want, err := applyBin(f, TokPow, f.ToBig(a), exp)
				if err != nil {
					t.Fatal(err)
				}
				if f.ToBig(got).Cmp(want) != 0 {
					t.Fatalf("%v ** %v = %v, want %v", f.ToBig(a), exp, f.ToBig(got), want)
				}
			}
		}
	}
}

func TestApplyBinErrors(t *testing.T) {
	f := f97t
	cases := []struct {
		op   TokKind
		a, b int64
		want string
	}{
		{TokSlash, 1, 0, "division by zero"},
		{TokIntDiv, 1, 0, "division by zero"},
		{TokPercent, 1, 0, "modulo by zero"},
		{TokSemi, 1, 1, "not a binary value operator"},
	}
	for _, c := range cases {
		_, err := applyBinElt(f, c.op, f.NewElement(c.a), f.NewElement(c.b))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v(%d,%d) err = %v, want contains %q", c.op, c.a, c.b, err, c.want)
		}
	}
}

func TestShiftAmountBound(t *testing.T) {
	// Over BN254, -1 reads as p−1, far beyond the shift-amount bound.
	f := ff.BN254()
	if _, err := applyBinElt(f, TokShl, f.One(), f.Neg(f.One())); err == nil ||
		!strings.Contains(err.Error(), "shift amount") {
		t.Errorf("huge shift err = %v", err)
	}
	// Over a small field the same -1 is a legal (if odd) shift by p−1 bits.
	if _, err := applyBinElt(f97t, TokShl, f97t.One(), f97t.Neg(f97t.One())); err != nil {
		t.Errorf("small-field shift err = %v", err)
	}
}

func TestApplyBinFieldDivision(t *testing.T) {
	f := f97t
	got, err := applyBinElt(f, TokSlash, f.NewElement(10), f.NewElement(4))
	if err != nil {
		t.Fatal(err)
	}
	// 10/4 in F_97: 4·x = 10 → x = 10·4⁻¹
	if f.ToBig(f.Mul(got, f.NewElement(4))).Int64() != 10 {
		t.Errorf("10/4 = %v", got)
	}
}

func TestApplyUn(t *testing.T) {
	f := f97t
	if got, _ := applyUnElt(f, TokMinus, f.NewElement(5)); f.Signed(got).Int64() != -5 {
		t.Errorf("-5 = %v", got)
	}
	if got, _ := applyUnElt(f, TokNot, f.NewElement(0)); !f.IsOne(got) {
		t.Errorf("!0 = %v", got)
	}
	if got, _ := applyUnElt(f, TokNot, f.NewElement(7)); !got.IsZero() {
		t.Errorf("!7 = %v", got)
	}
	if _, err := applyUnElt(f, TokPlus, f.NewElement(7)); err == nil {
		t.Error("applyUnElt(+) succeeded")
	}
	// Complement stays in-field and is an involution on small values
	// masked to the field width.
	x := f.NewElement(0b1010)
	nx, err := applyUnElt(f, TokBitNot, x)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsValid(nx) {
		t.Error("~x out of range")
	}
}

// TestOperatorsEndToEnd checks the operator semantics through the full
// compile + witness pipeline, where circom evaluates them at witness time.
func TestOperatorsEndToEnd(t *testing.T) {
	cases := []struct {
		expr string
		in   int64
		want int64
	}{
		{"in + 3", 4, 7},
		{"in * in - 1", 5, 24},
		{"in \\ 3", 11, 3},
		{"in % 4", 11, 3},
		{"in >> 2", 12, 3},
		{"in << 2", 3, 12},
		{"in & 6", 5, 4},
		{"in | 2", 5, 7},
		{"in ^ 1", 5, 4},
		{"in < 10 ? 1 : 2", 5, 1},
		{"in < 10 ? 1 : 2", 15, 2},
		{"in == 7", 7, 1},
		{"in != 7", 7, 0},
		{"(in > 2) && (in < 9)", 5, 1},
		{"(in > 2) || (in < 1)", 2, 0},
		{"!in", 0, 1},
		{"-in", 3, -3},
	}
	for _, c := range cases {
		src := `
template T() {
    signal input in;
    signal output out;
    out <-- ` + c.expr + `;
    out === out;
}
component main = T();
`
		prog, err := Compile(src, nil)
		if err != nil {
			t.Errorf("%q: compile: %v", c.expr, err)
			continue
		}
		w, err := prog.GenerateWitness(InputsFromInts(map[string]int64{"in": c.in}))
		if err != nil {
			t.Errorf("%q: witness: %v", c.expr, err)
			continue
		}
		f := prog.System.Field()
		got := f.Signed(w[prog.OutputNames["out"]]).Int64()
		if got != c.want {
			t.Errorf("%q with in=%d: got %d, want %d", c.expr, c.in, got, c.want)
		}
	}
}

// TestWExprStringForms covers the diagnostic renderers.
func TestWExprStringForms(t *testing.T) {
	w := &WBin{Op: TokPlus, L: &WSig{ID: 1}, R: &WConst{V: big.NewInt(2)}}
	if got := w.String(); got != "(x1 + 2)" {
		t.Errorf("WBin.String = %q", got)
	}
	c := &WCond{C: &WSig{ID: 1}, T: &WConst{V: big.NewInt(1)}, F: &WConst{V: big.NewInt(0)}}
	if got := c.String(); got != "(x1 ? 1 : 0)" {
		t.Errorf("WCond.String = %q", got)
	}
	u := &WUn{Op: TokMinus, X: &WSig{ID: 3}}
	if got := u.String(); got != "(-x3)" {
		t.Errorf("WUn.String = %q", got)
	}
}

// TestShortCircuitAvoidsSideError checks that && and || short-circuit at
// witness time (the unevaluated side may divide by zero).
func TestShortCircuitAvoidsSideError(t *testing.T) {
	prog, err := Compile(`
template T() {
    signal input in;
    signal output out;
    out <-- (in == 0) || (1/in > 0);
    out === out;
}
component main = T();
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := prog.GenerateWitness(InputsFromInts(map[string]int64{"in": 0}))
	if err != nil {
		t.Fatalf("short-circuit || still evaluated 1/0: %v", err)
	}
	if !prog.System.Field().IsOne(w[prog.OutputNames["out"]]) {
		t.Error("(0==0)||... != 1")
	}
}
