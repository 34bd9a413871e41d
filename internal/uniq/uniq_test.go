package uniq

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"qed2/internal/circom"
	"qed2/internal/ff"
	"qed2/internal/obs"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
)

var f97 = ff.MustField(big.NewInt(97))

func lcv(f *ff.Field, v int) *poly.LinComb { return poly.Var(f, v) }

func TestSeeds(t *testing.T) {
	sys := r1cs.NewSystem(f97)
	a := sys.AddSignal("a", r1cs.KindInput)
	o := sys.AddSignal("o", r1cs.KindOutput)
	p := New(sys)
	if !p.IsUnique(r1cs.OneID) || !p.IsUnique(a) {
		t.Error("seeds missing")
	}
	if p.IsUnique(o) {
		t.Error("unconstrained output claimed unique")
	}
	if src, _ := p.SourceOf(a); src.Rule != RuleSeed {
		t.Errorf("source of input = %+v", src)
	}
}

func TestSolveRuleChain(t *testing.T) {
	// a (input) → b = 3a+1 → c = b·b? No: c = 2b - 5 → chain of linears.
	sys := r1cs.NewSystem(f97)
	a := sys.AddSignal("a", r1cs.KindInput)
	b := sys.AddSignal("b", r1cs.KindInternal)
	c := sys.AddSignal("c", r1cs.KindOutput)
	// 1 * (3a + 1) = b
	sys.AddConstraint(poly.ConstInt(f97, 1), lcv(f97, a).Scale(f97.NewElement(3)).AddConst(f97.NewElement(1)), lcv(f97, b), "")
	// 1 * (2b - 5) = c
	sys.AddConstraint(poly.ConstInt(f97, 1), lcv(f97, b).Scale(f97.NewElement(2)).AddConst(f97.NewElement(-5)), lcv(f97, c), "")
	p := New(sys)
	if !p.IsUnique(b) || !p.IsUnique(c) {
		t.Fatalf("chain not resolved: unknown=%v", p.Unknown())
	}
	if !p.OutputsUnique() {
		t.Error("OutputsUnique false")
	}
	if src, _ := p.SourceOf(c); src.Rule != RuleSolve || src.Constraint != 1 {
		t.Errorf("source of c = %+v", src)
	}
	counts := p.CountByRule()
	if counts[RuleSeed] != 2 || counts[RuleSolve] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestProductOfKnowns(t *testing.T) {
	// out = a*b with a,b inputs: quad monomial a·b has both vars unique;
	// out appears linearly with constant coefficient → unique.
	sys := r1cs.NewSystem(f97)
	a := sys.AddSignal("a", r1cs.KindInput)
	b := sys.AddSignal("b", r1cs.KindInput)
	o := sys.AddSignal("o", r1cs.KindOutput)
	sys.AddConstraint(lcv(f97, a), lcv(f97, b), lcv(f97, o), "")
	p := New(sys)
	if !p.IsUnique(o) {
		t.Error("o = a*b not resolved")
	}
}

func TestVanishingCoefficientIsRejected(t *testing.T) {
	// x·a = c with a an input: coefficient of x vanishes at a=0, so the
	// rule must NOT fire (x free when a=0, c=0).
	sys := r1cs.NewSystem(f97)
	a := sys.AddSignal("a", r1cs.KindInput)
	c := sys.AddSignal("c", r1cs.KindInput)
	x := sys.AddSignal("x", r1cs.KindOutput)
	sys.AddConstraint(lcv(f97, x), lcv(f97, a), lcv(f97, c), "")
	p := New(sys)
	if p.IsUnique(x) {
		t.Error("unsound: x·a = c resolved x with vanishing coefficient")
	}
}

func TestSquareIsRejected(t *testing.T) {
	// x² = a: two roots; not unique.
	sys := r1cs.NewSystem(f97)
	a := sys.AddSignal("a", r1cs.KindInput)
	x := sys.AddSignal("x", r1cs.KindOutput)
	sys.AddConstraint(lcv(f97, x), lcv(f97, x), lcv(f97, a), "")
	p := New(sys)
	if p.IsUnique(x) {
		t.Error("unsound: x² = a resolved x")
	}
}

func TestTwoUnknownsBlockedThenUnlocked(t *testing.T) {
	// x + y = a: two unknowns, blocked. After external fact y unique,
	// x resolves incrementally.
	sys := r1cs.NewSystem(f97)
	a := sys.AddSignal("a", r1cs.KindInput)
	x := sys.AddSignal("x", r1cs.KindOutput)
	y := sys.AddSignal("y", r1cs.KindInternal)
	sys.AddConstraint(poly.ConstInt(f97, 1), lcv(f97, x).Add(lcv(f97, y)), lcv(f97, a), "")
	p := New(sys)
	if p.IsUnique(x) || p.IsUnique(y) {
		t.Fatal("premature uniqueness")
	}
	if !p.AddUniqueExternal(y) {
		t.Fatal("AddUniqueExternal returned false")
	}
	if p.AddUniqueExternal(y) {
		t.Error("duplicate AddUniqueExternal returned true")
	}
	if !p.IsUnique(x) {
		t.Error("x not resolved after y became unique")
	}
	if src, _ := p.SourceOf(y); src.Rule != RuleExternal {
		t.Errorf("source of y = %+v", src)
	}
}

func TestUnknownList(t *testing.T) {
	sys := r1cs.NewSystem(f97)
	sys.AddSignal("a", r1cs.KindInput)
	x := sys.AddSignal("x", r1cs.KindOutput)
	p := New(sys)
	unk := p.Unknown()
	if len(unk) != 1 || unk[0] != x {
		t.Errorf("Unknown = %v", unk)
	}
	if got := p.NumUnique(); got != 2 {
		t.Errorf("NumUnique = %d, want 2 (one and a)", got)
	}
}

// --- soundness property test -----------------------------------------------------

// TestPropagationSoundnessExhaustive builds random small systems over a
// tiny field, runs propagation, and verifies by exhaustive enumeration
// that every signal claimed unique really is uniquely determined by the
// inputs in every satisfiable input class.
func TestPropagationSoundnessExhaustive(t *testing.T) {
	f5 := ff.MustField(big.NewInt(5))
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 150; iter++ {
		sys := r1cs.NewSystem(f5)
		nIn := 1 + rng.Intn(2)
		nOther := 2 + rng.Intn(2)
		for i := 0; i < nIn; i++ {
			sys.AddSignal("", r1cs.KindInput)
		}
		for i := 0; i < nOther; i++ {
			sys.AddSignal("", r1cs.KindInternal)
		}
		n := sys.NumSignals()
		randLC := func() *poly.LinComb {
			out := poly.ConstInt(f5, int64(rng.Intn(5)))
			for v := 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					out = out.AddTerm(v, f5.NewElement(int64(rng.Intn(5))))
				}
			}
			return out
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			sys.AddConstraint(randLC(), randLC(), randLC(), "")
		}
		p := New(sys)

		// Enumerate all witnesses; group by input values; check claimed
		// signals take a single value within each group.
		type key string
		groups := map[key]map[int]map[string]bool{} // inputs -> sig -> values
		total := 1
		for i := 1; i < n; i++ {
			total *= 5
		}
		w := sys.NewWitness()
		for enc := 0; enc < total; enc++ {
			v := enc
			for i := 1; i < n; i++ {
				w[i] = f5.NewElement(int64(v % 5))
				v /= 5
			}
			if sys.CheckWitness(w) != nil {
				continue
			}
			var kb []byte
			for _, in := range sys.Inputs() {
				kb = append(kb, byte('0'+f5.ToBig(w[in]).Int64()))
			}
			g := groups[key(kb)]
			if g == nil {
				g = map[int]map[string]bool{}
				groups[key(kb)] = g
			}
			for i := 1; i < n; i++ {
				if g[i] == nil {
					g[i] = map[string]bool{}
				}
				g[i][f5.String(w[i])] = true
			}
		}
		for _, g := range groups {
			for sig, vals := range g {
				if p.IsUnique(sig) && len(vals) > 1 {
					t.Fatalf("iter %d: propagation UNSOUND: signal %d claimed unique but takes %d values\n%s",
						iter, sig, len(vals), sys.MarshalText())
				}
			}
		}
	}
}

// A circomlib-style integration check: IsZero's constraints resolve `out`
// once `inv` is known, but `inv` itself stays unknown (it is genuinely not
// uniquely determined... it IS determined? inv is only constrained by
// out = -in*inv + 1 and in*out = 0; for in=0, inv is free → not unique).
func TestIsZeroPartialResolution(t *testing.T) {
	prog, err := circom.Compile(`
template IsZero() {
    signal input in;
    signal output out;
    signal inv;
    inv <-- in != 0 ? 1/in : 0;
    out <== -in*inv + 1;
    in*out === 0;
}
component main = IsZero();
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog.System)
	invSig, _ := prog.System.SignalByName("inv")
	outSig, _ := prog.System.SignalByName("out")
	if p.IsUnique(invSig.ID) {
		t.Error("inv claimed unique (it is free when in=0)")
	}
	// out is NOT resolvable by propagation alone (its constraint couples it
	// with the unknown inv through in·inv): the SMT stage must finish it.
	if p.IsUnique(outSig.ID) {
		t.Log("note: out resolved by propagation alone (stronger than expected)")
	}
}

// --- binary-decomposition rule ---------------------------------------------------

// buildBits builds the Num2Bits pattern: n boolean signals plus the sum
// constraint Σ 2^i·b_i = in.
func buildBits(t *testing.T, n int, coeffs []int64) (*r1cs.System, []int) {
	t.Helper()
	sys := r1cs.NewSystem(f97)
	in := sys.AddSignal("in", r1cs.KindInput)
	bits := make([]int, n)
	for i := range bits {
		bits[i] = sys.AddSignal("", r1cs.KindOutput)
	}
	for _, b := range bits {
		// b * (b-1) = 0
		sys.AddConstraint(lcv(f97, b), lcv(f97, b).AddConst(f97.NewElement(-1)), poly.NewLinComb(f97), "bool")
	}
	sum := poly.NewLinComb(f97).AddTerm(in, f97.NewElement(-1))
	for i, b := range bits {
		sum = sum.AddTerm(b, f97.NewElement(coeffs[i]))
	}
	sys.AddConstraint(poly.ConstInt(f97, 1), sum, poly.NewLinComb(f97), "sum")
	return sys, bits
}

func TestRuleBitsPowersOfTwo(t *testing.T) {
	sys, bits := buildBits(t, 4, []int64{1, 2, 4, 8})
	p := New(sys)
	for _, b := range bits {
		if !p.IsUnique(b) {
			t.Fatalf("bit %d not resolved by RuleBits", b)
		}
		if src, _ := p.SourceOf(b); src.Rule != RuleBits {
			t.Errorf("bit %d source = %v", b, src.Rule)
		}
	}
}

func TestRuleBitsRejectsAmbiguousCoefficients(t *testing.T) {
	// {1,2,3}: 3 = 1+2 → two bit patterns give the same sum; must NOT fire.
	sys, bits := buildBits(t, 3, []int64{1, 2, 3})
	p := New(sys)
	for _, b := range bits {
		if p.IsUnique(b) {
			t.Fatalf("UNSOUND: ambiguous coefficients resolved bit %d", b)
		}
	}
	// {1,1}: equal coefficients also ambiguous.
	sys2, bits2 := buildBits(t, 2, []int64{1, 1})
	p2 := New(sys2)
	for _, b := range bits2 {
		if p2.IsUnique(b) {
			t.Fatalf("UNSOUND: equal coefficients resolved bit %d", b)
		}
	}
}

func TestRuleBitsRejectsFieldOverflow(t *testing.T) {
	// Over F_97: coefficients 1,2,4,...,64 sum to 127 > 97: two bit vectors
	// can collide modulo 97 (e.g. 97 = 64+32+1 ≡ 0). Must NOT fire.
	sys, bits := buildBits(t, 7, []int64{1, 2, 4, 8, 16, 32, 64})
	p := New(sys)
	for _, b := range bits {
		if p.IsUnique(b) {
			t.Fatalf("UNSOUND: overflowing decomposition resolved bit %d", b)
		}
	}
	// 1,2,4,8,16,32 sums to 63 < 97: fine.
	sys2, bits2 := buildBits(t, 6, []int64{1, 2, 4, 8, 16, 32})
	p2 := New(sys2)
	for _, b := range bits2 {
		if !p2.IsUnique(b) {
			t.Fatalf("bit %d not resolved", b)
		}
	}
}

func TestRuleBitsNegativeCoefficients(t *testing.T) {
	// Signed magnitudes {1,-2,4} are super-increasing in absolute value.
	sys, bits := buildBits(t, 3, []int64{1, -2, 4})
	p := New(sys)
	for _, b := range bits {
		if !p.IsUnique(b) {
			t.Fatalf("bit %d not resolved with negative coefficient", b)
		}
	}
}

func TestRuleBitsRequiresBooleanFacts(t *testing.T) {
	// Same sum constraint but bits lack boolean constraints: must not fire.
	sys := r1cs.NewSystem(f97)
	in := sys.AddSignal("in", r1cs.KindInput)
	b0 := sys.AddSignal("b0", r1cs.KindOutput)
	b1 := sys.AddSignal("b1", r1cs.KindOutput)
	sum := poly.NewLinComb(f97).
		AddTerm(in, f97.NewElement(-1)).
		AddTerm(b0, f97.NewElement(1)).
		AddTerm(b1, f97.NewElement(2))
	sys.AddConstraint(poly.ConstInt(f97, 1), sum, poly.NewLinComb(f97), "sum")
	p := New(sys)
	if p.IsUnique(b0) || p.IsUnique(b1) {
		t.Fatal("UNSOUND: non-boolean signals resolved by RuleBits")
	}
}

func TestNum2BitsResolvedByPropagationAlone(t *testing.T) {
	prog, err := circom.Compile(`
template Num2Bits(n) {
    signal input in;
    signal output out[n];
    var lc1 = 0;
    var e2 = 1;
    for (var i = 0; i < n; i++) {
        out[i] <-- (in >> i) & 1;
        out[i] * (out[i] - 1) === 0;
        lc1 += out[i] * e2;
        e2 = e2 + e2;
    }
    lc1 === in;
}
component main = Num2Bits(32);
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := New(prog.System)
	if !p.OutputsUnique() {
		t.Fatal("Num2Bits(32) not fully resolved by propagation")
	}
	if p.CountByRule()[RuleBits] != 32 {
		t.Errorf("RuleBits count = %d, want 32", p.CountByRule()[RuleBits])
	}
}

func TestSnapshotImmutable(t *testing.T) {
	// b = 3a+1 resolves by R-Solve; c is pinned only after the external fact
	// about x arrives. A snapshot taken in between must not see later facts.
	sys := r1cs.NewSystem(f97)
	a := sys.AddSignal("a", r1cs.KindInput)
	b := sys.AddSignal("b", r1cs.KindInternal)
	x := sys.AddSignal("x", r1cs.KindInternal)
	c := sys.AddSignal("c", r1cs.KindOutput)
	sys.AddConstraint(poly.ConstInt(f97, 1), lcv(f97, a).Scale(f97.NewElement(3)).AddConst(f97.NewElement(1)), lcv(f97, b), "")
	// x·x = b: not solvable syntactically (two roots).
	sys.AddConstraint(lcv(f97, x), lcv(f97, x), lcv(f97, b), "")
	// 1·(x + 2) = c: pins c once x is unique.
	sys.AddConstraint(poly.ConstInt(f97, 1), lcv(f97, x).AddConst(f97.NewElement(2)), lcv(f97, c), "")
	p := New(sys)
	snap := p.Snapshot()
	if !snap.IsUnique(a) || !snap.IsUnique(b) || snap.IsUnique(x) || snap.IsUnique(c) {
		t.Fatalf("snapshot state wrong: a=%v b=%v x=%v c=%v",
			snap.IsUnique(a), snap.IsUnique(b), snap.IsUnique(x), snap.IsUnique(c))
	}
	if snap.NumUnique() != p.NumUnique() {
		t.Errorf("NumUnique: snap %d, prop %d", snap.NumUnique(), p.NumUnique())
	}
	before := snap.NumUnique()
	p.AddUniqueExternal(x)
	if !p.IsUnique(x) || !p.IsUnique(c) {
		t.Fatal("external fact did not re-propagate")
	}
	// The snapshot must be frozen at its capture point.
	if snap.IsUnique(x) || snap.IsUnique(c) || snap.NumUnique() != before {
		t.Error("snapshot mutated by later propagation")
	}
	// Out-of-range queries are false, not panics.
	if snap.IsUnique(-1) || snap.IsUnique(sys.NumSignals()) {
		t.Error("out-of-range signal claimed unique")
	}
}

// TestRuleAblationsStayExact: with R-Solve off, R-Bits still resolves a
// constraint whose single unknown is boolean; with R-Bits off it does not.
func TestRuleAblationsStayExact(t *testing.T) {
	sys, bits := buildBits(t, 1, []int64{1})
	if p := NewWithOptions(sys, Options{DisableSolve: true}); !p.IsUnique(bits[0]) {
		t.Error("DisableSolve: single boolean unknown not resolved by R-Bits")
	} else if src, _ := p.SourceOf(bits[0]); src.Rule != RuleBits {
		t.Errorf("DisableSolve: source = %+v, want bits", src)
	}
	if p := NewWithOptions(sys, Options{DisableSolve: true, DisableBits: true}); p.IsUnique(bits[0]) {
		t.Error("both rules off: bit resolved")
	}
}

// TestRulesReadQuadraticTerms: a monomial over known signals leaves both
// rules free to fire, and a monomial that touches an unknown blocks both.
func TestRulesReadQuadraticTerms(t *testing.T) {
	const a, b, x, y = 1, 2, 3, 4
	known := func(v int) bool { return v <= b }
	boolean := func(v int) bool { return v >= x }
	// a·b + x + 2y − 1 = 0: the unknowns x, y are boolean, coefficients 1, 2.
	q := poly.MulLin(lcv(f97, a), lcv(f97, b)).Add(poly.QuadFromLin(
		lcv(f97, x).AddTerm(y, f97.NewElement(2)).AddConst(f97.NewElement(-1))))
	if got := bits(q, known, boolean); len(got) != 2 || got[0] != x || got[1] != y {
		t.Errorf("bits = %v, want [%d %d]", got, x, y)
	}
	if _, ok := solve(q, known); ok {
		t.Error("solve fired with two unknowns")
	}
	// a·x + y = 0: x·a has a coefficient that vanishes at a = 0.
	q = poly.MulLin(lcv(f97, a), lcv(f97, x)).Add(poly.QuadFromLin(lcv(f97, y)))
	if got := bits(q, known, boolean); got != nil {
		t.Errorf("bits = %v through a monomial over an unknown", got)
	}
	if _, ok := solve(q, func(v int) bool { return v != y }); !ok {
		t.Error("solve did not resolve y when x is known")
	}
	if _, ok := solve(q, func(v int) bool { return v != x }); ok {
		t.Error("solve resolved x through a·x")
	}
}

// --- R-OneHot -------------------------------------------------------------------

// forEachSolution calls fn on every satisfying witness of a small system,
// by backtracking over the signals in ID order: a constraint is checked as
// soon as its highest signal is assigned. It shares nothing with the rules.
func forEachSolution(sys *r1cs.System, fn func(w r1cs.Witness)) {
	f := sys.Field()
	p := int64(f.SmallModulus())
	n := sys.NumSignals()
	checkAt := make([][]*poly.Quad, n)
	for ci := 0; ci < sys.NumConstraints(); ci++ {
		q := sys.Constraint(ci).Quad()
		last := 1
		for _, v := range q.Vars() {
			last = max(last, v)
		}
		checkAt[last] = append(checkAt[last], q)
	}
	w := sys.NewWitness()
	var assign func(id int)
	assign = func(id int) {
		if id == n {
			fn(w)
			return
		}
		for v := int64(0); v < p; v++ {
			w[id] = f.NewElement(v)
			ok := true
			for _, q := range checkAt[id] {
				if !q.Eval(func(x int) ff.Element { return w[x] }).IsZero() {
					ok = false
					break
				}
			}
			if ok {
				assign(id + 1)
			}
		}
	}
	assign(1)
}

// nonUniqueSignal returns a signal of ids on which two solutions that agree
// on the inputs differ, or −1 when every one of ids is a function of the
// inputs over the solution set.
func nonUniqueSignal(sys *r1cs.System, ids []int) int {
	f := sys.Field()
	seen := map[string][]ff.Element{}
	bad := -1
	forEachSolution(sys, func(w r1cs.Witness) {
		key := ""
		for _, in := range sys.Inputs() {
			key += f.String(w[in]) + ","
		}
		first, ok := seen[key]
		if !ok {
			vals := make([]ff.Element, len(ids))
			for i, id := range ids {
				vals[i] = w[id]
			}
			seen[key] = vals
			return
		}
		for i, id := range ids {
			if first[i] != w[id] && bad < 0 {
				bad = id
			}
		}
	})
	return bad
}

// randomOneHot builds a one-hot system over f: m guarded summands sᵢ, each
// with a guard sᵢ·(x − kᵢ) = 0 in one of three constraint shapes, and one
// sum Σ cᵢ·sᵢ + c₀ (+ d·y) = 0, possibly with the known monomial y·x. kᵢ
// are drawn from the field, so they collide often over F_5. The selector
// is the input x, or an internal z = x + 1 whose defining constraint comes
// last, so the rule must wait for it; with small set, that constraint is
// sometimes left out, so z stays free. A guard is sometimes left out.
// small also adds a second input y to the sum.
func randomOneHot(f *ff.Field, rng *rand.Rand, maxSum int, small bool) *r1cs.System {
	p := int64(f.SmallModulus())
	el := func(v int64) ff.Element { return f.NewElement(v) }
	nonzero := func() ff.Element { return el(1 + rng.Int63n(p-1)) }
	sys := r1cs.NewSystem(f)
	x := sys.AddSignal("x", r1cs.KindInput)
	y, withY := -1, small
	if withY {
		y = sys.AddSignal("y", r1cs.KindInput)
	}
	sel, viaZ := x, rng.Intn(3) == 0
	if viaZ {
		sel = sys.AddSignal("z", r1cs.KindInternal)
	}
	m := 1 + rng.Intn(maxSum)
	ss := make([]int, m)
	for i := range ss {
		ss[i] = sys.AddSignal(fmt.Sprintf("s%d", i), r1cs.KindOutput)
	}
	zero := poly.NewLinComb(f)
	for _, s := range ss {
		if rng.Intn(8) == 0 {
			continue
		}
		k := el(rng.Int63n(p))
		selMinusK := lcv(f, sel).AddConst(f.Neg(k))
		switch rng.Intn(3) {
		case 0:
			sys.AddConstraint(lcv(f, s), selMinusK, zero, "guard")
		case 1:
			sys.AddConstraint(selMinusK.Scale(nonzero()), lcv(f, s), zero, "guard")
		default:
			sys.AddConstraint(lcv(f, s), lcv(f, sel), lcv(f, s).Scale(k), "guard")
		}
	}
	sum := poly.Const(f, el(rng.Int63n(p)))
	for _, s := range ss {
		sum = sum.AddTerm(s, nonzero())
	}
	switch {
	case withY && rng.Intn(2) == 0:
		sys.AddConstraint(lcv(f, y), lcv(f, x), sum, "sum")
	case withY:
		sys.AddConstraint(poly.ConstInt(f, 1), sum.AddTerm(y, nonzero()), zero, "sum")
	default:
		sys.AddConstraint(poly.ConstInt(f, 1), sum, zero, "sum")
	}
	if viaZ && (!small || rng.Intn(4) != 0) {
		sys.AddConstraint(poly.ConstInt(f, 1), lcv(f, x).AddConst(el(1)), lcv(f, sel), "z")
	}
	return sys
}

// TestOneHotSoundnessExhaustive: on random one-hot systems over F_5, F_7
// and F_97, whenever R-OneHot fires, every signal the propagator calls
// unique takes one value across all solutions that agree on the inputs.
func TestOneHotSoundnessExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, c := range []struct {
		p      int64
		iters  int
		maxSum int
		small  bool
	}{{5, 400, 3, true}, {7, 300, 3, true}, {97, 60, 2, false}} {
		f := ff.MustField(big.NewInt(c.p))
		fired, held := 0, 0
		for iter := 0; iter < c.iters; iter++ {
			sys := randomOneHot(f, rng, c.maxSum, c.small)
			p := New(sys)
			var unique []int
			onehot := false
			for id := 1; id < sys.NumSignals(); id++ {
				if src, ok := p.SourceOf(id); ok {
					unique = append(unique, id)
					onehot = onehot || src.Rule == RuleOneHot
				}
			}
			if !onehot {
				if len(sys.Outputs()) > 1 && nonUniqueSignal(sys, sys.Outputs()) >= 0 {
					held++
				}
				continue
			}
			fired++
			if bad := nonUniqueSignal(sys, unique); bad >= 0 {
				t.Fatalf("F_%d iter %d: R-OneHot UNSOUND: %s claimed unique but varies\n%s",
					c.p, iter, sys.Name(bad), sys.MarshalText())
			}
		}
		// Both outcomes must be well represented, or the generator tests
		// nothing: firings, and non-firings on genuinely free summands.
		t.Logf("F_%d: fired on %d of %d systems, held back on %d non-unique ones", c.p, fired, c.iters, held)
		if fired < c.iters/4 || held < c.iters/20 {
			t.Errorf("F_%d: rule fired on %d of %d systems, held back on %d non-unique ones", c.p, fired, c.iters, held)
		}
	}
}

// oneHotSystem builds Σ sᵢ − 1 = 0 with guards sᵢ·(sel − ks[i]) = 0 over
// F_97, the selector sel an input unless selIn is false.
func oneHotSystem(ks []int64, selIn bool) (*r1cs.System, int, []int) {
	sys := r1cs.NewSystem(f97)
	kind := r1cs.KindInput
	if !selIn {
		kind = r1cs.KindInternal
	}
	sel := sys.AddSignal("sel", kind)
	ss := make([]int, len(ks))
	sum := poly.ConstInt(f97, -1)
	for i := range ks {
		ss[i] = sys.AddSignal(fmt.Sprintf("s%d", i), r1cs.KindOutput)
		sum = sum.AddTerm(ss[i], f97.One())
	}
	for i, k := range ks {
		sys.AddConstraint(lcv(f97, ss[i]), lcv(f97, sel).AddConst(f97.NewElement(-k)), poly.NewLinComb(f97), "guard")
	}
	sys.AddConstraint(poly.ConstInt(f97, 1), sum, poly.NewLinComb(f97), "sum")
	return sys, sel, ss
}

// twoHotSystem builds a·sel = 0, b·(sel − 1) = 0 and a + b − 2 = 0 over
// F_97, the selector sel an input: a non-unit sum, whose summands take the
// values {0, 2}, and a guard with no linear term.
func twoHotSystem() (*r1cs.System, []int) {
	sys := r1cs.NewSystem(f97)
	sel := sys.AddSignal("sel", r1cs.KindInput)
	a := sys.AddSignal("a", r1cs.KindOutput)
	b := sys.AddSignal("b", r1cs.KindOutput)
	zero := poly.NewLinComb(f97)
	sys.AddConstraint(lcv(f97, a), lcv(f97, sel), zero, "guard")
	sys.AddConstraint(lcv(f97, b), lcv(f97, sel).AddConst(f97.NewElement(-1)), zero, "guard")
	sys.AddConstraint(poly.ConstInt(f97, 1), lcv(f97, a).AddTerm(b, f97.One()).AddConst(f97.NewElement(-2)), zero, "sum")
	return sys, []int{a, b}
}

// TestOneHotFires: distinct guards against a known selector resolve every
// summand, with the sum as provenance and the onehot counters, also when
// the selector becomes known only after the sum was checked (its defining
// constraint comes last, and the sum does not mention it) and when the sum
// is not 1.
func TestOneHotFires(t *testing.T) {
	type onehotCase struct {
		name string
		sys  *r1cs.System
		ss   []int
	}
	var cases []onehotCase
	for _, selIn := range []bool{true, false} {
		sys, sel, ss := oneHotSystem([]int64{0, 1, 2, 3}, selIn)
		if !selIn {
			in := sys.AddSignal("in", r1cs.KindInput)
			sys.AddConstraint(poly.ConstInt(f97, 1), lcv(f97, in), lcv(f97, sel), "sel")
		}
		cases = append(cases, onehotCase{fmt.Sprintf("selector input %v", selIn), sys, ss})
	}
	twoHot, ss := twoHotSystem()
	cases = append(cases, onehotCase{"TwoHot", twoHot, ss})
	for _, c := range cases {
		m := obs.NewMetrics()
		p := NewWithOptions(c.sys, Options{Metrics: m})
		for _, s := range c.ss {
			if src, ok := p.SourceOf(s); !ok || src.Rule != RuleOneHot || src.Constraint != len(c.ss) {
				t.Errorf("%s: %s: source = %+v, %v; want onehot on constraint #%d", c.name, c.sys.Name(s), src, ok, len(c.ss))
			}
		}
		counters := m.Counters()
		if counters["uniq.rule.onehot.fired"] != 1 || counters["uniq.rule.onehot.resolved"] != int64(len(c.ss)) {
			t.Errorf("%s: onehot counters = fired %d, resolved %d", c.name, counters["uniq.rule.onehot.fired"], counters["uniq.rule.onehot.resolved"])
		}
	}
}

// TestOneHotHoldsBack: the systems the rule must leave alone, each of which
// has two solutions that agree on the inputs and differ on a summand.
func TestOneHotHoldsBack(t *testing.T) {
	repeated, _, _ := oneHotSystem([]int64{1, 2, 2}, true)
	unknownSel, _, _ := oneHotSystem([]int64{1, 2}, false)
	// The selector t is a summand: sᵢ·(t − i) = 0 for i = 1, 2 and
	// s₁ + s₂ + t − 3 = 0, solved by (2, 0, 1), (0, 1, 2) and (0, 0, 3).
	selSummand := r1cs.NewSystem(f97)
	selSummand.AddSignal("in", r1cs.KindInput)
	tt := selSummand.AddSignal("t", r1cs.KindInternal)
	sum := lcv(f97, tt).AddConst(f97.NewElement(-3))
	for i := int64(1); i <= 2; i++ {
		s := selSummand.AddSignal(fmt.Sprintf("s%d", i), r1cs.KindOutput)
		selSummand.AddConstraint(lcv(f97, s), lcv(f97, tt).AddConst(f97.NewElement(-i)), poly.NewLinComb(f97), "guard")
		sum = sum.AddTerm(s, f97.One())
	}
	selSummand.AddConstraint(poly.ConstInt(f97, 1), sum, poly.NewLinComb(f97), "sum")
	// Bare circomlib Decoder: Σ out[i] − success = 0 with success free of
	// any guard, only boolean; all-zero outputs with success = 0 solve it.
	// MultiplexerBuggy drops success === 1, which leaves the same sum.
	f7 := &circom.CompileOptions{Field: ff.MustField(big.NewInt(7))}
	decoder, err := circom.Compile(muxTemplates+"component main = Decoder(3);\n", f7)
	if err != nil {
		t.Fatal(err)
	}
	muxBuggy, err := circom.Compile(muxTemplates+"component main = MultiplexerBuggy(1, 2);\n", f7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *r1cs.System
		opts Options
	}{
		{"repeated k", repeated, Options{}},
		{"unknown selector", unknownSel, Options{}},
		{"selector among the summands", selSummand, Options{}},
		{"bare Decoder(3)", decoder.System, Options{}},
		{"MultiplexerBuggy(1, 2)", muxBuggy.System, Options{}},
		{"DisableSolve", oneHotSys(t), Options{DisableSolve: true}},
		{"DisableBits", oneHotSys(t), Options{DisableBits: true}},
	} {
		p := NewWithOptions(c.sys, c.opts)
		if n := p.CountByRule()[RuleOneHot]; n != 0 {
			t.Errorf("%s: R-OneHot resolved %d signals", c.name, n)
		}
		if c.opts == (Options{}) && nonUniqueSignal(c.sys, c.sys.Outputs()) < 0 {
			t.Errorf("%s: every output is unique; the case tests nothing", c.name)
		}
	}
}

// muxTemplates are circomlib's Decoder and EscalarProduct and the suite's
// MultiplexerBuggy, which lacks Multiplexer's dec.success === 1.
const muxTemplates = `
template Decoder(w) {
    signal input inp;
    signal output out[w];
    signal output success;
    var lc = 0;
    for (var i = 0; i < w; i++) {
        out[i] <-- (inp == i) ? 1 : 0;
        out[i] * (inp - i) === 0;
        lc = lc + out[i];
    }
    lc ==> success;
    success * (success - 1) === 0;
}

template EscalarProduct(w) {
    signal input in1[w];
    signal input in2[w];
    signal output out;
    signal aux[w];
    var lc = 0;
    for (var i = 0; i < w; i++) {
        aux[i] <== in1[i] * in2[i];
        lc = lc + aux[i];
    }
    out <== lc;
}

template MultiplexerBuggy(wIn, nIn) {
    signal input inp[nIn][wIn];
    signal input sel;
    signal output out[wIn];
    component dec = Decoder(nIn);
    component ep[wIn];
    for (var k = 0; k < wIn; k++) {
        ep[k] = EscalarProduct(nIn);
    }
    sel ==> dec.inp;
    for (var j = 0; j < wIn; j++) {
        for (var k = 0; k < nIn; k++) {
            inp[k][j] ==> ep[j].in1[k];
            dec.out[k] ==> ep[j].in2[k];
        }
        ep[j].out ==> out[j];
    }
}
`

func oneHotSys(t *testing.T) *r1cs.System {
	sys, _, _ := oneHotSystem([]int64{0, 1, 2}, true)
	if New(sys).CountByRule()[RuleOneHot] != 3 {
		t.Fatal("the ablation system does not fire with every rule on")
	}
	return sys
}
