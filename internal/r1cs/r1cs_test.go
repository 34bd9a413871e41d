package r1cs

import (
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

var f97 = ff.MustField(big.NewInt(97))

// buildMulSystem builds: out = a*b  (one multiplication constraint).
func buildMulSystem(t testing.TB) (*System, int, int, int) {
	t.Helper()
	s := NewSystem(f97)
	a := s.AddSignal("a", KindInput)
	b := s.AddSignal("b", KindInput)
	out := s.AddSignal("out", KindOutput)
	s.AddConstraint(poly.Var(f97, a), poly.Var(f97, b), poly.Var(f97, out), "mul")
	return s, a, b, out
}

func TestSystemBasics(t *testing.T) {
	s, a, b, out := buildMulSystem(t)
	if s.NumSignals() != 4 || s.NumConstraints() != 1 {
		t.Fatalf("counts: %d signals, %d constraints", s.NumSignals(), s.NumConstraints())
	}
	if got := s.Signal(0); got.Kind != KindOne || got.Name != "one" {
		t.Errorf("signal 0 = %+v", got)
	}
	if !reflect.DeepEqual(s.Inputs(), []int{a, b}) {
		t.Errorf("Inputs = %v", s.Inputs())
	}
	if !reflect.DeepEqual(s.Outputs(), []int{out}) {
		t.Errorf("Outputs = %v", s.Outputs())
	}
	if sig, ok := s.SignalByName("b"); !ok || sig.ID != b {
		t.Errorf("SignalByName(b) = %+v, %v", sig, ok)
	}
	if _, ok := s.SignalByName("zebra"); ok {
		t.Error("found nonexistent signal")
	}
	st := s.Stats()
	if st.Inputs != 2 || st.Outputs != 1 || st.Nonlinear != 1 || st.Linear != 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestDuplicateSignalPanics(t *testing.T) {
	s := NewSystem(f97)
	s.AddSignal("x", KindInput)
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	s.AddSignal("x", KindInternal)
}

func TestAddConstraintValidation(t *testing.T) {
	s := NewSystem(f97)
	s.AddSignal("x", KindInput)
	defer func() {
		if recover() == nil {
			t.Error("unknown signal reference did not panic")
		}
	}()
	s.AddConstraint(poly.Var(f97, 5), poly.ConstInt(f97, 1), poly.ConstInt(f97, 0), "")
}

func TestCheckWitness(t *testing.T) {
	s, a, b, out := buildMulSystem(t)
	w := s.NewWitness()
	w[a] = f97.NewElement(6)
	w[b] = f97.NewElement(7)
	w[out] = f97.NewElement(42)
	if err := s.CheckWitness(w); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
	w[out] = f97.NewElement(41)
	err := s.CheckWitness(w)
	if err == nil {
		t.Fatal("invalid witness accepted")
	}
	var ue *UnsatisfiedError
	if !errorsAs(err, &ue) {
		t.Fatalf("error type = %T", err)
	}
	if !strings.Contains(err.Error(), "mul") || !strings.Contains(err.Error(), "out") {
		t.Errorf("error lacks provenance: %v", err)
	}
	// wrong length
	if err := s.CheckWitness(w[:2]); err == nil {
		t.Error("short witness accepted")
	}
	// broken one-slot
	w[out] = f97.NewElement(42)
	w[0] = f97.NewElement(2)
	if err := s.CheckWitness(w); err == nil {
		t.Error("witness with one!=1 accepted")
	}
}

func errorsAs(err error, target **UnsatisfiedError) bool {
	ue, ok := err.(*UnsatisfiedError)
	if ok {
		*target = ue
	}
	return ok
}

func TestConstraintQuadAndLinear(t *testing.T) {
	s := NewSystem(f97)
	x := s.AddSignal("x", KindInput)
	y := s.AddSignal("y", KindOutput)
	// Linear constraint via constant A: 1 * (x + 2) = y
	s.AddConstraint(poly.ConstInt(f97, 1), poly.Var(f97, x).AddConst(f97.NewElement(2)), poly.Var(f97, y), "lin")
	// Product that cancels: x * 0 = 0 is linear (trivially zero quad).
	s.AddConstraint(poly.Var(f97, x), poly.ConstInt(f97, 0), poly.ConstInt(f97, 0), "zero")
	// Genuine nonlinear: x * x = y
	s.AddConstraint(poly.Var(f97, x), poly.Var(f97, x), poly.Var(f97, y), "sq")
	if !s.Constraint(0).IsLinear() || !s.Constraint(1).IsLinear() || s.Constraint(2).IsLinear() {
		t.Error("IsLinear misclassification")
	}
	q := s.Constraint(2).Quad()
	if q.Degree() != 2 || f97.ToBig(q.CoeffPair(x, x)).Int64() != 1 {
		t.Errorf("Quad of x*x=y wrong: %v", q)
	}
	if !reflect.DeepEqual(s.Constraint(2).Vars(), []int{x, y}) {
		t.Errorf("Vars = %v", s.Constraint(2).Vars())
	}
	// Vars merges the three sorted combinations; it must equal the sorted
	// set of their variables, empty combinations and overlaps included.
	rng := rand.New(rand.NewSource(5))
	randLC := func() *poly.LinComb {
		lc := poly.ConstInt(f97, int64(rng.Intn(3)))
		for v := 0; v < 8; v++ {
			if rng.Intn(3) == 0 {
				lc = lc.AddTerm(v, f97.NewElement(int64(1+rng.Intn(96))))
			}
		}
		return lc
	}
	for i := 0; i < 500; i++ {
		c := Constraint{A: randLC(), B: randLC(), C: randLC()}
		seen := map[int]bool{}
		for _, lc := range []*poly.LinComb{c.A, c.B, c.C} {
			for _, v := range lc.Vars() {
				seen[v] = true
			}
		}
		want := []int{}
		for v := range seen {
			want = append(want, v)
		}
		sort.Ints(want)
		if got := c.Vars(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Vars(%v) = %v, want %v", c, got, want)
		}
	}
}

func TestWitnessHelpers(t *testing.T) {
	s, a, b, out := buildMulSystem(t)
	w1 := s.NewWitness()
	w2 := w1.Clone()
	w2[out] = f97.NewElement(5)
	if AgreeOn(w1, w2, []int{a, b}) != true {
		t.Error("AgreeOn inputs should hold")
	}
	if AgreeOn(w1, w2, []int{out}) {
		t.Error("AgreeOn out should fail")
	}
	if got := FirstDifference(w1, w2, []int{a, b, out}); got != out {
		t.Errorf("FirstDifference = %d, want %d", got, out)
	}
	if got := FirstDifference(w1, w2, []int{a, b}); got != -1 {
		t.Errorf("FirstDifference = %d, want -1", got)
	}
	// Clone isolation (value semantics: writing one slice never aliases).
	w2[a] = f97.NewElement(9)
	if !w1[a].IsZero() {
		t.Error("Clone aliases storage")
	}
}

// buildChain builds a chain x0 -> x1 -> ... -> xn with xi+1 = xi * xi,
// useful for slicing tests.
func buildChain(n int) (*System, []int) {
	s := NewSystem(f97)
	ids := make([]int, n+1)
	ids[0] = s.AddSignal("in", KindInput)
	for i := 1; i <= n; i++ {
		kind := KindInternal
		if i == n {
			kind = KindOutput
		}
		ids[i] = s.AddSignal("", kind)
		s.AddConstraint(poly.Var(f97, ids[i-1]), poly.Var(f97, ids[i-1]), poly.Var(f97, ids[i]), "sq")
	}
	return s, ids
}

func TestSliceAround(t *testing.T) {
	s, ids := buildChain(6)
	// Radius 1 around the middle signal: the two adjacent constraints.
	sl := s.SliceAround(ids[3], 1, 0)
	if len(sl.Constraints) != 2 {
		t.Fatalf("radius-1 slice has %d constraints, want 2: %v", len(sl.Constraints), sl.Constraints)
	}
	// Signals: ids[2..4] plus target.
	want := []int{ids[2], ids[3], ids[4]}
	if !reflect.DeepEqual(sl.Signals, want) {
		t.Errorf("slice signals = %v, want %v", sl.Signals, want)
	}
	// Radius 2 grabs two more constraints.
	sl2 := s.SliceAround(ids[3], 2, 0)
	if len(sl2.Constraints) != 4 {
		t.Errorf("radius-2 slice has %d constraints, want 4", len(sl2.Constraints))
	}
	// Big radius saturates at the full system.
	slAll := s.SliceAround(ids[3], 100, 0)
	if len(slAll.Constraints) != s.NumConstraints() {
		t.Errorf("saturated slice has %d constraints, want %d", len(slAll.Constraints), s.NumConstraints())
	}
	// Cap limits growth but keeps the radius-1 core.
	slCap := s.SliceAround(ids[3], 100, 3)
	if len(slCap.Constraints) < 2 || len(slCap.Constraints) > 4 {
		t.Errorf("capped slice has %d constraints", len(slCap.Constraints))
	}
}

func TestSliceIsolatedSignal(t *testing.T) {
	s := NewSystem(f97)
	x := s.AddSignal("x", KindInput)
	free := s.AddSignal("free", KindOutput)
	s.AddConstraint(poly.Var(f97, x), poly.ConstInt(f97, 1), poly.Var(f97, x), "id")
	sl := s.SliceAround(free, 3, 0)
	if len(sl.Constraints) != 0 {
		t.Errorf("isolated signal slice = %v", sl.Constraints)
	}
	if !reflect.DeepEqual(sl.Signals, []int{free}) {
		t.Errorf("isolated signal set = %v", sl.Signals)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s, a, b, out := buildMulSystem(t)
	// Add a constraint with constants and a tag to exercise the format.
	s.AddConstraint(
		poly.ConstInt(f97, 1),
		poly.Var(f97, a).Scale(f97.NewElement(3)).AddConst(f97.NewElement(5)),
		poly.Var(f97, out).AddTerm(b, f97.NewElement(96)),
		"affine check",
	)
	text := s.MarshalText()
	s2, err := ParseString(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if s2.MarshalText() != text {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text, s2.MarshalText())
	}
	if s2.NumSignals() != s.NumSignals() || s2.NumConstraints() != s.NumConstraints() {
		t.Error("round trip lost content")
	}
	if s2.Constraint(1).Tag != "affine check" {
		t.Errorf("tag lost: %q", s2.Constraint(1).Tag)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"nonsense",
		"r1cs v1\nprime 96\n",                   // not prime
		"r1cs v1\nprime 97\nsignal 5 input x\n", // out of order id
		"r1cs v1\nprime 97\nsignal 1 martian x\n",   // bad kind
		"r1cs v1\nprime 97\nconstraint [0|] [0|]\n", // two parts only
		"r1cs v1\nprime 97\nwombat\n",               // unknown line
		"r1cs v1\nprime 97\nconstraint [zebra|] [0|] [0|]\n",
	}
	for _, text := range bad {
		if _, err := ParseString(text); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", text)
		}
	}
}

func TestSignalKindString(t *testing.T) {
	cases := map[SignalKind]string{
		KindOne: "one", KindInput: "input", KindOutput: "output",
		KindInternal: "internal", SignalKind(42): "SignalKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestConstraintsOf(t *testing.T) {
	s, ids := buildChain(3)
	// ids[1] occurs in constraints 0 (as output) and 1 (as input).
	got := s.ConstraintsOf(ids[1])
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("ConstraintsOf = %v", got)
	}
	if len(s.ConstraintsOf(ids[3])) != 1 {
		t.Errorf("tail signal constraints = %v", s.ConstraintsOf(ids[3]))
	}
}

func TestNameFallback(t *testing.T) {
	s := NewSystem(f97)
	if s.Name(0) != "one" {
		t.Error("Name(0)")
	}
	if s.Name(99) != "x99" {
		t.Errorf("Name(99) = %q", s.Name(99))
	}
	if s.Name(-1) != "x-1" {
		t.Errorf("Name(-1) = %q", s.Name(-1))
	}
}

func TestAddSignalAutoName(t *testing.T) {
	s := NewSystem(f97)
	id := s.AddSignal("", KindInternal)
	if s.Name(id) != "_sig1" {
		t.Errorf("auto name = %q", s.Name(id))
	}
	defer func() {
		if recover() == nil {
			t.Error("second one-signal did not panic")
		}
	}()
	s.AddSignal("two", KindOne)
}

func TestConstraintString(t *testing.T) {
	s, _, _, _ := buildMulSystem(t)
	got := s.Constraint(0).String()
	if !strings.Contains(got, "*") || !strings.Contains(got, "=") {
		t.Errorf("Constraint.String = %q", got)
	}
}

func TestMarshalMetadataRoundTrip(t *testing.T) {
	s, a, b, out := buildMulSystem(t)
	s.SetSignalLoc(a, SourceLoc{Template: "Mul", Line: 3, Col: 7})
	s.MarkHinted(b)
	s.SetSignalLoc(b, SourceLoc{Template: "Mul", Line: 4, Col: 2})
	s.SetConstraintLoc(0, SourceLoc{Template: "Mul", Line: 6, Col: 9})
	s.SetConstraintDef(0, out)
	text := s.MarshalText()
	s2, err := ParseString(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if s2.MarshalText() != text {
		t.Errorf("metadata round trip not stable:\n%s\nvs\n%s", text, s2.MarshalText())
	}
	if got := s2.Signal(a).Loc; got != (SourceLoc{Template: "Mul", Line: 3, Col: 7}) {
		t.Errorf("signal loc lost: %+v", got)
	}
	if !s2.Signal(b).Hinted {
		t.Error("hint flag lost")
	}
	if s2.Signal(a).Hinted {
		t.Error("hint flag leaked to unhinted signal")
	}
	c := s2.Constraint(0)
	if c.Def != out {
		t.Errorf("constraint def lost: %d", c.Def)
	}
	if c.Loc != (SourceLoc{Template: "Mul", Line: 6, Col: 9}) {
		t.Errorf("constraint loc lost: %+v", c.Loc)
	}
	if c.Tag != "mul" {
		t.Errorf("tag lost alongside metadata: %q", c.Tag)
	}
}

func TestParseMetadataErrors(t *testing.T) {
	base := "r1cs v1\nprime 97\nsignal 0 one one\nsignal 1 input a\n"
	for _, tc := range []struct{ name, text string }{
		{"bad loc", base + "signal 2 output o loc=nocolons\n"},
		{"unknown attribute", base + "signal 2 output o zebra\n"},
		{"bad def target", base + "signal 2 output o\nconstraint [0|1:1] [0|2:1] [0|2:1] def=9\n"},
		{"bad constraint loc", base + "signal 2 output o\nconstraint [0|1:1] [0|2:1] [0|2:1] @ nocolons\n"},
	} {
		if _, err := ParseString(tc.text); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSourceLoc(t *testing.T) {
	var zero SourceLoc
	if !zero.IsZero() || zero.String() != "" {
		t.Errorf("zero loc: IsZero=%v String=%q", zero.IsZero(), zero.String())
	}
	l := SourceLoc{Template: "T", Line: 12, Col: 3}
	if l.IsZero() || l.String() != "T:12:3" {
		t.Errorf("loc: IsZero=%v String=%q", l.IsZero(), l.String())
	}
}
