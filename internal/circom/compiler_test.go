package circom

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"qed2/internal/faultinject"
	"qed2/internal/ff"
	"qed2/internal/r1cs"
)

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(src, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// wi reads a witness slot as a small integer.
func wi(p *Program, w r1cs.Witness, id int) int64 {
	return p.System.Field().ToBig(w[id]).Int64()
}

func TestCompileMultiplier(t *testing.T) {
	p := mustCompile(t, `
template Multiplier() {
    signal input a;
    signal input b;
    signal output c;
    c <== a * b;
}
component main = Multiplier();
`)
	st := p.System.Stats()
	if st.Inputs != 2 || st.Outputs != 1 || st.Constraints != 1 {
		t.Fatalf("stats = %+v", st)
	}
	w := p.MustWitness(InputsFromInts(map[string]int64{"a": 6, "b": 7}))
	out := p.OutputNames["c"]
	if wi(p, w, out) != 42 {
		t.Errorf("c = %v", w[out])
	}
}

func TestCompileIsZero(t *testing.T) {
	p := mustCompile(t, `
template IsZero() {
    signal input in;
    signal output out;
    signal inv;
    inv <-- in != 0 ? 1/in : 0;
    out <== -in*inv + 1;
    in*out === 0;
}
component main = IsZero();
`)
	if p.System.Stats().Constraints != 2 {
		t.Fatalf("constraints = %d, want 2", p.System.Stats().Constraints)
	}
	// The inv assignment must be unconstrained (<--).
	var unconstrained int
	for _, a := range p.Assignments {
		if !a.Constrained {
			unconstrained++
		}
	}
	if unconstrained != 1 {
		t.Errorf("unconstrained assignments = %d, want 1", unconstrained)
	}
	out := p.OutputNames["out"]
	w := p.MustWitness(InputsFromInts(map[string]int64{"in": 0}))
	if wi(p, w, out) != 1 {
		t.Errorf("IsZero(0) = %v, want 1", w[out])
	}
	w = p.MustWitness(InputsFromInts(map[string]int64{"in": 5}))
	if wi(p, w, out) != 0 {
		t.Errorf("IsZero(5) = %v, want 0", w[out])
	}
}

func TestCompileNum2Bits(t *testing.T) {
	p := mustCompile(t, `
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
component main = Num2Bits(8);
`)
	st := p.System.Stats()
	if st.Outputs != 8 || st.Constraints != 9 {
		t.Fatalf("stats = %+v", st)
	}
	w := p.MustWitness(InputsFromInts(map[string]int64{"in": 0b10110101}))
	wantBits := []int64{1, 0, 1, 0, 1, 1, 0, 1}
	for i, b := range wantBits {
		id := p.OutputNames["out["+string(rune('0'+i))+"]"]
		if wi(p, w, id) != b {
			t.Errorf("bit %d = %v, want %d", i, w[id], b)
		}
	}
}

func TestCompileComponents(t *testing.T) {
	p := mustCompile(t, `
template IsZero() {
    signal input in;
    signal output out;
    signal inv;
    inv <-- in != 0 ? 1/in : 0;
    out <== -in*inv + 1;
    in*out === 0;
}
template IsEqual() {
    signal input in[2];
    signal output out;
    component isz = IsZero();
    in[1] - in[0] ==> isz.in;
    isz.out ==> out;
}
component main = IsEqual();
`)
	out := p.OutputNames["out"]
	w := p.MustWitness(InputsFromInts(map[string]int64{"in[0]": 4, "in[1]": 4}))
	if wi(p, w, out) != 1 {
		t.Errorf("IsEqual(4,4) = %v", w[out])
	}
	w = p.MustWitness(InputsFromInts(map[string]int64{"in[0]": 4, "in[1]": 5}))
	if wi(p, w, out) != 0 {
		t.Errorf("IsEqual(4,5) = %v", w[out])
	}
	// Sub-component signals carry dotted names.
	if _, ok := p.System.SignalByName("isz.inv"); !ok {
		t.Error("missing dotted sub-component signal name isz.inv")
	}
}

func TestCompileComponentArrays(t *testing.T) {
	p := mustCompile(t, `
template Square() {
    signal input in;
    signal output out;
    out <== in * in;
}
template SumOfSquares(n) {
    signal input in[n];
    signal output out;
    component sq[n];
    var acc = 0;
    signal partial[n];
    for (var i = 0; i < n; i++) {
        sq[i] = Square();
        sq[i].in <== in[i];
    }
    partial[0] <== sq[0].out;
    for (var i = 1; i < n; i++) {
        partial[i] <== partial[i-1] + sq[i].out;
    }
    out <== partial[n-1];
}
component main = SumOfSquares(3);
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"in[0]": 1, "in[1]": 2, "in[2]": 3}))
	if got := wi(p, w, p.OutputNames["out"]); got != 14 {
		t.Errorf("sum of squares = %d, want 14", got)
	}
}

func TestCompileFunctions(t *testing.T) {
	p := mustCompile(t, `
function nbits(a) {
    var n = 1;
    var r = 0;
    while (n-1 < a) {
        r++;
        n *= 2;
    }
    return r;
}
template T() {
    signal input in;
    signal output out;
    out <== in * nbits(7);
}
component main = T();
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"in": 2}))
	if got := wi(p, w, p.OutputNames["out"]); got != 6 {
		t.Errorf("out = %d, want 2*nbits(7)=6", got)
	}
}

func TestCompileIncludes(t *testing.T) {
	lib := map[string]string{
		"mul.circom": `
template Mul() {
    signal input a;
    signal input b;
    signal output c;
    c <== a*b;
}
`,
	}
	p, err := Compile(`
include "mul.circom";
component main = Mul();
`, &CompileOptions{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if p.MainTemplate != "Mul" {
		t.Errorf("main template = %q", p.MainTemplate)
	}
	// Missing include errors.
	if _, err := Compile(`include "nope.circom"; component main = X();`, nil); err == nil {
		t.Error("missing include accepted")
	}
}

func TestCompileQuadraticRules(t *testing.T) {
	// Cubic constraint must be rejected.
	_, err := Compile(`
template T() {
    signal input a;
    signal output out;
    out <== a*a*a;
}
component main = T();
`, nil)
	if err == nil || !strings.Contains(err.Error(), "degree 2") {
		t.Errorf("cubic <== err = %v", err)
	}
	// Division by a signal must be rejected in constraints...
	_, err = Compile(`
template T() {
    signal input a;
    signal output out;
    out <== 1/a;
}
component main = T();
`, nil)
	if err == nil || !strings.Contains(err.Error(), "division") {
		t.Errorf("signal division <== err = %v", err)
	}
	// ...but allowed in witness assignments.
	p := mustCompile(t, `
template T() {
    signal input a;
    signal output out;
    out <-- 1/a;
    out*a === 1;
}
component main = T();
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"a": 3}))
	f := p.System.Field()
	if f.Mul(w[p.OutputNames["out"]], f.NewElement(3)) != f.One() {
		t.Error("witness division wrong")
	}
	// Division by zero at witness time errors.
	if _, err := p.GenerateWitness(InputsFromInts(map[string]int64{"a": 0})); err == nil {
		t.Error("1/0 witness generation succeeded")
	}
}

func TestCompilePowUnfolding(t *testing.T) {
	p := mustCompile(t, `
template T() {
    signal input a;
    signal output out;
    out <== a**2 + 2**3;
}
component main = T();
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"a": 5}))
	if got := wi(p, w, p.OutputNames["out"]); got != 33 {
		t.Errorf("a^2+8 = %d, want 33", got)
	}
	if _, err := Compile(`
template T() { signal input a; signal output o; o <== a**3; }
component main = T();
`, nil); err == nil {
		t.Error("a**3 accepted in constraint")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no main", `template T() { signal input x; signal output o; o <== x; }`, "no main"},
		{"unknown template", `component main = Nope();`, "unknown template"},
		{"param count", `template T(n) { signal input x; signal output o; o <== x; } component main = T();`, "parameters"},
		{"assign to input", `template T() { signal input x; signal output o; x <== 1; o <== x; } component main = T();`, "input"},
		{"double assign", `template T() { signal input x; signal output o; o <== x; o <== x; } component main = T();`, "twice"},
		{"unassigned signal", `template T() { signal input x; signal output o; signal m; o <== x; m*m === x; } component main = T();`, "no assignment"},
		{"const false ===", `template T() { signal input x; signal output o; o <== x; 1 === 2; } component main = T();`, "constant-false"},
		{"undefined ident", `template T() { signal output o; o <== y; } component main = T();`, "undefined"},
		{"bad index", `template T() { signal input x[2]; signal output o; o <== x[5]; } component main = T();`, "out of bounds"},
		{"intermediate access", `
template U() { signal input a; signal output b; signal m; m <== a; b <== m; }
template T() { signal input x; signal output o; component u = U(); u.in === 0; o <== x; }
component main = T();`, "no signal"},
		{"private sub access", `
template U() { signal input a; signal output b; signal m; m <== a; b <== m; }
template T() { signal input x; signal output o; component u = U(); u.a <== x; o <== u.m; }
component main = T();`, "not accessible"},
		{"assert fails", `template T(n) { signal input x; signal output o; assert(n > 4); o <== x; } component main = T(3);`, "assertion failed"},
		{"duplicate template", `template T() {} template T() {} component main = T();`, "duplicate"},
		{"fn no return", `function f(x) { var y = x; } template T() { signal input a; signal output o; o <== a * f(1); } component main = T();`, "without returning"},
		{"sum of quads", `template T() { signal input a; signal input b; signal output o; o <== a*a + b*b; } component main = T();`, "not quadratic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src, nil)
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err.Error(), c.want)
			}
		})
	}
}

func TestCompileStepBudget(t *testing.T) {
	_, err := Compile(`
template T() {
    signal input x;
    signal output o;
    var i = 0;
    while (1) { i++; }
    o <== x;
}
component main = T();
`, &CompileOptions{MaxSteps: 10000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("infinite loop err = %v", err)
	}
}

func TestCompileRecursionGuard(t *testing.T) {
	_, err := Compile(`
function f(x) { return f(x); }
template T() { signal input a; signal output o; o <== a * f(1); }
component main = T();
`, &CompileOptions{MaxDepth: 16})
	if err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Errorf("recursion err = %v", err)
	}
}

func TestCompileSmallField(t *testing.T) {
	f97 := ff.MustField(big.NewInt(97))
	p, err := Compile(`
template T() {
    signal input a;
    signal output o;
    o <== a + 96;
}
component main = T();
`, &CompileOptions{Field: f97})
	if err != nil {
		t.Fatal(err)
	}
	w := p.MustWitness(InputsFromInts(map[string]int64{"a": 5}))
	if got := wi(p, w, p.OutputNames["o"]); got != 4 {
		t.Errorf("5 + 96 mod 97 = %d, want 4", got)
	}
}

func TestWitnessTimeAssert(t *testing.T) {
	p := mustCompile(t, `
template T() {
    signal input a;
    signal output o;
    assert(a != 3);
    o <== a;
}
component main = T();
`)
	if _, err := p.GenerateWitness(InputsFromInts(map[string]int64{"a": 5})); err != nil {
		t.Errorf("a=5: %v", err)
	}
	if _, err := p.GenerateWitness(InputsFromInts(map[string]int64{"a": 3})); err == nil {
		t.Error("a=3 passed the witness assert")
	}
}

func TestWitnessUnknownInputRejected(t *testing.T) {
	p := mustCompile(t, `
template T() { signal input a; signal output o; o <== a; }
component main = T();
`)
	if _, err := p.GenerateWitness(InputsFromInts(map[string]int64{"zzz": 1})); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestWitnessOrderIndependence(t *testing.T) {
	// inter depends on a later-assigned subcomponent output; the ready
	// queue must reorder.
	p := mustCompile(t, `
template Sq() { signal input in; signal output out; out <== in*in; }
template T() {
    signal input a;
    signal output o;
    signal inter;
    component s = Sq();
    inter <-- s.out + 1;
    inter === s.out + 1;
    s.in <== a;
    o <== inter;
}
component main = T();
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"a": 3}))
	if got := wi(p, w, p.OutputNames["o"]); got != 10 {
		t.Errorf("o = %d, want 10", got)
	}
}

func TestConstraintTagsCarryProvenance(t *testing.T) {
	p := mustCompile(t, `
template T() { signal input a; signal output o; o <== a*a; }
component main = T();
`)
	tag := p.System.Constraint(0).Tag
	if !strings.Contains(tag, "o") || !strings.Contains(tag, "<==") {
		t.Errorf("tag = %q", tag)
	}
}

func TestLogCollection(t *testing.T) {
	p := mustCompile(t, `
template T(n) {
    signal input a;
    signal output o;
    log("n is", n);
    o <== a;
}
component main = T(7);
`)
	if len(p.Logs) != 1 || p.Logs[0] != "n is 7" {
		t.Errorf("logs = %v", p.Logs)
	}
}

func TestWitnessCircularDependencyDetected(t *testing.T) {
	p := mustCompile(t, `
template T() {
    signal input x;
    signal output a;
    signal output b;
    a <-- b + 1;
    b <-- a + 1;
    a - b === 1 - x;
}
component main = T();
`)
	_, err := p.GenerateWitness(InputsFromInts(map[string]int64{"x": 3}))
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("cyclic witness err = %v, want 'stuck'", err)
	}
}

func TestMultiDimensionalSignals(t *testing.T) {
	p := mustCompile(t, `
template T(n, m) {
    signal input in[n][m];
    signal output out;
    var acc = 0;
    for (var i = 0; i < n; i++) {
        for (var j = 0; j < m; j++) {
            acc += in[i][j] * (i*m + j + 1);
        }
    }
    out <== acc;
}
component main = T(2, 3);
`)
	// out = sum in[i][j] * (i*3+j+1) with in[i][j] = i*3+j+1 → sum of squares 1..6 = 91
	inputs := map[string]int64{}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			inputs[fmt.Sprintf("in[%d][%d]", i, j)] = int64(i*3 + j + 1)
		}
	}
	w := p.MustWitness(InputsFromInts(inputs))
	if got := wi(p, w, p.OutputNames["out"]); got != 91 {
		t.Errorf("out = %d, want 91", got)
	}
}

func TestFunctionReturningArray(t *testing.T) {
	p := mustCompile(t, `
function firstN(n) {
    var out[8];
    for (var i = 0; i < n; i++) { out[i] = i + 1; }
    return out;
}
template T() {
    signal input x;
    signal output o;
    var arr[8] = firstN(3);
    o <== x * arr[2];
}
component main = T();
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"x": 5}))
	if got := wi(p, w, p.OutputNames["o"]); got != 15 {
		t.Errorf("o = %d, want 15", got)
	}
}

func TestSignalDeclInsideIf(t *testing.T) {
	// Compile-time conditional signal declaration (circom 2.1 style).
	p := mustCompile(t, `
template T(flag) {
    signal input a;
    signal output o;
    if (flag == 1) {
        signal extra;
        extra <== a * a;
        o <== extra;
    } else {
        o <== a;
    }
}
component main = T(1);
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"a": 4}))
	if got := wi(p, w, p.OutputNames["o"]); got != 16 {
		t.Errorf("o = %d, want 16", got)
	}
}

func TestArrayLiterals(t *testing.T) {
	p := mustCompile(t, `
template T() {
    signal input x;
    signal output o;
    var flat[3] = [10, 20, 30];
    var nested[2][2] = [[1, 2], [3, 4]];
    o <== x * (flat[1] + nested[1][0]);
}
component main = T();
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"x": 2}))
	if got := wi(p, w, p.OutputNames["o"]); got != 46 {
		t.Errorf("o = %d, want 2*(20+3)=46", got)
	}
}

func TestArrayLiteralErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"ragged", `template T() { signal input x; signal output o; var a[2][2] = [[1], [2, 3]]; o <== x; } component main = T();`},
		{"mixed", `template T() { signal input x; signal output o; var a[2] = [1, [2]]; o <== x; } component main = T();`},
		{"size mismatch", `template T() { signal input x; signal output o; var a[3] = [1, 2]; o <== x; } component main = T();`},
		{"scalar from array", `template T() { signal input x; signal output o; var a = [1, 2]; o <== x; } component main = T();`},
		{"array from scalar", `template T() { signal input x; signal output o; var a[2] = 5; o <== x; } component main = T();`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Compile(c.src, nil); err == nil {
				t.Errorf("compile succeeded")
			}
		})
	}
}

func TestWholeArrayVarAssignment(t *testing.T) {
	p := mustCompile(t, `
template T() {
    signal input x;
    signal output o;
    var a[3] = [1, 2, 3];
    var b[3];
    b = a;
    b[0] = 9;
    // a must be unaffected by mutating b (deep copy semantics)
    o <== x * (a[0]*100 + b[0]);
}
component main = T();
`)
	w := p.MustWitness(InputsFromInts(map[string]int64{"x": 1}))
	if got := wi(p, w, p.OutputNames["o"]); got != 109 {
		t.Errorf("o = %d, want 109", got)
	}
}

func TestConstraintBudgetOverflowReturnsError(t *testing.T) {
	// The overflow used to be a control-flow panic; it must now surface as a
	// positioned compile error through the normal error path.
	src := `
template T() {
    signal input a;
    signal output b[64];
    for (var i = 0; i < 64; i++) { b[i] <== a*a; }
}
component main = T();
`
	_, err := Compile(src, &CompileOptions{MaxConstraints: 8})
	if err == nil {
		t.Fatal("constraint-budget overflow accepted")
	}
	if !strings.Contains(err.Error(), "constraint budget exceeded") {
		t.Fatalf("unexpected error: %v", err)
	}
	var cerr *Error
	if !errors.As(err, &cerr) {
		t.Fatalf("overflow error is not position-tagged: %T %v", err, err)
	}
}

func TestCompilePanicBoundaryWrapsInternalErrors(t *testing.T) {
	// A non-*Error panic inside the compiler (here forced via fault
	// injection) must come back as an "internal error", never escape.
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Kind: faultinject.KindPanic, Site: "circom.compile", Every: 1},
	}})
	defer faultinject.Disable()
	_, err := Compile(`template T() { signal input a; signal output b; b <== a; } component main = T();`, nil)
	if err == nil {
		t.Fatal("injected panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestUnassignedSignalsGetPerSignalDiagnostics(t *testing.T) {
	// Two offenders must yield two separately source-located diagnostics,
	// not one aggregated message.
	_, err := Compile(`
template T() {
    signal input x;
    signal output o;
    signal m;
    signal n;
    o <== x;
    m * m === x;
    n * n === x;
}
component main = T();`, nil)
	if err == nil {
		t.Fatal("unassigned signals accepted")
	}
	msg := err.Error()
	for _, sig := range []string{"m", "n"} {
		want := fmt.Sprintf("signal %s declared here has no assignment", sig)
		if !strings.Contains(msg, want) {
			t.Errorf("missing diagnostic for %s in:\n%s", sig, msg)
		}
	}
	if !strings.Contains(msg, "T:5:") || !strings.Contains(msg, "T:6:") {
		t.Errorf("diagnostics not source-located:\n%s", msg)
	}
	// errors.Join preserves the individual errors for programmatic access.
	if u, ok := err.(interface{ Unwrap() []error }); !ok || len(u.Unwrap()) != 2 {
		t.Errorf("want a joined error with 2 entries, got %T: %v", err, err)
	}
}

func TestCompileRecordsSourceMetadata(t *testing.T) {
	p := mustCompile(t, `
template Meta() {
    signal input x;
    signal output out;
    signal h;
    h <-- x + 1;
    h === x + 1;
    out <== h * x;
}
component main = Meta();`)
	sys := p.System
	byName := func(name string) r1cs.Signal {
		sig, ok := sys.SignalByName(name)
		if !ok {
			t.Fatalf("no signal %s", name)
		}
		return sig
	}
	h, out := byName("h"), byName("out")
	if !h.Hinted {
		t.Error("h not marked hinted despite <--")
	}
	if out.Hinted {
		t.Error("out marked hinted despite <==")
	}
	for _, sig := range []r1cs.Signal{h, out} {
		if sig.Loc.IsZero() || sig.Loc.Template != "Meta" {
			t.Errorf("signal %s missing declaration loc: %+v", sig.Name, sig.Loc)
		}
	}
	// The <== constraint must carry Def=out and a statement location; the
	// pure === constraint must carry a location but no Def.
	defCons, eqCons := -1, -1
	for i := 0; i < sys.NumConstraints(); i++ {
		c := sys.Constraint(i)
		if c.Def == out.ID {
			defCons = i
		} else if c.Def == 0 {
			eqCons = i
		}
	}
	if defCons == -1 {
		t.Fatal("no constraint with Def=out")
	}
	if sys.Constraint(defCons).Loc.IsZero() {
		t.Error("<== constraint missing loc")
	}
	if eqCons == -1 {
		t.Fatal("no pure === constraint")
	}
	if sys.Constraint(eqCons).Loc.IsZero() {
		t.Error("=== constraint missing loc")
	}
}

// TestLogPrintsSignalPlaceholder: a log argument that reads a signal prints
// <signal> instead of failing compilation.
func TestLogPrintsSignalPlaceholder(t *testing.T) {
	p := mustCompile(t, `
template T() {
    signal input x;
    signal output o;
    o <== x;
    log("x is", x, "and", x + 1, 3);
}
component main = T();
`)
	if len(p.Logs) != 1 || p.Logs[0] != "x is <signal> and <signal> 3" {
		t.Errorf("logs = %q", p.Logs)
	}
}

// TestSignalExpressionRunsEachCallOnce: a function called inside a
// signal-dependent expression runs once per evaluation of the call, in
// every statement position. The function logs each time it runs.
func TestSignalExpressionRunsEachCallOnce(t *testing.T) {
	for _, body := range []string{
		`var t = f(2) * x; o <== t;`,
		`o <== x; assert(f(5) * x != 7);`,
		`o <== f(2) * x;`,
		`o <-- f(2) * x; o === x;`,
		`o <== x; x * f(2) === o * 3;`,
		`var t = x; t += f(2); o <== t;`,
	} {
		p := mustCompile(t, `
function f(n) { log("f", n); return n + 1; }
template T() {
    signal input x;
    signal output o;
    `+body+`
}
component main = T();
`)
		if len(p.Logs) != 1 {
			t.Errorf("%s: f ran %d times (logs %q), want once", body, len(p.Logs), p.Logs)
		}
	}
}

// TestIncDecSharedOneNeverWritten: every i++ and i-- applies the one shared
// constant 1, on constant and signal-dependent variables alike, comparisons
// return the shared 0 and 1, and neither compilation nor witness generation
// writes to them.
func TestIncDecSharedOneNeverWritten(t *testing.T) {
	p := mustCompile(t, `
function g(n) { var k = n; k++; k++; k--; return k; }
template T() {
    signal input x;
    signal output o;
    signal h;
    var i = 0;
    for (var j = 0; j < 4; j++) { i++; }
    i--;
    var b = i == 3;
    b++;
    var c = i > 5;
    c--;
    i = i + b + c;
    var t = x;
    t++;
    t--;
    t++;
    h <-- t * g(i);
    o <== t + h;
}
component main = T();
`)
	if one.Cmp(big.NewInt(1)) != 0 || zero.Sign() != 0 {
		t.Fatalf("shared constants written during compilation: one = %v, zero = %v", one, zero)
	}
	w, err := p.GenerateWitness(InputsFromInts(map[string]int64{"x": 5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.System.CheckWitness(w); err != nil {
		t.Fatal(err)
	}
	// i = 3 + 2 - 1 = 4, t = x + 1 = 6, g(4) = 5, h = 30, o = 36.
	if got := p.System.Field().ToBig(w[p.OutputNames["o"]]); got.Int64() != 36 {
		t.Errorf("o = %v, want 36", got)
	}
	if one.Cmp(big.NewInt(1)) != 0 || zero.Sign() != 0 {
		t.Fatalf("shared constants written during witness generation: one = %v, zero = %v", one, zero)
	}
}
