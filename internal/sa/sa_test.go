package sa

import (
	"encoding/json"
	"strings"
	"testing"

	"qed2/internal/circom"
	"qed2/internal/r1cs"
)

func compile(t testing.TB, src string) *circom.Program {
	t.Helper()
	p, err := circom.Compile(src, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func findingsOf(res *Lint, detector string) []Finding {
	var out []Finding
	for _, f := range res.Findings {
		if f.Detector == detector {
			out = append(out, f)
		}
	}
	return out
}

// --- graph -----------------------------------------------------------------

func TestGraphComponentsAndPruning(t *testing.T) {
	// Two islands: in→out is the interface component; u === v*v is a floating
	// internal component no output can observe.
	src := `
template Two() {
    signal input in;
    signal output out;
    signal u;
    signal v;
    out <== in * in;
    v <-- 7;
    u <== v * v;
}
component main = Two();
`
	p := compile(t, src)
	sys := p.System
	g := BuildGraph(sys)
	if g.NumComponents != 2 {
		t.Fatalf("NumComponents = %d, want 2", g.NumComponents)
	}
	in, out := sys.Inputs()[0], sys.Outputs()[0]
	if g.ComponentOf(in) != g.ComponentOf(out) {
		t.Errorf("in and out should share a component")
	}
	if !g.ComponentHasInput(out) {
		t.Errorf("output's component should contain the input")
	}
	pruned := g.SignalsWithoutOutputComponent()
	if len(pruned) != 2 {
		t.Fatalf("pruned = %v, want the two floating internals", pruned)
	}
	for _, s := range pruned {
		name := sys.Name(s)
		if name != "u" && name != "v" {
			t.Errorf("pruned signal %s should be u or v", name)
		}
		if g.ComponentHasInput(s) {
			t.Errorf("floating component claims an input")
		}
	}
}

// --- abstract interpretation ------------------------------------------------

func TestAbsintConstantPropagation(t *testing.T) {
	// k is pinned to 5; m = k*k propagates to 25; out = m+k to 30.
	src := `
template Consts() {
    signal input in;
    signal output out;
    signal k;
    signal m;
    k <== 5;
    m <== k * k;
    out <== m + k;
    in * 0 === 0;
}
component main = Consts();
`
	p := compile(t, src)
	sys := p.System
	abs := Interpret(sys)
	f := sys.Field()
	for name, want := range map[string]int64{"k": 5, "m": 25, "out": 30} {
		id := signalByName(t, sys, name)
		v, ok := abs.Const(id)
		if !ok {
			t.Fatalf("%s not proven constant", name)
		}
		if v != f.NewElement(want) {
			t.Errorf("%s = %s, want %d", name, f.String(v), want)
		}
		if !abs.Determined(id) {
			t.Errorf("constant %s not determined", name)
		}
	}
	if err := abs.Verify(); err != nil {
		t.Errorf("replay failed on consistent system: %v", err)
	}
}

func TestAbsintBoolAndDetermined(t *testing.T) {
	// Num2Bits shape: bits are boolean (B-Range) and, via the super-increasing
	// sum, determined by the input (uniq's R-Bits); the linear chain
	// determines out.
	src := `
template Bits() {
    signal input in;
    signal output out;
    signal b[3];
    var lc = 0;
    var e2 = 1;
    for (var i = 0; i < 3; i++) {
        b[i] <-- (in >> i) & 1;
        b[i] * (b[i] - 1) === 0;
        lc += b[i] * e2;
        e2 = e2 + e2;
    }
    lc === in;
    out <== b[0] + 2*b[2];
}
component main = Bits();
`
	p := compile(t, src)
	sys := p.System
	abs := Interpret(sys)
	for _, name := range []string{"b[0]", "b[1]", "b[2]"} {
		id := signalByName(t, sys, name)
		if !abs.Bool(id) {
			t.Errorf("%s not proven boolean", name)
		}
		if !abs.Determined(id) {
			t.Errorf("%s not proven determined", name)
		}
	}
	out := sys.Outputs()[0]
	if !abs.Determined(out) {
		t.Errorf("out not determined despite determined bits")
	}
}

func TestAbsintDetSolveChain(t *testing.T) {
	src := `
template Chain() {
    signal input in;
    signal output out;
    signal a;
    signal b;
    a <== 3*in + 1;
    b <== a * in;
    out <== b + a;
}
component main = Chain();
`
	p := compile(t, src)
	sys := p.System
	abs := Interpret(sys)
	for _, name := range []string{"a", "b", "out"} {
		if !abs.Determined(signalByName(t, sys, name)) {
			t.Errorf("%s not determined", name)
		}
	}
	if n := abs.NumDetermined(); n != sys.NumSignals()-1 {
		t.Errorf("NumDetermined = %d, want all %d", n, sys.NumSignals()-1)
	}
}

func TestAbsintVerifyCatchesContradiction(t *testing.T) {
	// x === 1 and x === 2 cannot both hold: constant propagation derives one
	// of them, and the replay must flag the other's nonzero residual.
	src := `
template Unsat() {
    signal input in;
    signal x;
    x <== 1;
    x === 2;
    in * 0 === 0;
}
component main = Unsat();
`
	p := compile(t, src)
	sys := p.System
	abs := Interpret(sys)
	if err := abs.Verify(); err == nil {
		t.Fatal("Verify accepted an unsatisfiable system")
	} else if !strings.Contains(err.Error(), "replay failed") {
		t.Errorf("unexpected error: %v", err)
	}
}

// --- detectors ---------------------------------------------------------------

func TestDetectUnreachableOutput(t *testing.T) {
	src := `
template Free() {
    signal input in;
    signal output out;
    signal t;
    t <== in * in;
    out <-- in;
    out * (out - 1) === 0;
}
component main = Free();
`
	p := compile(t, src)
	res := AnalyzeProgram(p, nil)
	fs := findingsOf(res, "unreachable-output")
	if len(fs) != 1 || fs[0].Severity != SeverityError {
		t.Fatalf("unreachable-output findings = %+v", fs)
	}
	if fs[0].Signal != "out" {
		t.Errorf("flagged %s, want out", fs[0].Signal)
	}
	if len(res.UnreachableOutputs) != 1 {
		t.Errorf("UnreachableOutputs = %v", res.UnreachableOutputs)
	}
}

func TestDetectUnreachableOutputExcludesDeterminedConstants(t *testing.T) {
	// out === 5 has no input path either, but it is perfectly constrained.
	src := `
template Pinned() {
    signal input in;
    signal output out;
    out <== 5;
    in * 0 === 0;
}
component main = Pinned();
`
	p := compile(t, src)
	res := AnalyzeProgram(p, nil)
	if fs := findingsOf(res, "unreachable-output"); len(fs) != 0 {
		t.Fatalf("constant output flagged unreachable: %+v", fs)
	}
	if len(res.DeterminedOutputs) != 1 {
		t.Errorf("DeterminedOutputs = %v, want the pinned output", res.DeterminedOutputs)
	}
}

// TestDeterminedIncludesConstants: out·z = 0 with z pinned to 1 makes out
// the constant 0, but uniq's R-Solve leaves it alone (the monomial out·z
// touches an unknown). A proven constant is still determined, so the
// output is not flagged unreachable.
func TestDeterminedIncludesConstants(t *testing.T) {
	src := `
template PinnedByProduct() {
    signal input in;
    signal output out;
    signal z;
    z <== 1;
    out <-- 0;
    out * z === 0;
    in * 0 === 0;
}
component main = PinnedByProduct();
`
	p := compile(t, src)
	res := AnalyzeProgram(p, nil)
	out := p.System.Outputs()[0]
	if v, ok := res.Abs.Const(out); !ok || !v.IsZero() {
		t.Fatalf("out not proven the constant 0")
	}
	if res.Abs.prop.IsUnique(out) {
		t.Fatalf("uniq resolves out; the case tests nothing")
	}
	if !res.Abs.Determined(out) {
		t.Errorf("constant out not determined")
	}
	if fs := findingsOf(res, "unreachable-output"); len(fs) != 0 {
		t.Errorf("constant output flagged unreachable: %+v", fs)
	}
}

func TestDetectUnconstrainedHint(t *testing.T) {
	src := `
template Hint() {
    signal input in;
    signal output out;
    signal free;
    free <-- in * 2;
    out <== in * in;
}
component main = Hint();
`
	p := compile(t, src)
	res := AnalyzeProgram(p, nil)
	fs := findingsOf(res, "unconstrained-hint")
	if len(fs) != 1 || fs[0].Severity != SeverityWarning || fs[0].Signal != "free" {
		t.Fatalf("unconstrained-hint findings = %+v", fs)
	}
	if fs[0].Loc == "" {
		t.Errorf("finding not source-located")
	}
}

func TestDetectNonBinarySelector(t *testing.T) {
	// Mux with an unconstrained selector: s*(a-b)+b. Constrained variant must
	// stay silent.
	src := `
template Mux() {
    signal input s;
    signal input a;
    signal input b;
    signal output out;
    out <== s * (a - b) + b;
}
component main = Mux();
`
	p := compile(t, src)
	res := AnalyzeProgram(p, nil)
	fs := findingsOf(res, "non-binary-selector")
	if len(fs) != 1 || fs[0].Signal != "s" {
		t.Fatalf("non-binary-selector findings = %+v", fs)
	}

	constrained := `
template Mux() {
    signal input s;
    signal input a;
    signal input b;
    signal output out;
    s * (s - 1) === 0;
    out <== s * (a - b) + b;
}
component main = Mux();
`
	p2 := compile(t, constrained)
	if fs := findingsOf(AnalyzeProgram(p2, nil), "non-binary-selector"); len(fs) != 0 {
		t.Fatalf("boolean selector still flagged: %+v", fs)
	}
}

func TestDetectNonBinaryInDecomposition(t *testing.T) {
	// The classic buggy Num2Bits: one bit's boolean constraint is missing.
	src := `
template BadBits() {
    signal input in;
    signal output out[3];
    var lc = 0;
    var e2 = 1;
    for (var i = 0; i < 3; i++) {
        out[i] <-- (in >> i) & 1;
        if (i < 2) {
            out[i] * (out[i] - 1) === 0;
        }
        lc += out[i] * e2;
        e2 = e2 + e2;
    }
    lc === in;
}
component main = BadBits();
`
	p := compile(t, src)
	res := AnalyzeProgram(p, nil)
	fs := findingsOf(res, "non-binary-in-decomposition")
	if len(fs) != 1 || fs[0].Signal != "out[2]" {
		t.Fatalf("non-binary-in-decomposition findings = %+v", fs)
	}
}

func TestDetectZeroDivisorViaProgram(t *testing.T) {
	src := `
template Inv() {
    signal input in;
    signal output out;
    out <-- 1 / in;
    out * in === 1;
}
component main = Inv();
`
	p := compile(t, src)
	res := AnalyzeProgram(p, nil)
	// out·in = 1 proves in ≠ 0 (rule N-Inv), so the divisor warning is
	// discharged down to the nonzero-divisor-proved info finding.
	if fs := findingsOf(res, "possibly-zero-divisor"); len(fs) != 0 {
		t.Fatalf("possibly-zero-divisor findings = %+v", fs)
	}
	fs := findingsOf(res, "nonzero-divisor-proved")
	if len(fs) != 1 || fs[0].Severity != SeverityInfo {
		t.Fatalf("nonzero-divisor-proved findings = %+v", fs)
	}
	// A guarded division is advisory only.
	guarded := `
template Inv() {
    signal input in;
    signal output out;
    out <-- in != 0 ? 1 / in : 0;
    out * in === in;
}
component main = Inv();
`
	p2 := compile(t, guarded)
	fs2 := findingsOf(AnalyzeProgram(p2, nil), "possibly-zero-divisor")
	if len(fs2) != 1 || fs2[0].Severity != SeverityInfo {
		t.Fatalf("guarded divisor findings = %+v", fs2)
	}
}

// --- result plumbing ---------------------------------------------------------

func TestAnalyzeDeterministic(t *testing.T) {
	src := `
template Mixed() {
    signal input in;
    signal output out;
    signal h;
    signal u;
    signal v;
    h <-- in * 3;
    v <-- 2;
    u <-- v * v;
    u === v * v;
    out <-- in;
    out * (out - 1) === 0;
}
component main = Mixed();
`
	p := compile(t, src)
	var runs [2][]byte
	for i := range runs {
		b, err := json.Marshal([]any{Analyze(p.System, nil), AnalyzeProgram(p, nil).Findings})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = b
	}
	if string(runs[0]) != string(runs[1]) {
		t.Fatalf("facts or findings not deterministic:\n%s\n%s", runs[0], runs[1])
	}
}

func TestFindingStringAndSeverityOrder(t *testing.T) {
	f := Finding{Detector: "d", Severity: SeverityError, SeverityName: "error",
		Loc: "T:1:2", Message: "m"}
	if got := f.String(); got != "T:1:2: error[d]: m" {
		t.Errorf("String() = %q", got)
	}
	fs := []Finding{
		{Detector: "b", Severity: SeverityInfo},
		{Detector: "a", Severity: SeverityError},
		{Detector: "c", Severity: SeverityWarning},
	}
	sortFindings(fs)
	if fs[0].Detector != "a" || fs[1].Detector != "c" || fs[2].Detector != "b" {
		t.Errorf("sort order wrong: %+v", fs)
	}
}

// A finding at constraint #0 keeps its "constraint" key, and a finding with
// no constraint renders it as -1: the key is never omitted.
func TestFindingJSONConstraint(t *testing.T) {
	for _, tc := range []struct {
		cons int
		want string
	}{
		{0, `"constraint":0,`},
		{-1, `"constraint":-1,`},
	} {
		b, err := json.Marshal(Finding{Detector: "d", SeverityName: "warning", Constraint: tc.cons, Message: "m"})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), tc.want) {
			t.Errorf("constraint %d renders as %s, want %s", tc.cons, b, tc.want)
		}
	}
}

func signalByName(t *testing.T, sys *r1cs.System, name string) int {
	t.Helper()
	for id := 1; id < sys.NumSignals(); id++ {
		if sys.Name(id) == name {
			return id
		}
	}
	t.Fatalf("no signal named %s", name)
	return -1
}

func TestDetectOverflowProneSum(t *testing.T) {
	// Two 253-bit ladders summed in one constraint: the bounded terms span
	// 2·(2^253−1) ≥ p, so two distinct in-range bit assignments can alias
	// the same field value for out — the AliasCheck wraparound class.
	src := `
template WideSum() {
    signal input a;
    signal input b;
    signal output out;
    signal abits[253];
    signal bbits[253];
    var la = 0;
    var lb = 0;
    for (var i = 0; i < 253; i++) {
        abits[i] <-- (a >> i) & 1;
        abits[i] * (abits[i] - 1) === 0;
        la += abits[i] * (2 ** i);
        bbits[i] <-- (b >> i) & 1;
        bbits[i] * (bbits[i] - 1) === 0;
        lb += bbits[i] * (2 ** i);
    }
    la === a;
    lb === b;
    out <== la + lb;
}
component main = WideSum();
`
	res := AnalyzeProgram(compile(t, src), nil)
	fs := findingsOf(res, "overflow-prone-sum")
	if len(fs) != 1 || fs[0].Severity != SeverityWarning {
		t.Fatalf("overflow-prone-sum findings = %+v", fs)
	}
	if !strings.Contains(fs[0].Message, "254 bits") {
		t.Errorf("message lacks the span bit-width: %s", fs[0].Message)
	}
	// A single ladder's signed span is p−1 < p, so it stays silent no
	// matter how many bits it has — even at 254 bits, where the bits alias
	// without wrapping (TestNum2Bits254SumExtentIsPMinusOne).
	single := `
template N2B() {
    signal input in;
    signal output out[254];
    var lc = 0;
    for (var i = 0; i < 254; i++) {
        out[i] <-- (in >> i) & 1;
        out[i] * (out[i] - 1) === 0;
        lc += out[i] * (2 ** i);
    }
    lc === in;
}
component main = N2B();
`
	if fs := findingsOf(AnalyzeProgram(compile(t, single), nil), "overflow-prone-sum"); len(fs) != 0 {
		t.Fatalf("single ladder flagged: %+v", fs)
	}
}
