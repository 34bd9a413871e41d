package qed2

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/core"
)

func TestAnalyzeSourceSafe(t *testing.T) {
	report, err := AnalyzeSource(`
pragma circom 2.0.0;
template Mul() {
    signal input a;
    signal input b;
    signal output c;
    c <== a*b;
}
component main = Mul();
`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Safe {
		t.Fatalf("verdict = %v (%s)", report.Verdict, report.Reason)
	}
}

func TestAnalyzeSourceWithBundledLibrary(t *testing.T) {
	report, err := AnalyzeSource(`
pragma circom 2.0.0;
include "multiplexer.circom";
component main = Decoder(4);
`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Unsafe {
		t.Fatalf("Decoder verdict = %v (%s), want unsafe", report.Verdict, report.Reason)
	}
	if report.Counter == nil {
		t.Fatal("unsafe without counterexample")
	}
}

func TestAnalyzeSourceUserLibraryOverride(t *testing.T) {
	lib := map[string]string{
		"mine.circom": `
template Pass() {
    signal input a;
    signal output b;
    b <== a;
}
`,
	}
	report, err := AnalyzeSource(`
include "mine.circom";
component main = Pass();
`, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Safe {
		t.Fatalf("verdict = %v", report.Verdict)
	}
}

func TestCompileAndWitnessRoundTrip(t *testing.T) {
	prog, err := Compile(`
pragma circom 2.0.0;
include "comparators.circom";
component main = IsEqual();
`, &CompileOptions{Library: CircomLib()})
	if err != nil {
		t.Fatal(err)
	}
	w, err := prog.GenerateWitness(map[string]*big.Int{
		"in[0]": big.NewInt(7), "in[1]": big.NewInt(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.System.CheckWitness(w); err != nil {
		t.Fatal(err)
	}
	if !prog.System.Field().IsOne(w[prog.OutputNames["out"]]) {
		t.Error("IsEqual(7,7) != 1")
	}
}

func TestSystemTextRoundTripThroughFacade(t *testing.T) {
	prog, err := Compile(`
template T() { signal input a; signal output b; b <== 2*a + 1; }
component main = T();
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := prog.System.MarshalText()
	sys, err := ParseSystem(text)
	if err != nil {
		t.Fatal(err)
	}
	report := AnalyzeSystem(sys, nil)
	if report.Verdict != Safe {
		t.Fatalf("verdict after round trip = %v", report.Verdict)
	}
}

func TestNewFieldFacade(t *testing.T) {
	f, err := NewField("97")
	if err != nil || f.BitLen() != 7 {
		t.Fatalf("NewField(97): %v %v", f, err)
	}
	if _, err := NewField("96"); err == nil {
		t.Error("NewField(96) accepted composite")
	}
	if _, err := NewField("giraffe"); err == nil {
		t.Error("NewField(giraffe) accepted garbage")
	}
	if BN254().BitLen() != 254 {
		t.Error("BN254 facade broken")
	}
}

func TestCircomLibIsCopy(t *testing.T) {
	a := CircomLib()
	if len(a) == 0 || !strings.Contains(a["comparators.circom"], "IsZero") {
		t.Fatal("bundled library incomplete")
	}
	a["comparators.circom"] = "tampered"
	b := CircomLib()
	if b["comparators.circom"] == "tampered" {
		t.Error("CircomLib returns shared state")
	}
}

// canonicalReport renders everything observable about a report except
// timing and the worker count — the two fields that legitimately vary with
// the parallelism configuration.
func canonicalReport(r *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict=%s reason=%q\n", r.Verdict, r.Reason)
	s := r.Stats
	fmt.Fprintf(&b, "signals=%d outputs=%d cons=%d prop=%d bits=%d smt=%d uniq=%d queries=%d steps=%d\n",
		s.SignalsTotal, s.Outputs, s.Constraints, s.PropagationUnique, s.BitsUnique,
		s.SMTUnique, s.UniqueTotal, s.Queries, s.SolverSteps)
	if ce := r.Counter; ce != nil {
		fmt.Fprintf(&b, "ce signal=%d diff=", ce.Signal)
		for i := range ce.W1 {
			if ce.W1[i] != ce.W2[i] {
				// Raw limbs are canonical per field, so %v is deterministic.
				fmt.Fprintf(&b, " %d:%v|%v", i, ce.W1[i], ce.W2[i])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestSuiteDeterministicAcrossWorkerCounts pins the parallel query engine's
// central guarantee: for every circuit in the evaluation suite, the report
// (verdict, statistics, counterexample) is byte-identical whether queries
// run on one worker or eight. No wall-clock timeout is set — a timeout is
// the one documented source of nondeterminism.
func TestSuiteDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run skipped with -short")
	}
	for _, inst := range bench.Suite() {
		prog, err := inst.Compile()
		if err != nil {
			t.Errorf("%s: compile error: %v", inst.Name, err)
			continue
		}
		var reps [2]string
		for i, workers := range []int{1, 8} {
			cfg := core.Config{QuerySteps: 10_000, GlobalSteps: 100_000, Seed: 1, Workers: workers}
			reps[i] = canonicalReport(core.Analyze(prog.System, &cfg))
		}
		if reps[0] != reps[1] {
			t.Errorf("%s: report differs between 1 and 8 workers:\n--- workers=1\n%s--- workers=8\n%s",
				inst.Name, reps[0], reps[1])
		}
	}
}

// TestDigestStableAcrossCompilesAndAnalysis pins the content-address
// contract the qed2d store keys on: recompiling the same source yields the
// same digest, and analyzing a system — with any worker count — never
// perturbs it (analysis treats the system as read-only).
func TestDigestStableAcrossCompilesAndAnalysis(t *testing.T) {
	const src = `
template IsZero() {
    signal input in;
    signal output out;
    signal inv;
    inv <-- in != 0 ? 1/in : 0;
    out <== -in*inv + 1;
    in*out === 0;
}
component main = IsZero();
`
	p1, err := Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := Digest(p1.System)
	if len(d) != 64 {
		t.Fatalf("digest %q is not a hex SHA-256", d)
	}
	if d2 := Digest(p2.System); d2 != d {
		t.Fatalf("recompiling the same source changed the digest: %s vs %s", d, d2)
	}
	for _, workers := range []int{1, 8} {
		r := AnalyzeSystem(p1.System, &Config{Workers: workers, Seed: 1})
		if r.Verdict != Safe {
			t.Fatalf("workers=%d: verdict = %v (%s)", workers, r.Verdict, r.Reason)
		}
		if got := Digest(p1.System); got != d {
			t.Fatalf("workers=%d: analysis mutated the system digest: %s vs %s", workers, got, d)
		}
	}
	if Version() == "" {
		t.Fatal("Version() is empty")
	}
}
