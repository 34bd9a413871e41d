package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"qed2/internal/circom"
	"qed2/internal/ff"
	"qed2/internal/obs"
	"qed2/internal/poly"
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

func analyze(t testing.TB, src string, cfg *Config) *Report {
	t.Helper()
	p := compile(t, src)
	return Analyze(p.System, cfg)
}

const isZeroSafe = `
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

const isZeroBuggy = `
template IsZeroBuggy() {
    signal input in;
    signal output out;
    signal inv;
    inv <-- in != 0 ? 1/in : 0;
    out <== -in*inv + 1;
    // BUG: missing in*out === 0;
}
component main = IsZeroBuggy();
`

func TestAnalyzeMultiplierSafe(t *testing.T) {
	r := analyze(t, `
template Mul() {
    signal input a;
    signal input b;
    signal output c;
    c <== a*b;
}
component main = Mul();
`, nil)
	if r.Verdict != VerdictSafe {
		t.Fatalf("verdict = %v (%s)", r.Verdict, r.Reason)
	}
	// Propagation alone should have resolved it: zero SMT queries.
	if r.Stats.Queries != 0 {
		t.Errorf("queries = %d, want 0 (pure propagation)", r.Stats.Queries)
	}
}

func TestAnalyzeIsZeroSafe(t *testing.T) {
	r := analyze(t, isZeroSafe, nil)
	if r.Verdict != VerdictSafe {
		t.Fatalf("verdict = %v (%s)", r.Verdict, r.Reason)
	}
	if r.Stats.Queries == 0 {
		t.Error("expected SMT queries for IsZero (propagation alone cannot finish it)")
	}
	if r.Stats.SMTUnique == 0 {
		t.Error("expected at least one SMT-proven signal")
	}
}

func TestAnalyzeIsZeroBuggyUnsafe(t *testing.T) {
	p := compile(t, isZeroBuggy)
	r := Analyze(p.System, nil)
	if r.Verdict != VerdictUnsafe {
		t.Fatalf("verdict = %v (%s)", r.Verdict, r.Reason)
	}
	ce := r.Counter
	if ce == nil {
		t.Fatal("unsafe verdict without counterexample")
	}
	// The counterexample must be genuinely checkable.
	if err := p.System.CheckWitness(ce.W1); err != nil {
		t.Errorf("W1 invalid: %v", err)
	}
	if err := p.System.CheckWitness(ce.W2); err != nil {
		t.Errorf("W2 invalid: %v", err)
	}
	if !r1cs.AgreeOn(ce.W1, ce.W2, p.System.Inputs()) {
		t.Error("witnesses disagree on inputs")
	}
	if ce.W1[ce.Signal] == ce.W2[ce.Signal] {
		t.Error("witnesses agree on the flagged output")
	}
	if p.System.Signal(ce.Signal).Kind != r1cs.KindOutput {
		t.Error("flagged signal is not an output")
	}
	// The summary names the output, its two values and every differing
	// signal in ID order, and carries the stats the tables read.
	s := r.Summary(p.System)
	f := p.System.Field()
	if s.Verdict != "unsafe" || s.CEOutput != p.System.Name(ce.Signal) ||
		s.CEValues != [2]string{f.String(ce.W1[ce.Signal]), f.String(ce.W2[ce.Signal])} {
		t.Errorf("summary = %+v", s)
	}
	var differ []string
	for id := 1; id < p.System.NumSignals(); id++ {
		if ce.W1[id] != ce.W2[id] {
			differ = append(differ, p.System.Name(id))
		}
	}
	if !reflect.DeepEqual(s.CESignals, differ) {
		t.Errorf("ce_signals = %v, want %v", s.CESignals, differ)
	}
	if s.Signals != r.Stats.SignalsTotal || s.Constraints != r.Stats.Constraints || s.Workers != r.Stats.Workers ||
		s.Queries != r.Stats.Queries || s.ByPropagation != r.Stats.PropagationUnique || s.BySMT != r.Stats.SMTUnique {
		t.Errorf("summary stats = %+v, report stats = %+v", s, r.Stats)
	}
}

const decoderBuggy = `
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
component main = Decoder(4);
`

func TestAnalyzeDecoderUnsafe(t *testing.T) {
	// circomlib's Decoder is genuinely under-constrained: the all-zeros
	// output with success=0 is accepted for any input.
	r := analyze(t, decoderBuggy, nil)
	if r.Verdict != VerdictUnsafe {
		t.Fatalf("verdict = %v (%s)", r.Verdict, r.Reason)
	}
}

func TestAnalyzeNum2BitsSafe(t *testing.T) {
	r := analyze(t, `
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
component main = Num2Bits(6);
`, nil)
	// Bit decompositions are unique... as long as 2^n < p; the analysis
	// must prove it (this requires reasoning across the boolean bits).
	if r.Verdict == VerdictUnsafe {
		t.Fatalf("Num2Bits flagged unsafe: %+v", r.Counter)
	}
	if r.Verdict != VerdictSafe {
		t.Logf("Num2Bits verdict = %v (%s) — acceptable but weaker", r.Verdict, r.Reason)
	}
}

func TestModePropagationOnly(t *testing.T) {
	// Linear circuit: propagation suffices.
	r := analyze(t, `
template Lin() {
    signal input a;
    signal output b;
    b <== 3*a + 5;
}
component main = Lin();
`, &Config{Mode: ModePropagationOnly})
	if r.Verdict != VerdictSafe || r.Stats.Queries != 0 {
		t.Fatalf("verdict=%v queries=%d", r.Verdict, r.Stats.Queries)
	}
	// IsZero needs SMT: propagation-only must say Unknown, never Unsafe.
	r = analyze(t, isZeroBuggy, &Config{Mode: ModePropagationOnly})
	if r.Verdict != VerdictUnknown {
		t.Fatalf("propagation-only on buggy circuit = %v, want unknown", r.Verdict)
	}
	if r.Reason == "" {
		t.Error("unknown verdict lacks a reason")
	}
}

func TestModeSMTOnly(t *testing.T) {
	r := analyze(t, isZeroSafe, &Config{Mode: ModeSMTOnly})
	if r.Verdict != VerdictSafe {
		t.Fatalf("smt-only on IsZero = %v (%s)", r.Verdict, r.Reason)
	}
	r = analyze(t, isZeroBuggy, &Config{Mode: ModeSMTOnly})
	if r.Verdict != VerdictUnsafe {
		t.Fatalf("smt-only on buggy IsZero = %v (%s)", r.Verdict, r.Reason)
	}
}

func TestBudgetYieldsUnknown(t *testing.T) {
	r := analyze(t, isZeroSafe, &Config{GlobalSteps: 1})
	if r.Verdict != VerdictUnknown {
		t.Fatalf("verdict = %v under 1-step budget", r.Verdict)
	}
	if r.Reason == "" {
		t.Error("no reason for unknown")
	}
}

func TestDeterminism(t *testing.T) {
	p := compile(t, decoderBuggy)
	r1 := Analyze(p.System, &Config{Seed: 7})
	r2 := Analyze(p.System, &Config{Seed: 7})
	if r1.Verdict != r2.Verdict || r1.Stats.Queries != r2.Stats.Queries {
		t.Errorf("non-deterministic: %v/%d vs %v/%d", r1.Verdict, r1.Stats.Queries, r2.Verdict, r2.Stats.Queries)
	}
}

func TestFreeOutputUnsafe(t *testing.T) {
	// An output mentioned in no constraint is trivially non-unique.
	f97 := ff.MustField(big.NewInt(97))
	sys := r1cs.NewSystem(f97)
	a := sys.AddSignal("a", r1cs.KindInput)
	sys.AddSignal("free", r1cs.KindOutput)
	sys.AddConstraint(poly.Var(f97, a), poly.ConstInt(f97, 1), poly.Var(f97, a), "id")
	r := Analyze(sys, nil)
	if r.Verdict != VerdictUnsafe {
		t.Fatalf("free output verdict = %v (%s)", r.Verdict, r.Reason)
	}
}

// TestStaticPrePassOnlyPrunes checks that core's pre-pass labels the
// constraint graph (the sa.graph span) and runs nothing else of internal/sa:
// no abstract interpretation (sa.analyze, sa.absint, the sa.outputs.*
// counters) and no lint detectors (sa.detect, sa.findings). IsZeroBuggy has
// a `<--` hint, so a pass that still ran the detectors would find something.
func TestStaticPrePassOnlyPrunes(t *testing.T) {
	var trace bytes.Buffer
	tr := obs.New(&trace)
	m := obs.NewMetrics()
	r := analyze(t, isZeroBuggy, &Config{Seed: 1, Obs: tr, Metrics: m})
	if r.Verdict != VerdictUnsafe {
		t.Fatalf("verdict = %v, want unsafe", r.Verdict)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		var ev struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		spans[ev.Name] = true
	}
	if !spans["sa.graph"] {
		t.Error("trace has no sa.graph span")
	}
	for _, unwanted := range []string{"sa.analyze", "sa.absint", "sa.detect"} {
		if spans[unwanted] {
			t.Errorf("core.Analyze trace has an %s span", unwanted)
		}
	}
	for name, n := range m.Counters() {
		if strings.HasPrefix(name, "sa.") {
			t.Errorf("core.Analyze counted %d %s", n, name)
		}
	}
}

func TestVerdictAndModeStrings(t *testing.T) {
	if VerdictSafe.String() != "safe" || VerdictUnsafe.String() != "unsafe" ||
		VerdictUnknown.String() != "unknown" || Verdict(9).String() == "" {
		t.Error("Verdict strings")
	}
	if ModeFull.String() != "qed2" || ModePropagationOnly.String() != "propagation-only" ||
		ModeSMTOnly.String() != "smt-only" || Mode(9).String() == "" {
		t.Error("Mode strings")
	}
}

// --- soundness property test ------------------------------------------------------

// outputsUniqueBrute decides ground-truth output-uniqueness of a small
// system over a tiny field by exhaustive enumeration. Returns
// (allOutputsUnique, someOutputNonUnique-with-two-witnesses).
func outputsUniqueBrute(sys *r1cs.System) (bool, bool) {
	f := sys.Field()
	p := int64(f.SmallModulus())
	n := sys.NumSignals()
	total := int64(1)
	for i := 1; i < n; i++ {
		total *= p
	}
	type rec struct{ outs []string }
	byInput := map[string][]rec{}
	w := sys.NewWitness()
	for enc := int64(0); enc < total; enc++ {
		v := enc
		for i := 1; i < n; i++ {
			w[i] = f.NewElement(v % p)
			v /= p
		}
		if sys.CheckWitness(w) != nil {
			continue
		}
		var ik []byte
		for _, in := range sys.Inputs() {
			ik = append(ik, byte('0'+f.ToBig(w[in]).Int64()))
		}
		var outs []string
		for _, o := range sys.Outputs() {
			outs = append(outs, f.String(w[o]))
		}
		byInput[string(ik)] = append(byInput[string(ik)], rec{outs: outs})
	}
	unique := true
	nonUnique := false
	for _, recs := range byInput {
		for i := 1; i < len(recs); i++ {
			for j, v := range recs[i].outs {
				if v != recs[0].outs[j] {
					unique = false
					nonUnique = true
				}
			}
		}
	}
	return unique, nonUnique
}

func TestAnalyzerSoundnessRandomSmallField(t *testing.T) {
	f5 := ff.MustField(big.NewInt(5))
	rng := rand.New(rand.NewSource(4242))
	decided := 0
	for iter := 0; iter < 120; iter++ {
		sys := r1cs.NewSystem(f5)
		sys.AddSignal("", r1cs.KindInput)
		sys.AddSignal("", r1cs.KindInternal)
		sys.AddSignal("", r1cs.KindOutput)
		if rng.Intn(2) == 0 {
			sys.AddSignal("", r1cs.KindOutput)
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
		gotUnique, gotNonUnique := outputsUniqueBrute(sys)
		r := Analyze(sys, &Config{Seed: int64(iter)})
		switch r.Verdict {
		case VerdictSafe:
			if !gotUnique {
				t.Fatalf("iter %d: UNSOUND Safe verdict\n%s", iter, sys.MarshalText())
			}
			decided++
		case VerdictUnsafe:
			if !gotNonUnique {
				t.Fatalf("iter %d: UNSOUND Unsafe verdict\n%s", iter, sys.MarshalText())
			}
			decided++
		}
	}
	if decided < 90 {
		t.Errorf("analyzer decided only %d/120 random small-field circuits", decided)
	}
}

func TestRuleAblationConfigs(t *testing.T) {
	// Num2Bits-style circuit: with R-Bits the verdict is Safe with zero
	// queries; without it the analyzer must fall back to SMT.
	src := `
template Bits() {
    signal input in;
    signal output out[4];
    var lc = 0;
    var e2 = 1;
    for (var i = 0; i < 4; i++) {
        out[i] <-- (in >> i) & 1;
        out[i] * (out[i] - 1) === 0;
        lc += out[i] * e2;
        e2 = e2 + e2;
    }
    lc === in;
}
component main = Bits();
`
	p := compile(t, src)
	full := Analyze(p.System, &Config{Seed: 1})
	if full.Verdict != VerdictSafe || full.Stats.Queries != 0 || full.Stats.BitsUnique != 4 {
		t.Fatalf("full: verdict=%v queries=%d bits=%d", full.Verdict, full.Stats.Queries, full.Stats.BitsUnique)
	}
	noBits := Analyze(p.System, &Config{Seed: 1, DisableBitsRule: true})
	if noBits.Stats.BitsUnique != 0 {
		t.Errorf("noBits still used R-Bits")
	}
	if noBits.Verdict == VerdictUnsafe {
		t.Errorf("ablation produced an unsound unsafe verdict")
	}
	if noBits.Verdict == VerdictSafe && noBits.Stats.Queries == 0 {
		t.Errorf("noBits proved safety without queries — rule not disabled?")
	}
	noRules := Analyze(p.System, &Config{Seed: 1, DisableBitsRule: true, DisableSolveRule: true})
	if noRules.Stats.PropagationUnique != 0 {
		t.Errorf("noRules still propagated %d facts", noRules.Stats.PropagationUnique)
	}
	if noRules.Verdict == VerdictUnsafe {
		t.Errorf("noRules produced an unsound unsafe verdict")
	}
}

func TestTimeoutConfig(t *testing.T) {
	p := compile(t, isZeroSafe)
	r := Analyze(p.System, &Config{Timeout: time.Nanosecond})
	if r.Verdict != VerdictUnknown {
		t.Fatalf("verdict under 1ns timeout = %v", r.Verdict)
	}
}

func TestSliceRadiusConfig(t *testing.T) {
	// A long multiplication chain where out needs info from far away:
	// radius must change the number of constraints per query but not
	// soundness of the outcome.
	src := `
template Chain() {
    signal input a;
    signal output o;
    signal m1;
    signal m2;
    signal m3;
    m1 <== a * a;
    m2 <== m1 * a;
    m3 <== m2 * a;
    o <== m3 * a;
}
component main = Chain();
`
	p := compile(t, src)
	for _, radius := range []int{1, 2, 4} {
		r := Analyze(p.System, &Config{SliceRadius: radius, Seed: 1})
		if r.Verdict != VerdictSafe {
			t.Errorf("radius %d: verdict = %v (%s)", radius, r.Verdict, r.Reason)
		}
	}
}

func TestSMTOnlyBudgetExhaustion(t *testing.T) {
	p := compile(t, isZeroSafe)
	r := Analyze(p.System, &Config{Mode: ModeSMTOnly, GlobalSteps: 1})
	if r.Verdict != VerdictUnknown || r.Reason == "" {
		t.Fatalf("verdict=%v reason=%q", r.Verdict, r.Reason)
	}
}

// slowChainSystem builds o^L = a over F_4093 as a multiplication chain
// (o·o = t₁, t₁·o = t₂, …, t_{L−2}·o = a). With gcd(L, 4092) = 1 the power
// map is a bijection, so every output is in fact unique — but proving it
// requires the solver to enumerate both copies of the chain (millions of
// branches), making the analysis take seconds without a deadline.
func slowChainSystem(t testing.TB) *r1cs.System {
	t.Helper()
	f := ff.MustField(big.NewInt(4093))
	sys := r1cs.NewSystem(f)
	a := sys.AddSignal("a", r1cs.KindInput)
	o := sys.AddSignal("o", r1cs.KindOutput)
	const L = 25
	prev := o
	for i := 1; i < L; i++ {
		next := a
		if i < L-1 {
			next = sys.AddSignal("", r1cs.KindInternal)
		}
		sys.AddConstraint(poly.Var(f, prev), poly.Var(f, o), poly.Var(f, next), "")
		prev = next
	}
	return sys
}

// TestTimeoutEnforcedInsideQuery is the regression test for the deadline
// bugfix: Config.Timeout used to be checked only between queries, so a
// single slow query would overshoot the budget by seconds. The deadline is
// now threaded into the solver's step loop; the analysis must return
// promptly even though its queries would individually run for seconds.
func TestTimeoutEnforcedInsideQuery(t *testing.T) {
	sys := slowChainSystem(t)
	t0 := time.Now()
	r := Analyze(sys, &Config{
		Timeout:     50 * time.Millisecond,
		QuerySteps:  1 << 40, // step budgets must not be what saves us
		GlobalSteps: 1 << 40,
		Seed:        1,
	})
	elapsed := time.Since(t0)
	if elapsed > 2*time.Second {
		t.Fatalf("timeout not enforced inside the query: analysis took %s", elapsed)
	}
	if r.Verdict != VerdictUnknown {
		t.Fatalf("verdict = %v (%s), want unknown under a 50ms budget", r.Verdict, r.Reason)
	}
	if r.Reason == "" {
		t.Error("unknown verdict lacks a reason")
	}
}
