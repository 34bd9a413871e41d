package bench

import (
	"strings"
	"testing"
	"time"

	"qed2/internal/circom"
	"qed2/internal/core"
)

func TestSuiteShape(t *testing.T) {
	insts := Suite()
	if len(insts) != SuiteSize {
		t.Fatalf("suite has %d instances, want %d", len(insts), SuiteSize)
	}
	names := map[string]bool{}
	vulns := 0
	unsafe := 0
	for _, in := range insts {
		if names[in.Name] {
			t.Errorf("duplicate instance name %q", in.Name)
		}
		names[in.Name] = true
		if in.Vuln {
			vulns++
			if in.Expect != ExpectUnsafe {
				t.Errorf("%s marked vuln but expectation is %s", in.Name, in.Expect)
			}
		}
		if in.Expect == ExpectUnsafe {
			unsafe++
		}
	}
	// The abstract commits to 8 previously-unknown vulnerabilities.
	if vulns != 8 {
		t.Errorf("vulnerability set has %d instances, want 8", vulns)
	}
	if unsafe < 15 {
		t.Errorf("only %d unsafe ground-truth instances; the tail looks too thin", unsafe)
	}
	cats := Categories(insts)
	if len(cats) < 8 {
		t.Errorf("only %d categories: %v", len(cats), cats)
	}
	if _, ok := ByName(insts, "Num2Bits(26)"); !ok {
		t.Error("ByName failed for a known instance")
	}
	if _, ok := ByName(insts, "Zebra(1)"); ok {
		t.Error("ByName found a ghost")
	}
}

func TestInstanceSourceAssembly(t *testing.T) {
	in, _ := ByName(Suite(), "LessThan(8)")
	src := in.Source()
	for _, want := range []string{"pragma circom", `include "comparators.circom"`, "component main = LessThan(8);"} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q:\n%s", want, src)
		}
	}
}

func TestExpectationString(t *testing.T) {
	if ExpectSafe.String() != "safe" || ExpectUnsafe.String() != "unsafe" || ExpectHard.String() != "hard" {
		t.Error("Expectation strings")
	}
}

// TestSuiteVerdictsSound runs the analyzer over the full 163-instance suite
// and checks every verdict against the ground-truth labels; it also pins
// the headline numbers (every vulnerability found, solve rate).
func TestSuiteVerdictsSound(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run skipped with -short")
	}
	insts := Suite()
	results := Run(insts, &RunOptions{Config: core.Config{
		QuerySteps:  20_000,
		GlobalSteps: 400_000,
		Timeout:     5 * time.Second,
		Seed:        1,
	}})
	for _, r := range results {
		if r.CompileErr != nil {
			t.Errorf("%s: compile error: %v", r.Instance.Name, r.CompileErr)
			continue
		}
		switch v, _ := core.ParseVerdict(r.Summary.Verdict); v {
		case core.VerdictSafe:
			if r.Instance.Expect == ExpectUnsafe {
				t.Errorf("%s: UNSOUND Safe verdict on a known-unsafe circuit", r.Instance.Name)
			}
		case core.VerdictUnsafe:
			if r.Instance.Expect == ExpectSafe {
				t.Errorf("%s: UNSOUND Unsafe verdict on a known-safe circuit", r.Instance.Name)
			}
			if r.Summary.CEOutput == "" {
				t.Errorf("%s: unsafe verdict without counterexample summary", r.Instance.Name)
			}
		}
		if r.Instance.Vuln && r.Summary.Verdict != core.VerdictUnsafe.String() {
			t.Errorf("%s: vulnerability not flagged (verdict %s, %s)",
				r.Instance.Name, r.Summary.Verdict, r.Summary.Reason)
		}
	}
	tal := TallyOf(results)
	if tal.SolvedPct() < 90 {
		t.Errorf("solve rate %.1f%% below expectation", tal.SolvedPct())
	}
	if tal.Unsafe < 15 {
		t.Errorf("only %d unsafe verdicts", tal.Unsafe)
	}
	t.Logf("suite: %d safe, %d unsafe, %d unknown (%.1f%% solved)",
		tal.Safe, tal.Unsafe, tal.Unknown, tal.SolvedPct())
}

// fakeResults builds a small synthetic result set for formatter tests.
func fakeResults() []Result {
	mk := func(name, cat string, verdict core.Verdict, vuln bool, cons int, d time.Duration) Result {
		r := Result{
			Instance:    Instance{Name: name, Category: cat, Vuln: vuln, Expect: ExpectSafe},
			AnalyzeTime: d,
			Summary: core.Summary{
				Verdict: verdict.String(), Queries: 2, ByPropagation: 3, BySMT: 1,
				Constraints: cons, Signals: cons + 2,
			},
		}
		if verdict == core.VerdictUnsafe {
			r.Summary.CEOutput, r.Summary.CEValues = "out", [2]string{"0", "1"}
		}
		return r
	}
	return []Result{
		mk("A(1)", "CatX", core.VerdictSafe, false, 5, time.Millisecond),
		mk("A(2)", "CatX", core.VerdictUnknown, false, 9, 2*time.Millisecond),
		mk("B()", "CatY", core.VerdictUnsafe, true, 3, 500*time.Microsecond),
	}
}

func TestTableFormatters(t *testing.T) {
	rs := fakeResults()
	t1 := Table1(rs)
	for _, want := range []string{"CatX", "CatY", "TOTAL", "Constraints(max)"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2(rs)
	for _, want := range []string{"Solved%", "CatY", "TOTAL"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q:\n%s", want, t2)
		}
	}
	t3 := Table3(map[string][]Result{"qed2": rs}, []string{"qed2"})
	if !strings.Contains(t3, "qed2") || !strings.Contains(t3, "2/3") {
		t.Errorf("Table3 malformed:\n%s", t3)
	}
	t4 := Table4(rs)
	if !strings.Contains(t4, "B()") || !strings.Contains(t4, "out") {
		t.Errorf("Table4 missing the vulnerable circuit:\n%s", t4)
	}
	if strings.Contains(t4, "A(1)") {
		t.Errorf("Table4 includes a non-vuln circuit:\n%s", t4)
	}
	f1 := Figure1(map[string][]Result{"qed2": rs}, []string{"qed2"})
	if !strings.Contains(f1, "solved 2/3") {
		t.Errorf("Figure1 malformed:\n%s", f1)
	}
	f2 := Figure2(map[int][]Result{1: rs, 2: rs})
	if !strings.Contains(f2, "Radius") || !strings.Contains(f2, "PropFacts") {
		t.Errorf("Figure2 malformed:\n%s", f2)
	}
	f3 := Figure3(rs)
	if !strings.Contains(f3, "B()") {
		t.Errorf("Figure3 malformed:\n%s", f3)
	}
	// Figure3 sorts by constraint count: B() (3) must come before A(2) (9).
	if strings.Index(f3, "B()") > strings.Index(f3, "A(2)") {
		t.Errorf("Figure3 not sorted by size:\n%s", f3)
	}
}

func TestTallyArithmetic(t *testing.T) {
	rs := fakeResults()
	tal := TallyOf(rs)
	if tal.Total != 3 || tal.Safe != 1 || tal.Unsafe != 1 || tal.Unknown != 1 {
		t.Errorf("tally = %+v", tal)
	}
	if tal.Solved() != 2 {
		t.Errorf("Solved = %d", tal.Solved())
	}
	if pct := tal.SolvedPct(); pct < 66 || pct > 67 {
		t.Errorf("SolvedPct = %f", pct)
	}
	var empty Tally
	if empty.SolvedPct() != 0 {
		t.Error("empty tally pct")
	}
	ce := Result{CompileErr: errFake}
	tal.Add(ce)
	if tal.CompileErrors != 1 {
		t.Error("compile error not tallied")
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestRunnerParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("-short")
	}
	insts := Suite()[:12]
	cfg := core.Config{QuerySteps: 5_000, GlobalSteps: 50_000, Seed: 1}
	serial := Run(insts, &RunOptions{Config: cfg, Workers: 1})
	parallel := Run(insts, &RunOptions{Config: cfg, Workers: 4})
	for i := range insts {
		sv, pv := serial[i].Summary.Verdict, parallel[i].Summary.Verdict
		if sv != pv {
			t.Errorf("%s: serial %v != parallel %v", insts[i].Name, sv, pv)
		}
	}
}

func TestRunnerProgressCallback(t *testing.T) {
	insts := Suite()[:3]
	var calls int
	Run(insts, &RunOptions{
		Config:   core.Config{QuerySteps: 1000, GlobalSteps: 5000},
		Workers:  2,
		Progress: func(done, total int, r Result) { calls++ },
	})
	if calls != 3 {
		t.Errorf("progress calls = %d, want 3", calls)
	}
}

// TestExtendedLibraryTemplates covers library templates that are not part
// of the pinned 163-instance suite: they must compile, and the analyzer
// must never claim safety for the ladder step that inherits the Montgomery
// denominators.
func TestExtendedLibraryTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("-short")
	}
	cases := []struct {
		main      string
		neverSafe bool
	}{
		{"component main = Multiplexor2();", false},
		{"component main = BabyCheck();", false},
		{"component main = BitElementMulAny();", true},
		{"component main = MiMCFeistel(5);", false},
		{"component main = MiMCSponge(1, 5, 1);", false},
		{"component main = Bits2Num_strict();", false},
	}
	lib := Library()
	for _, c := range cases {
		src := `pragma circom 2.0.0;
include "escalarmulany.circom";
include "edwards.circom";
include "mimc.circom";
include "bitify_strict.circom";
` + c.main
		prog, err := circom.Compile(src, &circom.CompileOptions{Library: lib})
		if err != nil {
			t.Errorf("%s: compile: %v", c.main, err)
			continue
		}
		r := core.Analyze(prog.System, &core.Config{
			QuerySteps: 10_000, GlobalSteps: 100_000,
			Timeout: 5 * time.Second, Seed: 1,
		})
		if c.neverSafe && r.Verdict == core.VerdictSafe {
			t.Errorf("%s: claimed Safe but inherits the Montgomery bugs", c.main)
		}
	}
}
