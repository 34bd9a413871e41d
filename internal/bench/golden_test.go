package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qed2/internal/core"
)

func goldenFixture() *GoldenFile {
	return &GoldenFile{
		Config: goldenTestConfig(),
		Verdicts: []GoldenVerdict{
			{Name: "a", Verdict: "safe"},
			{Name: "b", Verdict: "unsafe", CEOutput: "out", CESignals: []string{"main.out", "main.tmp"}},
			{Name: "c", Verdict: "unknown"},
		},
	}
}

func TestDiffGoldenIdentical(t *testing.T) {
	diffs, degraded := DiffGolden(goldenFixture(), goldenFixture())
	if len(diffs) != 0 || len(degraded) != 0 {
		t.Fatalf("identical snapshots should not diff, got %v / %v", diffs, degraded)
	}
}

func TestDiffGoldenDetectsVerdictFlip(t *testing.T) {
	fresh := goldenFixture()
	fresh.Verdicts[0].Verdict = "unsafe"
	diffs, _ := DiffGolden(goldenFixture(), fresh)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "a: verdict flipped safe -> unsafe") {
		t.Fatalf("expected one verdict-flip diff, got %v", diffs)
	}
}

func TestDiffGoldenDegradedVerdictsAreNotFailures(t *testing.T) {
	// The Reason strings are deliberately the wrapped human-readable forms
	// core emits for mid-round cancellations and quarantines: classification
	// must come from the Degraded flag, never from parsing Reason.
	fresh := goldenFixture()
	fresh.Verdicts[0] = GoldenVerdict{Name: "a", Verdict: "unknown",
		Reason: "output main.out undecided: canceled", Degraded: "canceled"}
	fresh.Verdicts[1] = GoldenVerdict{Name: "b", Verdict: "unknown",
		Reason: "output main.out undecided: internal error: forced panic", Degraded: "internal-error"}
	diffs, degraded := DiffGolden(goldenFixture(), fresh)
	if len(diffs) != 0 {
		t.Fatalf("degraded verdicts reported as failing diffs: %v", diffs)
	}
	if len(degraded) != 2 {
		t.Fatalf("expected 2 degraded entries, got %v", degraded)
	}
	joined := strings.Join(degraded, "\n")
	if !strings.Contains(joined, "a: degraded safe -> unknown (output main.out undecided: canceled)") ||
		!strings.Contains(joined, "b: degraded unsafe -> unknown (output main.out undecided: internal error: forced panic)") {
		t.Fatalf("unexpected degraded lines: %v", degraded)
	}
	// An unknown with a budget reason and no degradation flag is still a
	// real flip — even when the reason happens to mention "canceled".
	fresh = goldenFixture()
	fresh.Verdicts[0] = GoldenVerdict{Name: "a", Verdict: "unknown", Reason: "global budget exhausted"}
	fresh.Verdicts[1] = GoldenVerdict{Name: "b", Verdict: "unknown", Reason: "a reason mentioning canceled"}
	diffs, degraded = DiffGolden(goldenFixture(), fresh)
	if len(diffs) != 2 || len(degraded) != 0 {
		t.Fatalf("unflagged unknowns should be failing flips, got %v / %v", diffs, degraded)
	}
}

func TestDiffGoldenDetectsCounterexampleChange(t *testing.T) {
	fresh := goldenFixture()
	fresh.Verdicts[1].CESignals = []string{"main.out"}
	diffs, _ := DiffGolden(goldenFixture(), fresh)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "counterexample signal set changed") {
		t.Fatalf("expected one signal-set diff, got %v", diffs)
	}
}

func TestDiffGoldenDetectsMissingAndNewInstances(t *testing.T) {
	fresh := goldenFixture()
	fresh.Verdicts[2].Name = "d"
	diffs, _ := DiffGolden(goldenFixture(), fresh)
	if len(diffs) != 2 {
		t.Fatalf("expected missing+new diffs, got %v", diffs)
	}
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "c: instance missing") || !strings.Contains(joined, "d: new instance") {
		t.Fatalf("unexpected diff content: %v", diffs)
	}
}

func TestDiffGoldenConfigMismatchFailsFast(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"seed", func(c *core.Config) { c.Seed = 2 }},
		{"smt-only", func(c *core.Config) { c.Mode = core.ModeSMTOnly }},
		{"no rules", func(c *core.Config) { c.DisableSolveRule, c.DisableBitsRule = true, true }},
	} {
		fresh := goldenFixture()
		tc.mutate(&fresh.Config)
		fresh.Verdicts[0].Verdict = "unsafe" // must be masked by the config fast-fail
		diffs, _ := DiffGolden(goldenFixture(), fresh)
		if len(diffs) != 1 || !strings.Contains(diffs[0], "config mismatch") {
			t.Errorf("%s: expected a single config-mismatch diff, got %v", tc.name, diffs)
		}
	}
}

// TestGoldenConfigStampForm pins the golden header bytes: GoldenFromResults
// writes the canonical configuration (mode and slice radius included, no
// workers or timeout), and a header written before the golden file carried
// mode and slice radius still diffs clean against it.
func TestGoldenConfigStampForm(t *testing.T) {
	cfg := goldenTestConfig()
	cfg.Timeout, cfg.Workers = 120*time.Second, 1
	g := GoldenFromResults(cfg, nil)
	b, err := json.Marshal(g.Config)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"mode":"qed2","slice_radius":2,"query_steps":20000,"global_steps":400000,"seed":1}`
	if string(b) != want {
		t.Fatalf("golden header %s, want %s", b, want)
	}
	var old GoldenFile
	if err := json.Unmarshal([]byte(`{"config":{"query_steps":20000,"global_steps":400000,"seed":1},"verdicts":[]}`), &old); err != nil {
		t.Fatal(err)
	}
	if diffs, _ := DiffGolden(&old, g); len(diffs) != 0 {
		t.Fatalf("pre-stamp golden header does not diff clean: %v", diffs)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	g := goldenFixture()
	b, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs, _ := DiffGolden(g, back); len(diffs) != 0 {
		t.Fatalf("round trip changed the snapshot: %v", diffs)
	}
}

func TestCheckedInGoldenMatchesSuite(t *testing.T) {
	// The checked-in golden file must cover exactly the current suite plus
	// the pinned corpus manifest with the default budgets; otherwise the CI
	// gate reports noise instead of regressions. This does not run the
	// suite (that is CI's golden job) — it only validates shape.
	path := filepath.Join("..", "..", "testdata", "golden_verdicts.json")
	g, err := LoadGolden(path)
	if err != nil {
		t.Skipf("no checked-in golden file: %v", err)
	}
	want := goldenTestConfig()
	if got := g.Config.Stamp(); got != want.Stamp() {
		t.Fatalf("golden config %s does not pin the default budgets %s", got, want.Stamp())
	}
	insts := Suite()
	corpus, err := LoadCorpus(filepath.Join("..", "..", "testdata", "corpus", "manifest.json"))
	if err != nil {
		t.Fatalf("loading pinned corpus manifest: %v", err)
	}
	insts = append(insts, corpus...)
	if len(g.Verdicts) != len(insts) {
		t.Fatalf("golden file has %d instances, suite+corpus has %d — regenerate with -corpus testdata/corpus/manifest.json -golden-out",
			len(g.Verdicts), len(insts))
	}
	names := InstanceNames(insts)
	for _, v := range g.Verdicts {
		if !names[v.Name] {
			t.Errorf("golden instance %q not in suite or corpus", v.Name)
		}
		switch v.Verdict {
		case "safe", "unsafe", "unknown":
		default:
			t.Errorf("golden instance %q has unexpected verdict %q", v.Name, v.Verdict)
		}
	}
}

func TestCompareBaseline(t *testing.T) {
	mk := func(ms float64) *RunRecord {
		return &RunRecord{Sections: []SectionRecord{{Name: "run:full", AnalyzeMS: ms}}}
	}
	if err := CompareBaseline(mk(1000), mk(1500), 2.0); err != nil {
		t.Fatalf("1.5x should pass a 2x guard: %v", err)
	}
	if err := CompareBaseline(mk(1000), mk(2500), 2.0); err == nil {
		t.Fatal("2.5x should fail a 2x guard")
	}
	if err := CompareBaseline(&RunRecord{}, mk(10), 2.0); err == nil {
		t.Fatal("missing run:full section in baseline should error")
	}
}

// TestRunRecordReadsCheckedInBaseline: CI's bench guard compares a fresh
// run record against the checked-in bench_table2.json, which predates the
// embedded "config" object. The old file must still load with its run:full
// section intact, and a record in the current format must round-trip its
// configuration and pass the guard against it.
func TestRunRecordReadsCheckedInBaseline(t *testing.T) {
	base, err := LoadRunRecord(filepath.Join("..", "..", "bench_table2.json"))
	if err != nil {
		t.Fatal(err)
	}
	full := base.Section("run:full")
	if full == nil || full.Instances != SuiteSize || len(full.Results) != SuiteSize || full.AnalyzeMS <= 0 {
		t.Fatalf("bench_table2.json run:full section not read back: %+v", full)
	}

	cfg := core.Config{QuerySteps: 20000, GlobalSteps: 400000, Timeout: 5 * time.Second, Seed: 1, Workers: 1}
	rec := NewRunRecord(SuiteSize, 1, cfg)
	if rec.Config.SliceRadius == 0 || rec.Config.Timeout != cfg.Timeout || rec.Config.Workers != 1 {
		t.Fatalf("recorded config = %+v: want defaults applied, timeout and workers kept", rec.Config)
	}
	rec.Sections = append(rec.Sections, SectionRecord{Name: "run:full", AnalyzeMS: full.AnalyzeMS})
	b, err := rec.Finish(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Config.Stamp() != rec.Config.Stamp() || fresh.Config.Timeout != cfg.Timeout || fresh.Config.Workers != 1 {
		t.Fatalf("config round trip = %+v, want %+v", fresh.Config, rec.Config)
	}
	if err := CompareBaseline(base, fresh, 1.5); err != nil {
		t.Fatalf("guard against bench_table2.json: %v", err)
	}
}
