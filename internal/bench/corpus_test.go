package bench

import (
	"strings"
	"testing"

	"qed2/internal/core"
	"qed2/internal/gen"
)

// TestCorpusInstanceCompile checks the manifest-entry adapter: generation
// through the Instance.Compile path, name/label plumbing, and the stale-
// label defense.
func TestCorpusInstanceCompile(t *testing.T) {
	m, err := gen.BuildManifest(500, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range CorpusInstances(m) {
		prog, err := in.Compile()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if prog.System.NumConstraints() == 0 {
			t.Errorf("%s: empty system", in.Name)
		}
		if len(prog.OutputNames) == 0 {
			t.Errorf("%s: no outputs", in.Name)
		}
		if in.CorpusLabel == "" {
			t.Errorf("%s: missing corpus label", in.Name)
		}
	}
	// A stale manifest label must fail generation, not mislabel the run.
	stale := m.Instances[0]
	stale.Label = map[string]string{
		gen.ProfileSafe:   gen.ProfileUnsafe,
		gen.ProfileUnsafe: gen.ProfileSafe,
	}[stale.Label]
	if stale.Label == "" {
		stale.Label = gen.ProfileSafe
	}
	if _, err := CorpusInstance(stale).Compile(); err == nil || !strings.Contains(err.Error(), "regenerate the corpus") {
		t.Errorf("stale label compiled without error (err=%v)", err)
	}
}

// TestCorpusAnalysisSmoke analyzes a handful of corpus instances end to
// end and checks the verdicts against the generator's ground truth: no
// unsound outcomes, and the planted easy bugs actually found.
func TestCorpusAnalysisSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus analysis skipped with -short")
	}
	var insts []Instance
	for seed := int64(0); len(insts) < 8; seed++ {
		c, err := gen.Generate(gen.Spec{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if c.Label == gen.LabelUnknown {
			continue // exercised (expensively) by the golden corpus run
		}
		insts = append(insts, CorpusInstance(gen.ManifestEntry{
			Name: c.Name, Seed: seed, Profile: c.Label.String(), Label: c.Label.String(),
		}))
	}
	results := Run(insts, &RunOptions{Config: goldenTestConfig()})
	gt := CheckGroundTruth(results)
	if gt.Checked != len(insts) {
		t.Fatalf("checked %d results, want %d", gt.Checked, len(insts))
	}
	if len(gt.Violations) != 0 {
		t.Errorf("ground-truth violations: %v", gt.Violations)
	}
	if len(gt.Misses) != 0 {
		t.Errorf("planted bugs missed: %v", gt.Misses)
	}
}

// TestCheckGroundTruthClassification pins the violation/miss taxonomy on
// synthetic results.
func TestCheckGroundTruthClassification(t *testing.T) {
	mk := func(label string, verdict core.Verdict) Result {
		return Result{
			Instance: Instance{Name: label + "/" + verdict.String(), CorpusLabel: label},
			Summary:  core.Summary{Verdict: verdict.String(), Reason: "r"},
		}
	}
	results := []Result{
		mk(gen.ProfileSafe, core.VerdictSafe),                                                // ok
		mk(gen.ProfileSafe, core.VerdictUnknown),                                             // ok (incomplete, not unsound)
		mk(gen.ProfileSafe, core.VerdictUnsafe),                                              // violation
		mk(gen.ProfileUnsafe, core.VerdictUnsafe),                                            // ok
		mk(gen.ProfileUnsafe, core.VerdictSafe),                                              // violation
		mk(gen.ProfileUnsafe, core.VerdictUnknown),                                           // miss
		mk(gen.ProfileUnknown, core.VerdictUnknown),                                          // ok
		mk(gen.ProfileUnknown, core.VerdictUnsafe),                                           // ok (completeness win)
		mk(gen.ProfileUnknown, core.VerdictSafe),                                             // violation
		{Instance: Instance{Name: "suite-instance"}, Summary: core.Summary{Verdict: "safe"}}, // skipped
	}
	gt := CheckGroundTruth(results)
	if gt.Checked != 9 {
		t.Errorf("Checked = %d, want 9", gt.Checked)
	}
	if len(gt.Violations) != 3 {
		t.Errorf("Violations = %v, want 3 entries", gt.Violations)
	}
	if len(gt.Misses) != 1 {
		t.Errorf("Misses = %v, want 1 entry", gt.Misses)
	}
}
