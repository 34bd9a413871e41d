package core_test

import (
	"testing"

	"qed2/internal/bench"
	"qed2/internal/core"
)

// TestSMTOnlyBaselinePinned pins the monolithic baseline's verdict and
// effort on three suite circuits: one whole-circuit query per output in
// output order, an early exit on the first confirmed counterexample, and a
// global step budget that runs out between two outputs' queries.
func TestSMTOnlyBaselinePinned(t *testing.T) {
	for _, tc := range []struct {
		name        string
		instance    string
		globalSteps int64
		verdict     core.Verdict
		queries     int
		steps       int64
		reason      string
	}{
		{"safe", "Num2Bits(4)", 0, core.VerdictSafe, 4, 2012, ""},
		// Decoder(4) has five outputs; the first query's counterexample is
		// confirmed, so the other four are never asked.
		{"unsafe early exit", "Decoder(4)", 0, core.VerdictUnsafe, 1, 54, ""},
		// Three queries fit in the budget (the third overshoots it by its
		// final step check); the fourth output is never dispatched.
		{"budget out between outputs", "Num2Bits(4)", 1000, core.VerdictUnknown, 3, 1001, "analysis budget exhausted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, ok := bench.ByName(bench.Suite(), tc.instance)
			if !ok {
				t.Fatalf("suite has no %s", tc.instance)
			}
			p, err := in.Compile()
			if err != nil {
				t.Fatal(err)
			}
			r := core.Analyze(p.System, &core.Config{Mode: core.ModeSMTOnly, GlobalSteps: tc.globalSteps, Seed: 1, Workers: 1})
			if r.Verdict != tc.verdict || r.Reason != tc.reason {
				t.Errorf("verdict = %v (%q), want %v (%q)", r.Verdict, r.Reason, tc.verdict, tc.reason)
			}
			if r.Stats.Queries != tc.queries || r.Stats.SolverSteps != tc.steps {
				t.Errorf("queries/steps = %d/%d, want %d/%d", r.Stats.Queries, r.Stats.SolverSteps, tc.queries, tc.steps)
			}
			if (r.Counter != nil) != (tc.verdict == core.VerdictUnsafe) {
				t.Errorf("counterexample = %+v for verdict %v", r.Counter, r.Verdict)
			}
		})
	}
}
