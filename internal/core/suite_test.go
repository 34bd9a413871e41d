package core_test

import (
	"reflect"
	"testing"
	"time"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
)

// compileSuite compiles one suite instance by name.
func compileSuite(t *testing.T, name string) *r1cs.System {
	t.Helper()
	in, ok := bench.ByName(bench.Suite(), name)
	if !ok {
		t.Fatalf("suite has no %s", name)
	}
	p, err := in.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p.System
}

// TestDeterminismAcrossWorkers checks that parallel query dispatch keeps
// the analysis deterministic in the worker count: grants are reserved and
// outcomes folded in canonical order regardless of scheduling, and a round
// stops at the same deciding task, so the verdict, the counterexample and
// every Stats field agree. The instances are unsafe ones whose deciding
// query is not the last of its round.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, name := range []string{"Decoder(4)", "Decoder(32)", "Num2BitsBuggy(8)", "MultiplexerBuggy(2, 2)"} {
		sys := compileSuite(t, name)
		r1 := core.Analyze(sys, &core.Config{Seed: 7, Workers: 1})
		for _, workers := range []int{2, 8} {
			r := core.Analyze(sys, &core.Config{Seed: 7, Workers: workers})
			if r1.Verdict != r.Verdict || r1.Reason != r.Reason {
				t.Fatalf("%s: verdict differs: workers=1 (%v, %q), workers=%d (%v, %q)",
					name, r1.Verdict, r1.Reason, workers, r.Verdict, r.Reason)
			}
			if !reflect.DeepEqual(r1.Counter, r.Counter) {
				t.Fatalf("%s: counterexample differs:\nworkers=1 %+v\nworkers=%d %+v", name, r1.Counter, workers, r.Counter)
			}
			s1, s := r1.Stats, r.Stats
			s1.Workers, s.Workers = 0, 0
			s1.Duration, s.Duration = 0, 0
			if !reflect.DeepEqual(s1, s) {
				t.Fatalf("%s: stats differ:\nworkers=1 %+v\nworkers=%d %+v", name, s1, workers, s)
			}
		}
	}
}

// suiteSolver lists the suite circuits that issue SMT queries and finish
// inside the wall clock (the benchmark's suite-solver workload).
var suiteSolver = []string{
	"Num2BitsNeg(2)", "Num2BitsNeg(4)", "Num2Bits_strict()", "IsZero()", "IsEqual()",
	"Decoder(2)", "Decoder(4)", "Decoder(8)", "Decoder(16)", "Decoder(32)",
	"Edwards2Montgomery()", "Montgomery2Edwards()", "MontgomeryAdd()", "MontgomeryDouble()",
	"BabyAdd()", "BabyDbl()", "IsZeroBuggy()", "SwitcherBuggy()",
	"Num2BitsBuggy(3)", "Num2BitsBuggy(4)", "Num2BitsBuggy(6)", "Num2BitsBuggy(8)",
	"ModSumBuggy(8)", "ModSumBuggy(16)", "ModSumBuggy(32)",
	"MultiplexerBuggy(1, 2)", "MultiplexerBuggy(2, 2)",
}

// TestSolverWorkIsAccounted: at one worker every solver call the analysis
// makes is one it accounts — a round stops solving at its deciding query —
// so the solver's own counters equal the report's Queries and SolverSteps.
func TestSolverWorkIsAccounted(t *testing.T) {
	for _, name := range suiteSolver {
		sys := compileSuite(t, name)
		m := obs.NewMetrics()
		r := core.Analyze(sys, &core.Config{
			QuerySteps: 20000, GlobalSteps: 400000, Timeout: 5 * time.Second,
			Seed: 1, Workers: 1, Metrics: m,
		})
		if r.Stats.Queries == 0 {
			t.Errorf("%s: no queries; it does not belong to the solver set", name)
		}
		c := m.Counters()
		if c["smt.queries"] != int64(r.Stats.Queries) || c["smt.steps"] != r.Stats.SolverSteps {
			t.Errorf("%s: solver ran %d queries, %d steps; report accounts %d, %d",
				name, c["smt.queries"], c["smt.steps"], r.Stats.Queries, r.Stats.SolverSteps)
		}
	}
}
