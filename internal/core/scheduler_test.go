package core

import (
	"context"
	"math/big"
	"reflect"
	"testing"

	"qed2/internal/ff"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
	"qed2/internal/smt"
)

// TestCacheDoesNotReplayResourceLimitedUnknowns is the regression test for
// the memo-cache policy: an Unknown produced by a resource limit (step
// budget, deadline, cancellation, injected fault) describes the grant it
// ran under, not the problem, so it must never be replayed — otherwise a
// budget-starved first query would poison every well-funded re-query of
// the same slice signature. Deterministic unknowns and decided outcomes
// stay cacheable.
func TestCacheDoesNotReplayResourceLimitedUnknowns(t *testing.T) {
	limited := smt.Outcome{Status: smt.StatusUnknown, Reason: "step budget exhausted", ResourceLimited: true}
	deterministic := smt.Outcome{Status: smt.StatusUnknown, Reason: "incomplete enumeration"}
	quarantined := smt.Outcome{Status: smt.StatusUnknown, Reason: "internal error: recovered panic"}
	for _, tc := range []struct {
		name string
		out  smt.Outcome
		want bool
	}{
		{"sat", smt.Outcome{Status: smt.StatusSat}, true},
		{"unsat", smt.Outcome{Status: smt.StatusUnsat}, true},
		{"resource-limited unknown", limited, false},
		{"deterministic unknown", deterministic, true},
		{"quarantined unknown", quarantined, false},
	} {
		if got := cacheable(tc.out); got != tc.want {
			t.Errorf("cacheable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}

	// End to end through admit/accountTask: a resource-limited unknown is
	// not retained, so the re-admitted identical slice misses the cache and
	// gets a fresh grant; a deterministic unknown is retained and replayed.
	p := compile(t, isZeroBuggy)
	a := newTestAnalysis(p.System, Config{}, context.Background(), nil)
	snap := a.prop.Snapshot()

	task := admitTasks(a, snap)[0]
	if task.cached || task.key == "" {
		t.Fatalf("first admit: cached=%v key=%q", task.cached, task.key)
	}
	task.ran = true
	task.out = limited
	a.accountTask(task)
	if len(a.cache) != 0 {
		t.Fatalf("resource-limited unknown was cached: %v", a.cache)
	}
	retry := admitTasks(a, snap)[0]
	if retry.cached {
		t.Fatal("re-query of a budget-starved slice was answered from the cache")
	}

	retry.ran = true
	retry.out = deterministic
	a.accountTask(retry)
	if len(a.cache) != 1 {
		t.Fatalf("deterministic unknown not cached: %v", a.cache)
	}
	replay := admitTasks(a, snap)[0]
	if !replay.cached || replay.out.Reason != deterministic.Reason {
		t.Fatalf("deterministic unknown not replayed: cached=%v out=%+v", replay.cached, replay.out)
	}
}

// TestCacheKeysIsomorphicDisjointSlices pins the satellite audit of the
// cache-hit path: cached outcomes are replayed verbatim, models included,
// with no variable remapping. That is sound only because the slice
// signature pins the target signal ID — two structurally isomorphic slices
// over disjoint signal ranges (the same gadget instantiated twice) must
// therefore get different keys.
func TestCacheKeysIsomorphicDisjointSlices(t *testing.T) {
	f97 := ff.MustField(big.NewInt(97))
	sys := r1cs.NewSystem(f97)
	c := sys.AddSignal("c", r1cs.KindInput)
	d := sys.AddSignal("d", r1cs.KindInput)
	x := sys.AddSignal("x", r1cs.KindOutput)
	y := sys.AddSignal("y", r1cs.KindOutput)
	// Two disjoint, structurally identical gadgets: x² = c and y² = d.
	sys.AddConstraint(poly.Var(f97, x), poly.Var(f97, x), poly.Var(f97, c), "")
	sys.AddConstraint(poly.Var(f97, y), poly.Var(f97, y), poly.Var(f97, d), "")

	a := newTestAnalysis(sys, Config{}, context.Background(), nil)
	snap := a.prop.Snapshot()
	slX := sys.SliceAround(x, a.cfg.SliceRadius, a.cfg.MaxSliceConstraints)
	slY := sys.SliceAround(y, a.cfg.SliceRadius, a.cfg.MaxSliceConstraints)
	keyX := sliceKey(x, slX.Constraints, slX.Signals, snap)
	keyY := sliceKey(y, slY.Constraints, slY.Signals, snap)
	if keyX == keyY {
		t.Fatalf("isomorphic disjoint slices share a cache key %q — a cached model would be replayed across signal ranges", keyX)
	}
	if len(slX.Constraints) != len(slY.Constraints) || len(slX.Signals) != len(slY.Signals) {
		t.Fatalf("test premise broken: slices are not isomorphic (%d/%d cons, %d/%d sigs)",
			len(slX.Constraints), len(slY.Constraints), len(slX.Signals), len(slY.Signals))
	}

	// The full analysis must flag the square gadgets (x and −x share c=x²)
	// with a counterexample that is valid on its own signal range.
	r := Analyze(sys, &Config{Seed: 1})
	if r.Verdict != VerdictUnsafe || r.Counter == nil {
		t.Fatalf("verdict = %v (%s)", r.Verdict, r.Reason)
	}
	if err := sys.CheckWitness(r.Counter.W1); err != nil {
		t.Errorf("W1 invalid: %v", err)
	}
	if err := sys.CheckWitness(r.Counter.W2); err != nil {
		t.Errorf("W2 invalid: %v", err)
	}
	if r.Counter.W1[r.Counter.Signal] == r.Counter.W2[r.Counter.Signal] {
		t.Error("counterexample witnesses agree on the flagged signal")
	}
}

// TestDeterminismAcrossWorkers checks that parallel query dispatch keeps
// the analysis deterministic in the worker count: grants are reserved and
// results folded in canonical order regardless of scheduling, so the
// verdict, the counterexample and every Stats field agree.
func TestDeterminismAcrossWorkers(t *testing.T) {
	p := compile(t, decoderBuggy)
	r1 := Analyze(p.System, &Config{Seed: 7, Workers: 1})
	r8 := Analyze(p.System, &Config{Seed: 7, Workers: 8})
	if r1.Verdict != r8.Verdict || r1.Reason != r8.Reason {
		t.Fatalf("verdict differs: (%v, %q) vs (%v, %q)", r1.Verdict, r1.Reason, r8.Verdict, r8.Reason)
	}
	if !reflect.DeepEqual(r1.Counter, r8.Counter) {
		t.Fatalf("counterexample differs:\nworkers=1 %+v\nworkers=8 %+v", r1.Counter, r8.Counter)
	}
	s1, s8 := r1.Stats, r8.Stats
	s1.Workers, s8.Workers = 0, 0
	s1.Duration, s8.Duration = 0, 0
	if !reflect.DeepEqual(s1, s8) {
		t.Fatalf("stats differ:\nworkers=1 %+v\nworkers=8 %+v", s1, s8)
	}
}
