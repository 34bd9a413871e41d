package smt

import (
	"math/rand"
	"testing"

	"qed2/internal/gen"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
)

// checkExpansionMemos installs a debugNode hook that recomputes A·B − C for
// every equation carrying an expansion memo and fails t on any difference.
// It returns the number of memos checked so far and a restore function.
func checkExpansionMemos(t *testing.T) (checked func() int, restore func()) {
	t.Helper()
	n := 0
	debugNode = func(st *state) {
		for i, e := range st.eqs {
			if e.q == nil {
				continue
			}
			n++
			if fresh := poly.MulLin(e.A, e.B).Sub(poly.QuadFromLin(e.C)); !e.q.Equal(fresh) {
				t.Fatalf("equation %d %s: memoized expansion %s, fresh %s", i, e, e.q, fresh)
			}
		}
	}
	return func() int { return n }, func() { debugNode = nil }
}

// TestExpansionMemoNeverStale solves the pattern and effort problems and
// random small-field problems with the memo check at every branching node.
func TestExpansionMemoNeverStale(t *testing.T) {
	checked, restore := checkExpansionMemos(t)
	defer restore()
	for _, c := range []struct {
		name  string
		build func() *Problem
		opts  Options
	}{
		{"shared-denominator", sharedDenominatorProblem, Options{Seed: 1}},
		{"babyadd-xout", func() *Problem { return babyAddProblem(9) }, Options{MaxSteps: 200000, Seed: 1}},
		{"babyadd-yout", func() *Problem { return babyAddProblem(10) }, Options{MaxSteps: 200000, Seed: 1}},
		{"small-field-enumeration", circleProblem, Options{Seed: 1}},
		{"proportional-square-unsat", func() *Problem { return proportionalSquareProblem(10) }, Options{Seed: 1}},
		{"proportional-square-sat", func() *Problem { return proportionalSquareProblem(18) }, Options{Seed: 1}},
		{"cross-sides", crossSidesProblem, Options{Seed: 1}},
		{"separate-denominators", separateDenominatorsProblem, Options{Seed: 1}},
		{"quad-diff-linear", quadDiffLinearProblem, Options{Seed: 1}},
		{"quad-diff-contradiction", quadDiffContradictionProblem, Options{Seed: 1}},
		{"factor-roots", factorRootsProblem, Options{Seed: 3}},
		{"derive-guard", deriveGuardProblem, Options{MaxSteps: 10_000_000, Seed: 1}},
		{"montgomery-double", montgomeryDoubleProblem, Options{MaxSteps: 100000, Seed: 1}},
		{"power-chain-budget", slowTwoCopyProblem, Options{MaxSteps: 5000, Seed: 1}},
	} {
		Solve(c.build(), &c.opts)
	}
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 400; iter++ {
		Solve(randProblem(rng, 3), &Options{Seed: int64(iter), MaxSteps: 500_000})
	}
	if checked() == 0 {
		t.Fatal("no memoized expansion reached a branching node")
	}
}

// TestExpansionMemoNeverStaleOnGenerated runs the same check over the
// two-copy slice queries of generated corpus circuits: for every non-input
// signal, its radius-2 slice with the inputs shared, as the analyzer's first
// round asks it.
func TestExpansionMemoNeverStaleOnGenerated(t *testing.T) {
	checked, restore := checkExpansionMemos(t)
	defer restore()
	queries := 0
	for seed := int64(1); seed <= 6; seed++ {
		c, err := gen.Generate(gen.Spec{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sys := c.System
		n := sys.NumSignals()
		shared := func(v int) bool { return v == r1cs.OneID || sys.Signal(v).Kind == r1cs.KindInput }
		prime := func(v int) int {
			if shared(v) {
				return v
			}
			return v + n
		}
		f := sys.Field()
		for target := 1; target < n; target++ {
			if shared(target) {
				continue
			}
			p := NewProblem(f)
			for _, ci := range sys.SliceAround(target, 2, 0).Constraints {
				k := sys.Constraint(ci)
				p.AddEq(k.A, k.B, k.C)
				p.AddEq(k.A.RenameVars(prime), k.B.RenameVars(prime), k.C.RenameVars(prime))
			}
			p.AddNeq(poly.Var(f, target).Sub(poly.Var(f, prime(target))))
			Solve(p, &Options{MaxSteps: 5000, Seed: seed})
			queries++
		}
	}
	if queries == 0 || checked() == 0 {
		t.Fatalf("%d queries, %d memos checked: the check exercised nothing", queries, checked())
	}
}
