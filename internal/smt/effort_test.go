package smt

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// effortPin is everything a Solve call reports about its search: the status,
// the step count and every Effort field. Any change to a search decision —
// pivot, enumeration variable, pair-derivation bucket order, candidate order —
// moves at least one of them.
type effortPin struct {
	Status Status
	Steps  int64
	Effort Effort
}

func pinOf(out Outcome) effortPin {
	return effortPin{Status: out.Status, Steps: out.Steps, Effort: out.Effort}
}

// TestSolverEffortPinned pins the exact search on the benchmark problems and
// the rule-specific problems of the pattern tests. The values were recorded
// before polynomials moved from maps to sorted slices; a representation
// change must reproduce them bit for bit.
func TestSolverEffortPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Problem
		opts  Options
		want  effortPin
	}{
		{"shared-denominator", sharedDenominatorProblem, Options{Seed: 1},
			effortPin{StatusUnsat, 8, Effort{Eliminations: 2, Branches: 2, Enumerations: 0, MaxDepth: 1}}},
		{"babyadd-xout", func() *Problem { return babyAddProblem(9) }, Options{MaxSteps: 200000, Seed: 1},
			effortPin{StatusUnsat, 14, Effort{Eliminations: 5, Branches: 2, Enumerations: 0, MaxDepth: 1}}},
		{"babyadd-yout", func() *Problem { return babyAddProblem(10) }, Options{MaxSteps: 200000, Seed: 1},
			effortPin{StatusUnknown, 1078, Effort{Eliminations: 266, Branches: 4, Enumerations: 182, MaxDepth: 4}}},
		{"small-field-enumeration", circleProblem, Options{Seed: 1},
			effortPin{StatusSat, 13, Effort{Eliminations: 4, Branches: 1, Enumerations: 3, MaxDepth: 2}}},
		{"proportional-square-unsat", func() *Problem { return proportionalSquareProblem(10) }, Options{Seed: 1},
			effortPin{StatusUnsat, 2, Effort{Eliminations: 0, Branches: 0, Enumerations: 0, MaxDepth: 0}}},
		{"proportional-square-sat", func() *Problem { return proportionalSquareProblem(18) }, Options{Seed: 1},
			effortPin{StatusSat, 4, Effort{Eliminations: 1, Branches: 1, Enumerations: 0, MaxDepth: 1}}},
		{"cross-sides", crossSidesProblem, Options{Seed: 1},
			effortPin{StatusUnsat, 8, Effort{Eliminations: 2, Branches: 2, Enumerations: 0, MaxDepth: 1}}},
		{"separate-denominators", separateDenominatorsProblem, Options{Seed: 1},
			effortPin{StatusSat, 14, Effort{Eliminations: 2, Branches: 0, Enumerations: 9, MaxDepth: 2}}},
		{"quad-diff-linear", quadDiffLinearProblem, Options{Seed: 1},
			effortPin{StatusSat, 6, Effort{Eliminations: 2, Branches: 0, Enumerations: 0, MaxDepth: 0}}},
		{"quad-diff-contradiction", quadDiffContradictionProblem, Options{Seed: 1},
			effortPin{StatusUnsat, 3, Effort{Eliminations: 0, Branches: 0, Enumerations: 0, MaxDepth: 0}}},
		{"factor-roots", factorRootsProblem, Options{Seed: 3},
			effortPin{StatusSat, 15, Effort{Eliminations: 4, Branches: 1, Enumerations: 0, MaxDepth: 1}}},
		{"derive-guard", deriveGuardProblem, Options{MaxSteps: 10_000_000, Seed: 1},
			effortPin{StatusSat, 267, Effort{Eliminations: 266, Branches: 0, Enumerations: 0, MaxDepth: 0}}},
		{"montgomery-double", montgomeryDoubleProblem, Options{MaxSteps: 100000, Seed: 1},
			effortPin{StatusSat, 30, Effort{Eliminations: 10, Branches: 4, Enumerations: 3, MaxDepth: 5}}},
		{"power-chain-budget", slowTwoCopyProblem, Options{MaxSteps: 5000, Seed: 1},
			effortPin{StatusUnknown, 5001, Effort{Eliminations: 4722, Branches: 46, Enumerations: 205, MaxDepth: 24}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := pinOf(Solve(c.build(), &c.opts)); got != c.want {
				t.Errorf("effort = %#v\nwant     %#v", got, c.want)
			}
		})
	}
}

// TestSolverEffortPinnedRandom pins the search on the 400 random small-field
// problems of TestSolverAgreesWithBruteForce: the summed effort and an FNV
// digest of every per-problem pin, so a single moved decision anywhere in
// the draw shows.
func TestSolverEffortPinnedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	var steps int64
	var total Effort
	h := fnv.New64a()
	for iter := 0; iter < 400; iter++ {
		out := Solve(randProblem(rng, 3), &Options{Seed: int64(iter), MaxSteps: 500_000})
		steps += out.Steps
		total.Eliminations += out.Effort.Eliminations
		total.Branches += out.Effort.Branches
		total.Enumerations += out.Effort.Enumerations
		total.MaxDepth = max(total.MaxDepth, out.Effort.MaxDepth)
		for _, x := range []int64{int64(out.Status), out.Steps, out.Effort.Eliminations,
			out.Effort.Branches, out.Effort.Enumerations, int64(out.Effort.MaxDepth)} {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
		}
	}
	const wantSteps, wantDigest = 4946, 0xc38705e303327cbf
	want := Effort{Eliminations: 2170, Branches: 251, Enumerations: 1401, MaxDepth: 3}
	if steps != wantSteps || total != want || h.Sum64() != wantDigest {
		t.Errorf("steps %d, effort %#v, digest %#x\nwant  %d, effort %#v, digest %#x",
			steps, total, h.Sum64(), wantSteps, want, uint64(wantDigest))
	}
}
