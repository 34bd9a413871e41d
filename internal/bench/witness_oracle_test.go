package bench

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// TestHonestWitnessOracle checks the front-end from the constraint side:
// for in-range inputs, the witness program a circuit compiles to must
// produce a witness its own constraints accept. Each suite instance gets 8
// seeded 0/1 input vectors, drawn in suite order from one generator. Two
// failures are legitimate and counted:
//
//   - the generator stops on an input outside the template's domain: a
//     failed `assert`, or a division by zero (the Montgomery and Edwards
//     formulas at degenerate points, e.g. two points with equal x);
//   - AliasCheck() rejects its 254-bit input vector when it denotes a value
//     ≥ p, which is exactly what the template exists to do.
//
// Any other generator error or constraint rejection fails the test. (The
// draws never enable ForceEqualIfEnabled on unequal inputs, which its
// constraints would rightly reject too.) The counts are pinned, so an
// evaluator rewrite that silently changes which witnesses the generator
// builds shows up here.
func TestHonestWitnessOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the whole suite")
	}
	const trials = 8
	rng := rand.New(rand.NewSource(1))
	accepted, genFails, aliasRejects := 0, 0, 0
	for _, inst := range Suite() {
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		names := prog.SortedInputNames()
		for trial := 0; trial < trials; trial++ {
			inputs := make(map[string]*big.Int, len(names))
			for _, n := range names {
				inputs[n] = big.NewInt(int64(rng.Intn(2)))
			}
			w, err := prog.GenerateWitness(inputs)
			switch {
			case err != nil && (strings.Contains(err.Error(), "assertion failed") || strings.Contains(err.Error(), "division by zero")):
				genFails++
				continue
			case err != nil:
				t.Errorf("%s trial %d: witness generation: %v", inst.Name, trial, err)
				continue
			}
			cerr := prog.System.CheckWitness(w)
			if cerr == nil {
				accepted++
				continue
			}
			if inst.Name == "AliasCheck()" && bitsValue(inputs, "in", 254).Cmp(prog.System.Field().Modulus()) >= 0 {
				aliasRejects++
				continue
			}
			t.Errorf("%s trial %d: honest witness rejected: %v", inst.Name, trial, cerr)
		}
	}
	t.Logf("%d accepted, %d generator failures, %d AliasCheck rejections", accepted, genFails, aliasRejects)
	if accepted != 1285 || genFails != 16 || aliasRejects != 3 {
		t.Errorf("got %d accepted, %d generator failures, %d AliasCheck rejections; want 1285, 16, 3",
			accepted, genFails, aliasRejects)
	}
}

// bitsValue reads the little-endian bit vector name[0..n-1] from inputs.
func bitsValue(inputs map[string]*big.Int, name string, n int) *big.Int {
	v := new(big.Int)
	for i := n - 1; i >= 0; i-- {
		v.Lsh(v, 1)
		v.Add(v, inputs[fmt.Sprintf("%s[%d]", name, i)])
	}
	return v
}
