package smt

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// TestSolverModelsPinnedRandom pins every SAT model on the 400 random
// problems of TestSolverEffortPinnedRandom: an FNV digest of each model as
// sorted (variable, value) pairs. The effort pins fix the search; this fixes
// what the search hands back, so a change to how a model is assembled from
// the elimination chain cannot move a value unseen.
func TestSolverModelsPinnedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	h := fnv.New64a()
	sat := 0
	for iter := 0; iter < 400; iter++ {
		out := Solve(randProblem(rng, 3), &Options{Seed: int64(iter), MaxSteps: 500_000})
		if out.Status != StatusSat {
			continue
		}
		sat++
		vars := make([]int, 0, len(out.Model))
		for v := range out.Model {
			vars = append(vars, v)
		}
		slices.Sort(vars)
		buf := binary.LittleEndian.AppendUint64(nil, uint64(iter))
		for _, v := range vars {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			for _, limb := range out.Model[v] {
				buf = binary.LittleEndian.AppendUint64(buf, limb)
			}
		}
		h.Write(buf)
	}
	const wantSat, wantDigest = 255, 0x6c701ff1f9327edb
	if sat != wantSat || h.Sum64() != wantDigest {
		t.Errorf("%d SAT models, digest %#x; want %d, %#x", sat, h.Sum64(), wantSat, uint64(wantDigest))
	}
}
