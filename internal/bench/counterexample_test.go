package bench

import (
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"testing"

	"qed2/internal/core"
	"qed2/internal/r1cs"
)

// TestUnsafeCounterexamplesPinned pins every counterexample of the golden
// run: for each instance the checked-in golden file records as unsafe (suite
// plus pinned corpus), an FNV digest of the name, the differing output and
// both full witnesses under the golden budgets. The golden file pins only
// the output and the set of differing signals; this pins the values too.
func TestUnsafeCounterexamplesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes every golden unsafe instance")
	}
	root := filepath.Join("..", "..", "testdata")
	g, err := LoadGolden(filepath.Join(root, "golden_verdicts.json"))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := LoadCorpus(filepath.Join(root, "corpus", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	insts := append(Suite(), corpus...)
	cfg := goldenTestConfig()
	cfg.Workers = 1
	h := fnv.New64a()
	n := 0
	for _, v := range g.Verdicts {
		if v.Verdict != core.VerdictUnsafe.String() {
			continue
		}
		inst, ok := ByName(insts, v.Name)
		if !ok {
			t.Fatalf("golden instance %q not in suite or corpus", v.Name)
		}
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		rep := core.Analyze(prog.System, &cfg)
		ce := rep.Counter
		if ce == nil {
			t.Fatalf("%s: verdict %v, want unsafe with a counterexample", v.Name, rep.Verdict)
		}
		n++
		buf := append([]byte(v.Name), 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ce.Signal))
		for _, wit := range [...]r1cs.Witness{ce.W1, ce.W2} {
			for _, e := range wit {
				for _, limb := range e {
					buf = binary.LittleEndian.AppendUint64(buf, limb)
				}
			}
		}
		h.Write(buf)
	}
	const wantUnsafe, wantDigest = 320, 0xf668afac5abb56e2
	if n != wantUnsafe || h.Sum64() != wantDigest {
		t.Errorf("%d counterexamples, digest %#x; want %d, %#x", n, h.Sum64(), wantUnsafe, uint64(wantDigest))
	}
}
