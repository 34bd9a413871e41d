package main

import (
	"fmt"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/r1cs"
)

// goldenVerdict is one suite instance's pinned outcome from
// testdata/golden_verdicts.json.
type goldenVerdict struct {
	verdict  string
	ceOutput string
}

func loadGolden(path string) (map[string]goldenVerdict, error) {
	g, err := bench.LoadGolden(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]goldenVerdict, len(g.Verdicts))
	for _, v := range g.Verdicts {
		out[v.Name] = goldenVerdict{verdict: v.Verdict, ceOutput: v.CEOutput}
	}
	return out, nil
}

// diff names how a fresh report differs from the golden one ("" when it
// does not). A golden diff is reported, not counted as a failure: the label
// checks decide correctness, the golden file records what HEAD decided.
func (g goldenVerdict) diff(sys *r1cs.System, rep *core.Report) string {
	if got := rep.Verdict.String(); got != g.verdict {
		return fmt.Sprintf("verdict %s, golden %s", got, g.verdict)
	}
	if rep.Counter != nil {
		if got := sys.Name(rep.Counter.Signal); got != g.ceOutput {
			return fmt.Sprintf("counterexample on %s, golden %s", got, g.ceOutput)
		}
	}
	return ""
}
