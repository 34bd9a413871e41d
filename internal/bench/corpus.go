package bench

import (
	"fmt"
	"sort"

	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/gen"
)

// The generated corpus: benchmark instances backed by internal/gen instead
// of Circom source. A corpus manifest (testdata/corpus/manifest.json) pins
// only (seed, profile, label) triples — the circuits themselves are
// regenerated on demand, and each regeneration re-validates the recorded
// label against the generator's self-checked ground truth, so a drifting
// generator fails loudly instead of silently flipping the corpus.

// CorpusInstance adapts one manifest entry to a benchmark instance.
func CorpusInstance(e gen.ManifestEntry) Instance {
	return Instance{
		Name:        e.Name,
		Category:    "Corpus/" + e.Profile,
		Expect:      corpusExpectation(e.Label),
		CorpusLabel: e.Label,
		Gen: func() (*circom.Program, error) {
			c, err := gen.Generate(e.Spec())
			if err != nil {
				return nil, err
			}
			if c.Label.String() != e.Label {
				return nil, fmt.Errorf("bench: corpus instance %s: generator produced label %s, manifest records %s — regenerate the corpus",
					e.Name, c.Label, e.Label)
			}
			return circom.ProgramFromSystem(c.System, "gen:"+e.Profile), nil
		},
	}
}

// corpusExpectation maps a generator label to the suite's expectation
// vocabulary. Unknown-labeled instances are genuinely under-constrained
// (the generator plants and verifies an alias pair), so their ground truth
// is unsafe even though the expected verdict is unknown.
func corpusExpectation(label string) Expectation {
	switch label {
	case gen.ProfileSafe:
		return ExpectSafe
	default:
		return ExpectUnsafe
	}
}

// CorpusInstances adapts a whole manifest.
func CorpusInstances(m *gen.Manifest) []Instance {
	insts := make([]Instance, len(m.Instances))
	for i, e := range m.Instances {
		insts[i] = CorpusInstance(e)
	}
	return insts
}

// LoadCorpus loads a manifest file and adapts it.
func LoadCorpus(path string) ([]Instance, error) {
	m, err := gen.LoadManifest(path)
	if err != nil {
		return nil, err
	}
	return CorpusInstances(m), nil
}

// GroundTruth is the outcome of checking corpus results against their
// generator labels. The two classes have different severities:
//
//   - Violations are soundness breaks: a safe verdict on an instance whose
//     label proves a second witness exists, or an unsafe verdict on a
//     label-safe instance. Either means the analyzer (or the generator's
//     self-validation) is wrong, and the nightly gate fails.
//   - Misses are completeness regressions: an unsafe-labeled instance
//     (planted, findable by construction) the analyzer did not resolve to
//     unsafe. Reported for tracking, non-fatal — budget changes legitimately
//     move this set. Unknown-labeled instances are never misses: their whole
//     point is to sit beyond the budget.
type GroundTruth struct {
	Checked    int      `json:"checked"`
	Violations []string `json:"violations,omitempty"`
	Misses     []string `json:"misses,omitempty"`
}

// CheckGroundTruth classifies corpus results (instances without a
// CorpusLabel are skipped). Compile errors on corpus instances are
// violations too: a manifest entry that no longer regenerates is a stale
// corpus, not an analysis outcome.
func CheckGroundTruth(results []Result) GroundTruth {
	var gt GroundTruth
	for _, r := range results {
		label := r.Instance.CorpusLabel
		if label == "" {
			continue
		}
		gt.Checked++
		if r.CompileErr != nil {
			gt.Violations = append(gt.Violations, fmt.Sprintf("%s: generation failed: %v", r.Instance.Name, r.CompileErr))
			continue
		}
		verdict, _ := core.ParseVerdict(r.Summary.Verdict)
		switch label {
		case gen.ProfileSafe:
			if verdict == core.VerdictUnsafe {
				gt.Violations = append(gt.Violations, fmt.Sprintf("%s: unsafe verdict on a label-safe instance (claimed counterexample on %s)",
					r.Instance.Name, r.Summary.CEOutput))
			}
		case gen.ProfileUnsafe:
			if verdict == core.VerdictSafe {
				gt.Violations = append(gt.Violations, fmt.Sprintf("%s: safe verdict on a label-unsafe instance (a planted witness pair exists)", r.Instance.Name))
			} else if verdict != core.VerdictUnsafe {
				gt.Misses = append(gt.Misses, fmt.Sprintf("%s: planted bug not found (verdict %s: %s)", r.Instance.Name, verdict, r.Summary.Reason))
			}
		case gen.ProfileUnknown:
			if verdict == core.VerdictSafe {
				gt.Violations = append(gt.Violations, fmt.Sprintf("%s: safe verdict on a label-unknown instance (a planted alias pair exists)", r.Instance.Name))
			}
		}
	}
	sort.Strings(gt.Violations)
	sort.Strings(gt.Misses)
	return gt
}
