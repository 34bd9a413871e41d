package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"qed2/internal/core"
)

// The golden-verdict regression gate: a checked-in snapshot of every
// suite instance's verdict and counterexample signal set, diffed against a
// fresh run in CI. Verdicts are deterministic for a fixed configuration as
// long as the wall-clock timeout is never the binding budget (the golden
// runs use a timeout far above what any instance needs, so the step
// budgets decide), which turns "identical reports" from a claim in a
// commit message into a checked invariant.

// GoldenVerdict is one instance's pinned outcome.
type GoldenVerdict struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"`
	// Reason is recorded for unknown verdicts as human-readable context in
	// diff output. Reasons are never compared for equality and never
	// classified: degradation is carried by the machine-readable Degraded
	// flag below.
	Reason string `json:"reason,omitempty"`
	// Degraded carries core.Report.Degraded ("canceled" or
	// "internal-error") for unknown verdicts that are fault-tolerance
	// artifacts; see IsDegraded.
	Degraded string `json:"degraded,omitempty"`
	// CEOutput and CESignals pin the counterexample shape for unsafe
	// verdicts: the differing output and the full set of signals on which
	// the witness pair disagrees.
	CEOutput  string   `json:"ce_output,omitempty"`
	CESignals []string `json:"ce_signals,omitempty"`
}

// GoldenFile is the checked-in golden-verdict snapshot
// (testdata/golden_verdicts.json). Config is the analyzer configuration the
// snapshot is valid for, written in canonical form: a diff or merge against
// a different configuration stamp fails fast instead of reporting
// meaningless verdict flips.
type GoldenFile struct {
	Config   core.Config     `json:"config"`
	Verdicts []GoldenVerdict `json:"verdicts"`
}

// GoldenFromResults snapshots a result set (sorted by instance name).
func GoldenFromResults(cfg core.Config, results []Result) *GoldenFile {
	g := &GoldenFile{Config: cfg.Canonical()}
	for _, r := range results {
		ir := instanceRecordOf(r)
		gv := GoldenVerdict{
			Name:      ir.Name,
			Verdict:   ir.Verdict,
			CEOutput:  ir.CEOutput,
			CESignals: ir.CESignals,
		}
		if gv.Verdict == core.VerdictUnknown.String() {
			gv.Reason = ir.Reason
			gv.Degraded = string(ir.Degraded)
		}
		g.Verdicts = append(g.Verdicts, gv)
	}
	sort.Slice(g.Verdicts, func(i, j int) bool { return g.Verdicts[i].Name < g.Verdicts[j].Name })
	return g
}

// Marshal renders the golden file as indented JSON.
func (g *GoldenFile) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// LoadGolden reads a golden file from disk.
func LoadGolden(path string) (*GoldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := &GoldenFile{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("bench: parsing golden file %s: %w", path, err)
	}
	return g, nil
}

// IsDegraded reports whether a fresh verdict is a fault-tolerance
// degradation rather than an analysis outcome: unknown because the run was
// canceled or because a query was quarantined after a panic. The golden
// gate reports these separately and non-fatally, so a chaos schedule or an
// interrupted run composes with the regression gate instead of tripping it.
// Classification is by the structured Degraded flag (core.Report.Degraded
// carried through InstanceRecord), never by parsing the Reason string —
// core wraps the underlying cause into "output X undecided: …" phrases
// that substring heuristics would have to chase.
func (v GoldenVerdict) IsDegraded() bool {
	return v.Verdict == core.VerdictUnknown.String() && v.Degraded != ""
}

// DiffGolden compares a fresh snapshot against the golden one and returns
// one readable line per real discrepancy (empty slice = identical) plus one
// line per degraded fresh verdict (unknown: canceled / internal error where
// the golden file pins a real verdict). Degraded entries are a separate,
// non-failing category: they mean the fresh run was interrupted or
// fault-injected, not that the analysis changed. Instances are matched by
// name; order within the files does not matter.
func DiffGolden(golden, fresh *GoldenFile) (diffs, degraded []string) {
	if g, f := golden.Config.Stamp(), fresh.Config.Stamp(); g != f {
		diffs = append(diffs, fmt.Sprintf("config mismatch: golden %s vs fresh %s (the gate only compares equal configurations)", g, f))
		return diffs, nil
	}
	goldenBy := map[string]GoldenVerdict{}
	for _, v := range golden.Verdicts {
		goldenBy[v.Name] = v
	}
	seen := map[string]bool{}
	for _, f := range fresh.Verdicts {
		seen[f.Name] = true
		g, ok := goldenBy[f.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: new instance (verdict %s) not in golden file — regenerate with -golden-out", f.Name, f.Verdict))
			continue
		}
		if g.Verdict != f.Verdict {
			if f.IsDegraded() {
				degraded = append(degraded, fmt.Sprintf("%s: degraded %s -> unknown (%s)", f.Name, g.Verdict, f.Reason))
				continue
			}
			diffs = append(diffs, fmt.Sprintf("%s: verdict flipped %s -> %s", f.Name, g.Verdict, f.Verdict))
			continue
		}
		if g.CEOutput != f.CEOutput {
			diffs = append(diffs, fmt.Sprintf("%s: counterexample output changed %q -> %q", f.Name, g.CEOutput, f.CEOutput))
		}
		if !equalStrings(g.CESignals, f.CESignals) {
			diffs = append(diffs, fmt.Sprintf("%s: counterexample signal set changed %v -> %v", f.Name, g.CESignals, f.CESignals))
		}
	}
	for _, g := range golden.Verdicts {
		if !seen[g.Name] {
			diffs = append(diffs, fmt.Sprintf("%s: instance missing from fresh run (golden verdict %s)", g.Name, g.Verdict))
		}
	}
	sort.Strings(diffs)
	sort.Strings(degraded)
	return diffs, degraded
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
