package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The montgomery-bug example circuit: circomlib's MontgomeryDouble, the
// paper finding the examples/ directory reproduces. The include resolves
// against the bundled circomlib subset.
const montgomerySrc = `
pragma circom 2.0.0;
include "montgomery.circom";
component main = MontgomeryDouble();
`

type traceLine struct {
	Ev         string                     `json:"ev"`
	ID         int64                      `json:"id"`
	Parent     int64                      `json:"parent"`
	Name       string                     `json:"name"`
	Counters   map[string]int64           `json:"counters"`
	Histograms map[string]json.RawMessage `json:"histograms"`
}

func readTrace(t *testing.T, path string) []traceLine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []traceLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestCLITraceReconcilesWithStats is the observability acceptance check:
// the spans and counters in a -trace file must reconcile with the numbers
// the report itself prints. A trace that disagrees with the report would be
// worse than no trace at all.
func TestCLITraceReconcilesWithStats(t *testing.T) {
	path := writeCircuit(t, "mont.circom", montgomerySrc)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, errw := runCLI(t, "-trace", tracePath, "-json", "-seed", "1", "-workers", "1", path)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (unsafe)\n%s%s", code, out, errw)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON report: %v", err)
	}
	if rep.Verdict != "unsafe" {
		t.Fatalf("verdict = %s, want unsafe", rep.Verdict)
	}

	lines := readTrace(t, tracePath)
	if len(lines) == 0 {
		t.Fatal("trace file is empty")
	}

	// Structural checks: one core.analyze span bracketing the run, and a
	// final metrics record.
	spanEnds := map[string]int{}
	var metrics *traceLine
	for i := range lines {
		l := &lines[i]
		switch l.Ev {
		case "span_end":
			spanEnds[l.Name]++
		case "metrics":
			metrics = l
		}
	}
	if spanEnds["core.analyze"] != 1 {
		t.Errorf("core.analyze span_end count = %d, want 1", spanEnds["core.analyze"])
	}
	if metrics == nil {
		t.Fatal("trace has no final metrics record")
	}
	if lines[len(lines)-1].Ev != "metrics" {
		t.Errorf("metrics record is not the last trace line")
	}

	// Reconciliation: trace spans and counters vs the printed report stats.
	// The trace records every solver invocation; the report accounts the
	// queries folded before the verdict. At one worker a round stops solving
	// at the confirmed counterexample (see DESIGN §10), so even on this
	// unsafe circuit the two agree exactly.
	c := metrics.Counters
	if got := spanEnds["core.query"]; int64(got) != c["smt.queries"] {
		t.Errorf("core.query span count = %d, smt.queries counter = %d", got, c["smt.queries"])
	}
	if got := spanEnds["smt.solve"]; int64(got) != c["smt.queries"] {
		t.Errorf("smt.solve span count = %d, smt.queries counter = %d", got, c["smt.queries"])
	}
	if c["smt.queries"] != int64(rep.Queries) {
		t.Errorf("smt.queries counter = %d, report accounts %d queries", c["smt.queries"], rep.Queries)
	}
	if c["smt.steps"] != rep.SolverSteps {
		t.Errorf("smt.steps counter = %d, report accounts %d steps", c["smt.steps"], rep.SolverSteps)
	}
	if c["uniq.external"] != int64(rep.BySMT) {
		t.Errorf("uniq.external counter = %d, report says %d by SMT", c["uniq.external"], rep.BySMT)
	}
	if c["uniq.rule.bits.resolved"] != int64(rep.ByBitsRule) {
		t.Errorf("uniq.rule.bits.resolved = %d, report says %d by bits rule", c["uniq.rule.bits.resolved"], rep.ByBitsRule)
	}
	// PropagationUnique = signals resolved by the syntactic rules (seeded
	// constants are free facts, not rule firings).
	prop := c["uniq.rule.solve.fired"] + c["uniq.rule.bits.resolved"]
	if prop != int64(rep.ByPropagation) {
		t.Errorf("uniq rule counters sum to %d, report says %d by propagation",
			prop, rep.ByPropagation)
	}
	if spanEnds["core.confirm"] == 0 {
		t.Error("unsafe verdict with no core.confirm span")
	}
	// Every SMT status tally must sum to the query count.
	if sum := c["smt.status.sat"] + c["smt.status.unsat"] + c["smt.status.unknown"]; sum != c["smt.queries"] {
		t.Errorf("smt status tallies sum to %d, want %d queries", sum, c["smt.queries"])
	}
	if _, ok := metrics.Histograms["smt.query.steps"]; !ok {
		t.Error("metrics record missing smt.query.steps histogram")
	}
}

// TestCLITraceExactReconciliationSafeCircuit: on a safe circuit no round is
// decided early, so the trace counters must equal the report exactly —
// query count and solver steps.
func TestCLITraceExactReconciliationSafeCircuit(t *testing.T) {
	// IsZero is properly constrained but needs SMT (the inv hint defeats
	// pure propagation), so the run exercises real queries.
	path := writeCircuit(t, "iszero.circom", `
pragma circom 2.0.0;
include "comparators.circom";
component main = IsZero();
`)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, errw := runCLI(t, "-trace", tracePath, "-json", "-seed", "1", "-workers", "1", path)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (safe)\n%s%s", code, out, errw)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON report: %v", err)
	}
	if rep.Queries == 0 {
		t.Fatal("expected a circuit that needs SMT queries")
	}
	lines := readTrace(t, tracePath)
	spanEnds := map[string]int{}
	var c map[string]int64
	for _, l := range lines {
		if l.Ev == "span_end" {
			spanEnds[l.Name]++
		}
		if l.Ev == "metrics" {
			c = l.Counters
		}
	}
	if spanEnds["core.query"] != rep.Queries {
		t.Errorf("core.query span count = %d, report says %d queries", spanEnds["core.query"], rep.Queries)
	}
	if c["smt.queries"] != int64(rep.Queries) {
		t.Errorf("smt.queries = %d, report says %d", c["smt.queries"], rep.Queries)
	}
	if c["smt.steps"] != rep.SolverSteps {
		t.Errorf("smt.steps = %d, report says %d solver steps", c["smt.steps"], rep.SolverSteps)
	}
}

// TestCLITraceDeterministicAtOneWorker: two workers=1 runs of the same
// circuit and seed must produce byte-identical traces once timestamps are
// stripped — the determinism contract DESIGN §10 documents.
func TestCLITraceDeterministicAtOneWorker(t *testing.T) {
	path := writeCircuit(t, "bad.circom", buggySrc)
	var shapes [2][]string
	for i := range shapes {
		tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
		code, out, _ := runCLI(t, "-trace", tracePath, "-seed", "1", "-workers", "1", "-q", path)
		if code != 1 {
			t.Fatalf("run %d: exit = %d\n%s", i, code, out)
		}
		for _, l := range readTrace(t, tracePath) {
			// Shape = event kind + name + parent link; timestamps and
			// durations are wall clock and excluded from the contract.
			shapes[i] = append(shapes[i], l.Ev+"/"+l.Name)
		}
	}
	if len(shapes[0]) != len(shapes[1]) {
		t.Fatalf("trace lengths differ: %d vs %d", len(shapes[0]), len(shapes[1]))
	}
	for j := range shapes[0] {
		if shapes[0][j] != shapes[1][j] {
			t.Fatalf("trace shape diverges at line %d: %q vs %q", j, shapes[0][j], shapes[1][j])
		}
	}
}

// TestCLIUnknownExitCode: exit status 2 distinguishes "ran out of budget"
// from both safe (0) and unsafe (1), so scripts can retry with larger
// budgets. A one-step solver budget cannot decide the buggy circuit.
func TestCLIUnknownExitCode(t *testing.T) {
	path := writeCircuit(t, "bad.circom", buggySrc)
	code, out, _ := runCLI(t, "-query-steps", "1", "-global-steps", "1", "-q", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (unknown)\n%s", code, out)
	}
	if got := string(out); got != "unknown\n" {
		t.Errorf("quiet output = %q, want unknown", got)
	}
}
