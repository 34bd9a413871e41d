package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qed2/internal/sa"
)

func writeCircuit(t *testing.T, name, src string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const safeSrc = `
pragma circom 2.0.0;
template Mul() {
    signal input a;
    signal input b;
    signal output c;
    c <== a*b;
}
component main = Mul();
`

const buggySrc = `
pragma circom 2.0.0;
template Bad() {
    signal input in;
    signal output out;
    signal inv;
    inv <-- in != 0 ? 1/in : 0;
    out <== -in*inv + 1;
}
component main = Bad();
`

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestCLISafeCircuit(t *testing.T) {
	path := writeCircuit(t, "mul.circom", safeSrc)
	code, out, _ := runCLI(t, path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict:      safe") {
		t.Errorf("output missing safe verdict:\n%s", out)
	}
}

func TestCLIUnsafeCircuitExitCodeAndCounterexample(t *testing.T) {
	path := writeCircuit(t, "bad.circom", buggySrc)
	code, out, _ := runCLI(t, "-seed", "1", path)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"unsafe", "counterexample", "differing signals"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIQuiet(t *testing.T) {
	path := writeCircuit(t, "mul.circom", safeSrc)
	code, out, _ := runCLI(t, "-q", path)
	if code != 0 || strings.TrimSpace(out) != "safe" {
		t.Fatalf("quiet output = %q (exit %d)", out, code)
	}
}

func TestCLIJSON(t *testing.T) {
	path := writeCircuit(t, "bad.circom", buggySrc)
	code, out, _ := runCLI(t, "-json", "-seed", "1", path)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.Verdict != "unsafe" || rep.CEOutput == "" || len(rep.CEInputs) == 0 {
		t.Errorf("json report incomplete: %+v", rep)
	}
	if rep.CEValues[0] == rep.CEValues[1] {
		t.Error("counterexample values equal")
	}
	// The report is core.Summary plus the circuit, its main template and
	// the witnessed inputs: no nested stats block, and no fields of the
	// removed incremental solver or memo cache.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"stats", "counterexample", "cache_hits", "batch_groups", "incremental_reuses",
		"incremental_extends", "incremental_fallbacks", "incremental_base_steps", "learned_facts", "facts_injected",
		"static_unique", "static_range_unique", "static_range_pruned", "static_verify_error"} {
		if _, ok := raw[k]; ok {
			t.Errorf("report still carries %q", k)
		}
	}
	for _, k := range []string{"circuit", "main_template", "queries", "solver_steps", "static_queries_avoided", "ce_inputs"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("report lacks %q", k)
		}
	}
}

func TestCLIWitness(t *testing.T) {
	path := writeCircuit(t, "mul.circom", safeSrc)
	code, out, _ := runCLI(t, "-witness", "a=6,b=7", path)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "c") || !strings.Contains(out, "42") {
		t.Errorf("witness output wrong:\n%s", out)
	}
	// Malformed specs.
	if code, _, _ := runCLI(t, "-witness", "a", path); code != 3 {
		t.Error("malformed witness spec accepted")
	}
	if code, _, _ := runCLI(t, "-witness", "a=zebra", path); code != 3 {
		t.Error("malformed witness value accepted")
	}
}

func TestCLIR1CSDumpAndReanalyze(t *testing.T) {
	path := writeCircuit(t, "mul.circom", safeSrc)
	code, dump, _ := runCLI(t, "-r1cs", path)
	if code != 0 || !strings.HasPrefix(dump, "r1cs v1") {
		t.Fatalf("dump failed (exit %d):\n%s", code, dump)
	}
	r1csPath := filepath.Join(filepath.Dir(path), "mul.r1cs")
	if err := os.WriteFile(r1csPath, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, r1csPath)
	if code != 0 || !strings.Contains(out, "safe") {
		t.Fatalf("re-analysis of .r1cs failed (exit %d):\n%s", code, out)
	}
}

func TestCLIWitnessOnR1CSRejected(t *testing.T) {
	path := writeCircuit(t, "mul.circom", safeSrc)
	code, dump, _ := runCLI(t, "-r1cs", path)
	if code != 0 {
		t.Fatalf("dump failed (exit %d)", code)
	}
	r1csPath := filepath.Join(filepath.Dir(path), "mul.r1cs")
	if err := os.WriteFile(r1csPath, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw := runCLI(t, "-witness", "a=6,b=7", r1csPath)
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (usage error)", code)
	}
	if !strings.Contains(errw, "witness") || !strings.Contains(errw, ".r1cs") {
		t.Errorf("error message unhelpful: %q", errw)
	}
}

func TestCLIWorkersFlag(t *testing.T) {
	path := writeCircuit(t, "bad.circom", buggySrc)
	var reports [2]jsonReport
	for i, w := range []string{"1", "8"} {
		code, out, _ := runCLI(t, "-json", "-seed", "1", "-workers", w, path)
		if code != 1 {
			t.Fatalf("workers=%s: exit = %d, want 1", w, code)
		}
		if err := json.Unmarshal([]byte(out), &reports[i]); err != nil {
			t.Fatalf("workers=%s: invalid JSON: %v", w, err)
		}
	}
	if reports[0].Workers != 1 || reports[1].Workers != 8 {
		t.Errorf("workers not recorded: %d, %d", reports[0].Workers, reports[1].Workers)
	}
	// Reports must be identical apart from timing and the worker count.
	for i := range reports {
		reports[i].Workers = 0
		reports[i].DurationMS = 0
	}
	a, _ := json.Marshal(reports[0])
	b, _ := json.Marshal(reports[1])
	if string(a) != string(b) {
		t.Errorf("reports differ across worker counts:\n%s\n%s", a, b)
	}
}

func TestCLIStatsOnly(t *testing.T) {
	path := writeCircuit(t, "mul.circom", safeSrc)
	code, out, _ := runCLI(t, "-stats", path)
	if code != 0 || !strings.Contains(out, "constraints:") || strings.Contains(out, "verdict") {
		t.Fatalf("stats output wrong (exit %d):\n%s", code, out)
	}
}

func TestCLIModes(t *testing.T) {
	path := writeCircuit(t, "mul.circom", safeSrc)
	for _, mode := range []string{"qed2", "propagation", "smt"} {
		code, _, _ := runCLI(t, "-mode", mode, "-q", path)
		if code != 0 {
			t.Errorf("mode %s exit = %d", mode, code)
		}
	}
	if code, _, errw := runCLI(t, "-mode", "warp", path); code != 3 || !strings.Contains(errw, "unknown mode") {
		t.Error("bad mode accepted")
	}
}

func TestCLIErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 3 {
		t.Error("missing file accepted")
	}
	if code, _, _ := runCLI(t, "/nonexistent/x.circom"); code != 3 {
		t.Error("nonexistent file accepted")
	}
	bad := writeCircuit(t, "bad.circom", "template {")
	if code, _, errw := runCLI(t, bad); code != 3 || !strings.Contains(errw, "compile error") {
		t.Error("parse error not reported")
	}
	badR1CS := writeCircuit(t, "bad.r1cs", "nonsense")
	if code, _, _ := runCLI(t, badR1CS); code != 3 {
		t.Error("bad .r1cs accepted")
	}
}

func TestCLISiblingIncludes(t *testing.T) {
	dir := t.TempDir()
	lib := filepath.Join(dir, "lib.circom")
	if err := os.WriteFile(lib, []byte(`
template Pass() { signal input a; signal output b; b <== a; }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	mainPath := filepath.Join(dir, "main.circom")
	if err := os.WriteFile(mainPath, []byte(`
include "lib.circom";
component main = Pass();
`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errw := runCLI(t, "-q", mainPath)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out, errw)
	}
}

const freeOutputSrc = `
pragma circom 2.0.0;
template Free() {
    signal input in;
    signal output out;
    out <-- in * in;
}
component main = Free();
`

func TestCLILint(t *testing.T) {
	path := writeCircuit(t, "free.circom", freeOutputSrc)
	code, out, _ := runCLI(t, "-lint", path)
	if code != 1 {
		t.Fatalf("lint exit = %d, want 1 (error finding)\n%s", code, out)
	}
	for _, want := range []string{"error[unconstrained-hint]", "Free:", "findings"} {
		if !strings.Contains(out, want) {
			t.Errorf("lint output missing %q:\n%s", want, out)
		}
	}
	// A clean circuit lints clean.
	code, out, _ = runCLI(t, "-lint", writeCircuit(t, "mul.circom", safeSrc))
	if code != 0 || !strings.Contains(out, "0 errors") {
		t.Fatalf("clean lint exit = %d:\n%s", code, out)
	}
}

func TestCLILintJSONAndDeterminism(t *testing.T) {
	path := writeCircuit(t, "free.circom", freeOutputSrc)
	var runs [2]string
	for i := range runs {
		code, out, _ := runCLI(t, "-lint", "-json", path)
		if code != 1 {
			t.Fatalf("exit = %d, want 1", code)
		}
		runs[i] = out
	}
	if runs[0] != runs[1] {
		t.Errorf("lint JSON not deterministic:\n%s\n%s", runs[0], runs[1])
	}
	var rep jsonLint
	if err := json.Unmarshal([]byte(runs[0]), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, runs[0])
	}
	if rep.Errors == 0 || len(rep.Findings) == 0 {
		t.Fatalf("json lint report incomplete: %+v", rep)
	}
	f := rep.Findings[0]
	if f.Detector == "" || f.SeverityName == "" || f.Loc == "" || f.Message == "" {
		t.Errorf("finding missing fields: %+v", f)
	}
}

func TestCLILintOnR1CSDump(t *testing.T) {
	// Source locations and <-- metadata survive the .r1cs round trip, so
	// linting a dump finds the same unconstrained output, source-located.
	path := writeCircuit(t, "free.circom", freeOutputSrc)
	code, dump, _ := runCLI(t, "-r1cs", path)
	if code != 0 {
		t.Fatalf("dump failed (exit %d)", code)
	}
	r1csPath := filepath.Join(filepath.Dir(path), "free.r1cs")
	if err := os.WriteFile(r1csPath, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, "-lint", r1csPath)
	if code != 1 || !strings.Contains(out, "error[unconstrained-hint]") {
		t.Fatalf("lint on .r1cs exit = %d:\n%s", code, out)
	}
	if !strings.Contains(out, "Free:") {
		t.Errorf("source location lost in .r1cs round trip:\n%s", out)
	}
}

func TestCLIStaticStatsInJSON(t *testing.T) {
	// A pure Num2Bits-style circuit is discharged by propagation; the static
	// pre-pass only prunes, so its one stats field must be present (zero is
	// fine), the fields of the removed fact injection absent, and the
	// verdict unchanged.
	path := writeCircuit(t, "mul.circom", safeSrc)
	code, out, _ := runCLI(t, "-json", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "static_queries_avoided") {
		t.Errorf("json stats missing static_queries_avoided:\n%s", out)
	}
	if strings.Contains(out, "static_unique") || strings.Contains(out, "static_verify_error") {
		t.Errorf("json stats still carry a static fact field:\n%s", out)
	}
}

// windowConflictSrc has no satisfying assignment: b + c + 5 ranges over
// [5, 7] for boolean b and c, a window holding no multiple of p. Only the
// abstract interpreter behind -lint proves that; the analysis answers safe
// (no two witnesses can differ).
const windowConflictSrc = `
pragma circom 2.0.0;
template WindowConflict() {
    signal input a;
    signal b;
    signal c;
    b <-- a;
    c <-- a;
    b * (b - 1) === 0;
    c * (c - 1) === 0;
    b + c + 5 === 0;
}
component main = WindowConflict();
`

// TestCLIStaticVerifyFailureIsReported: an unsatisfiable window is reported
// where the abstract interpreter runs, by -lint as a range-violation error
// at constraint #2. The analysis runs no replay check, so its text and
// -json reports carry no static failure, and its verdict and exit code stay
// safe and 0.
func TestCLIStaticVerifyFailureIsReported(t *testing.T) {
	path := writeCircuit(t, "wc.circom", windowConflictSrc)
	code, out, _ := runCLI(t, path)
	if code != 0 || !strings.Contains(out, "verdict:      safe") {
		t.Fatalf("exit = %d, want 0 with verdict safe:\n%s", code, out)
	}
	if strings.Contains(out, "static pass:") {
		t.Errorf("text report has a static pass line:\n%s", out)
	}
	code, out, _ = runCLI(t, "-json", path)
	if code != 0 {
		t.Fatalf("-json exit = %d, want 0", code)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out)
	}
	if string(rep["verdict"]) != `"safe"` {
		t.Errorf("-json verdict = %s, want \"safe\"", rep["verdict"])
	}
	if _, ok := rep["static_verify_error"]; ok {
		t.Errorf("-json report has static_verify_error:\n%s", out)
	}
	code, out, _ = runCLI(t, "-lint", "-format", "json", path)
	if code != 1 {
		t.Fatalf("-lint exit = %d, want 1 (an error finding)", code)
	}
	var lint struct {
		Findings []sa.Finding `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &lint); err != nil {
		t.Fatalf("-lint output: %v\n%s", err, out)
	}
	var violations []sa.Finding
	for _, f := range lint.Findings {
		if f.Detector == "range-violation" {
			violations = append(violations, f)
		}
	}
	if len(violations) != 1 || violations[0].Constraint != 2 || violations[0].SeverityName != "error" ||
		!strings.Contains(violations[0].Message, "value window [5, 7] contains no multiple of the field modulus") {
		t.Errorf("-lint range-violation findings = %+v, want one error at constraint #2", violations)
	}
}

// TestCLILintConstantConflictEitherOrder: b ∈ {0,1} and b = 5 exclude each
// other in either constraint order. Pinning b after its booleanness is
// known clashes with its range; pinning it first reduces b·(b − 1) to the
// nonzero constant 20. Both orders are a range-violation error and exit 1.
func TestCLILintConstantConflictEitherOrder(t *testing.T) {
	for name, tc := range map[string]struct{ first, second, want string }{
		"bool first":  {"b * (b - 1) === 0;", "b === 5;", "signal b is pinned to 5 but its established range is [0, 1]"},
		"const first": {"b === 5;", "b * (b - 1) === 0;", "constraint #1 reduces to the nonzero constant 20"},
	} {
		src := "pragma circom 2.0.0;\ntemplate Bad() {\n    signal input x;\n    signal output b;\n    b <-- 1;\n    " +
			tc.first + "\n    " + tc.second + "\n}\ncomponent main = Bad();\n"
		code, out, _ := runCLI(t, "-lint", writeCircuit(t, "bad.circom", src))
		if code != 1 || !strings.Contains(out, "error[range-violation]: "+tc.want) {
			t.Errorf("%s: -lint exit = %d, want 1 with a range-violation error %q:\n%s", name, code, tc.want, out)
		}
	}
}

func TestCLICanceledContextYieldsUnknown(t *testing.T) {
	// The buggy circuit needs SMT queries to decide; a pre-canceled context
	// skips them all, so the verdict degrades to unknown (canceled). (A
	// circuit decided purely by propagation would still report its sound
	// verdict — cancellation never revokes completed proofs.)
	path := writeCircuit(t, "bad.circom", buggySrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errw bytes.Buffer
	code := run(ctx, []string{path}, &out, &errw)
	if code != 2 {
		t.Fatalf("canceled run exit = %d, want 2\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "unknown") || !strings.Contains(out.String(), "canceled") {
		t.Fatalf("canceled run output missing unknown (canceled):\n%s", out.String())
	}
}

func TestCLIVersionFlag(t *testing.T) {
	code, out, _ := runCLI(t, "-version")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.HasPrefix(out, "qed2 ") || !strings.Contains(out, "go1") {
		t.Fatalf("unexpected -version output %q", out)
	}
}

func TestCLILintSARIF(t *testing.T) {
	path := writeCircuit(t, "free.circom", freeOutputSrc)
	code, out, _ := runCLI(t, "-lint", "-format", "sarif", path)
	if code != 1 {
		t.Fatalf("sarif lint exit = %d, want 1 (error finding)\n%s", code, out)
	}
	// Decode into untyped maps so the assertions pin the exact JSON field
	// spelling the SARIF 2.1.0 schema requires, not our Go struct tags.
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("invalid SARIF JSON: %v\n%s", err, out)
	}
	if s, _ := doc["$schema"].(string); !strings.Contains(s, "sarif-2.1.0") {
		t.Errorf("$schema = %q, want a sarif-2.1.0 schema URI", s)
	}
	if v, _ := doc["version"].(string); v != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", v)
	}
	runs, _ := doc["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one", doc["runs"])
	}
	run := runs[0].(map[string]any)
	driver, _ := run["tool"].(map[string]any)["driver"].(map[string]any)
	if name, _ := driver["name"].(string); name != "qed2" {
		t.Errorf("tool.driver.name = %q, want qed2", name)
	}
	rules, _ := driver["rules"].([]any)
	if len(rules) == 0 {
		t.Fatal("tool.driver.rules is empty")
	}
	ruleIDs := make([]string, len(rules))
	for i, r := range rules {
		ruleIDs[i], _ = r.(map[string]any)["id"].(string)
	}
	results, _ := run["results"].([]any)
	if len(results) == 0 {
		t.Fatal("results is empty")
	}
	sawHint := false
	for _, raw := range results {
		res := raw.(map[string]any)
		id, _ := res["ruleId"].(string)
		if id == "" {
			t.Fatalf("result missing ruleId: %v", res)
		}
		if id == "unconstrained-hint" {
			sawHint = true
		}
		idx, ok := res["ruleIndex"].(float64)
		if !ok || int(idx) < 0 || int(idx) >= len(ruleIDs) || ruleIDs[int(idx)] != id {
			t.Errorf("ruleIndex %v does not point at rule %q in %v", res["ruleIndex"], id, ruleIDs)
		}
		switch lvl, _ := res["level"].(string); lvl {
		case "error", "warning", "note":
		default:
			t.Errorf("result level = %q, want error|warning|note", lvl)
		}
		if msg, _ := res["message"].(map[string]any)["text"].(string); msg == "" {
			t.Errorf("result %q has empty message.text", id)
		}
		locs, _ := res["locations"].([]any)
		if len(locs) == 0 {
			t.Fatalf("result %q has no locations", id)
		}
		phys, _ := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		if uri, _ := phys["artifactLocation"].(map[string]any)["uri"].(string); uri != path {
			t.Errorf("artifactLocation.uri = %q, want %q", uri, path)
		}
	}
	if !sawHint {
		t.Errorf("no unconstrained-hint result in SARIF output: %v", ruleIDs)
	}
	// Determinism: a second run renders byte-identical SARIF.
	_, again, _ := runCLI(t, "-lint", "-format", "sarif", path)
	if again != out {
		t.Error("SARIF output not deterministic across runs")
	}
	// -format without -lint is a usage error.
	if code, _, _ := runCLI(t, "-format", "sarif", path); code != 3 {
		t.Errorf("-format without -lint exit = %d, want 3", code)
	}
	// Unknown formats are rejected.
	if code, _, _ := runCLI(t, "-lint", "-format", "yaml", path); code != 3 {
		t.Errorf("unknown format exit = %d, want 3", code)
	}
}
