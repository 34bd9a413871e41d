package sa_test

import (
	"strings"
	"testing"

	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/obs"
	"qed2/internal/sa"
)

// windowConflictSrc pins two boolean hint signals to a sum of −5: b + c
// ranges over [0, 2], so b + c + 5 ranges over [5, 7], and that window holds
// no multiple of p. No rule derives a constant or an empty meet here; only
// the window check proves the system unsatisfiable.
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

// TestWindowConflictIsReported: a constraint whose value window excludes
// every multiple of p is one conflict, one range-violation error at the
// constraint's source, and a failed Verify that names the window. core runs
// no abstract interpretation, so the conflict never reaches its verdict:
// Safe, as before.
func TestWindowConflictIsReported(t *testing.T) {
	prog, err := circom.Compile(windowConflictSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := prog.System

	st := sa.Interpret(sys)
	conflicts := st.Conflicts()
	if len(conflicts) != 1 || conflicts[0].Signal != -1 || conflicts[0].Constraint < 0 {
		t.Fatalf("conflicts = %+v, want one window conflict on a constraint", conflicts)
	}
	ci := conflicts[0].Constraint
	if ci != 2 {
		t.Errorf("conflict on constraint #%d, want #2 (the sum)", ci)
	}
	const why = "sa: range replay failed on constraint #2: value window [5, 7] admits no multiple of the modulus"
	if err := st.Verify(); err == nil || err.Error() != why {
		t.Errorf("Verify = %v, want %q", err, why)
	}

	var violations []sa.Finding
	for _, f := range sa.AnalyzeProgram(prog, nil).Findings {
		if f.Detector == "range-violation" {
			violations = append(violations, f)
		}
	}
	if len(violations) != 1 {
		t.Fatalf("range-violation findings = %+v, want one", violations)
	}
	// The sum constraint is line 11 of windowConflictSrc.
	v := violations[0]
	if loc := sys.Constraint(ci).Loc; loc.Line != 11 || v.Loc != loc.String() || v.Constraint != ci || v.SeverityName != "error" {
		t.Errorf("finding = %+v, want an error at constraint #%d (%s)", v, ci, loc)
	}
	if !strings.Contains(v.Message, "no multiple of the field modulus") {
		t.Errorf("message = %q", v.Message)
	}

	m := obs.NewMetrics()
	r := core.Analyze(sys, &core.Config{Seed: 1, Workers: 1, Metrics: m})
	if r.Verdict != core.VerdictSafe {
		t.Errorf("verdict = %v (%s), want safe", r.Verdict, r.Reason)
	}
	for name := range m.Counters() {
		if strings.HasPrefix(name, "sa.") {
			t.Errorf("core.Analyze counted %s: the abstract interpreter ran on the analysis path", name)
		}
	}
}
