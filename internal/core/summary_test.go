package core

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"qed2/internal/smt"
)

// TestSummaryJSONKeys pins the Summary wire contract: qed2d's job view and
// store entries, sandbox report lines, bench checkpoints and -json records
// all decode by these keys, so renaming a tag would silently zero a field
// for every old file and running daemon.
func TestSummaryJSONKeys(t *testing.T) {
	s := Summary{
		Verdict: "unsafe", Reason: "r", Degraded: DegradedInternal,
		CEOutput: "o", CEValues: [2]string{"1", "0"}, CESignals: []string{"o"},
		Signals: 1, Constraints: 1, UniqueSignals: 1, ByPropagation: 1, ByBitsRule: 1, BySMT: 1,
		Queries: 1, SolverSteps: 1, StaticQueriesAvoided: 1, Workers: 1, DurationMS: 1, Version: "v",
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"by_bits_rule", "by_propagation", "by_smt", "ce_output", "ce_signals",
		"ce_values", "constraints", "degraded", "duration_ms", "queries", "reason", "signals",
		"solver_steps", "static_queries_avoided", "unique_signals", "verdict", "version", "workers",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Summary JSON keys = %v\nwant %v", keys, want)
	}
	var back Summary
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, s) {
		t.Fatalf("Summary round trip = %+v (%v), want %+v", back, err, s)
	}
}

// TestInternalErrorVocabulary: the report callers build for a crash outside
// the query quarantine speaks the same vocabulary the quarantine does, so
// the degradation classifier and the staleness policy treat both alike.
func TestInternalErrorVocabulary(t *testing.T) {
	r := InternalError("boom")
	if r.Verdict != VerdictUnknown || r.Degraded != DegradedInternal || r.Reason != "internal error: boom" {
		t.Fatalf("InternalError = %+v", r)
	}
	out := smt.Outcome{Status: smt.StatusUnknown, Reason: r.Reason}
	if outcomeDegradation(out) != DegradedInternal || settled(out) {
		t.Fatalf("InternalError reason classified %q, settled=%v", outcomeDegradation(out), settled(out))
	}
}
