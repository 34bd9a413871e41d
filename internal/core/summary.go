package core

import (
	"fmt"

	"qed2/internal/buildinfo"
	"qed2/internal/r1cs"
)

// Summary is the flat, serializable form of a Report: the unit every
// persisted or transmitted outcome uses — qed2d's job view, sandbox pipe and
// report store, the bench checkpoint and -json records, and the HTTP suite
// replay. Report.Summary is the only code that builds one from a live
// analysis, so all of those carry the same fields with the same meaning.
// The JSON key set is a wire contract (TestSummaryJSONKeys pins it):
// renaming a tag breaks running daemons and old checkpoints.
type Summary struct {
	// Verdict is Verdict.String(); bench records also use "compile-error".
	Verdict  string      `json:"verdict"`
	Reason   string      `json:"reason,omitempty"`
	Degraded Degradation `json:"degraded,omitempty"`
	// CEOutput/CEValues/CESignals summarize the counterexample of an unsafe
	// verdict: the differing output with its two witnessed values, and the
	// names of every signal on which the witness pair disagrees (ID order)
	// — the set the golden-verdict gate pins.
	CEOutput  string    `json:"ce_output,omitempty"`
	CEValues  [2]string `json:"ce_values,omitempty"`
	CESignals []string  `json:"ce_signals,omitempty"`
	// Circuit shape and analysis effort (the Stats fields the tables and
	// the service report).
	Signals       int   `json:"signals"`
	Constraints   int   `json:"constraints"`
	UniqueSignals int   `json:"unique_signals"`
	ByPropagation int   `json:"by_propagation"`
	ByBitsRule    int   `json:"by_bits_rule"`
	BySMT         int   `json:"by_smt"`
	Queries       int   `json:"queries"`
	SolverSteps   int64 `json:"solver_steps"`
	// The static pre-pass's contribution (Stats.StaticQueriesAvoided).
	StaticQueriesAvoided int     `json:"static_queries_avoided"`
	Workers              int     `json:"workers"`
	DurationMS           float64 `json:"duration_ms"`
	// Version stamps the build that produced the summary (informational).
	Version string `json:"version,omitempty"`
}

// Summary flattens the report against its system, which names the
// counterexample signals; sys may be nil when the report has no
// counterexample.
func (r *Report) Summary(sys *r1cs.System) Summary {
	s := Summary{
		Verdict:              r.Verdict.String(),
		Reason:               r.Reason,
		Degraded:             r.Degraded,
		Signals:              r.Stats.SignalsTotal,
		Constraints:          r.Stats.Constraints,
		UniqueSignals:        r.Stats.UniqueTotal,
		ByPropagation:        r.Stats.PropagationUnique,
		ByBitsRule:           r.Stats.BitsUnique,
		BySMT:                r.Stats.SMTUnique,
		Queries:              r.Stats.Queries,
		SolverSteps:          r.Stats.SolverSteps,
		StaticQueriesAvoided: r.Stats.StaticQueriesAvoided,
		Workers:              r.Stats.Workers,
		DurationMS:           float64(r.Stats.Duration.Microseconds()) / 1000,
		Version:              buildinfo.Get().String(),
	}
	if ce := r.Counter; ce != nil {
		f := sys.Field()
		s.CEOutput = sys.Name(ce.Signal)
		s.CEValues = [2]string{f.String(ce.W1[ce.Signal]), f.String(ce.W2[ce.Signal])}
		for id := 1; id < sys.NumSignals(); id++ {
			if ce.W1[id] != ce.W2[id] {
				s.CESignals = append(s.CESignals, sys.Name(id))
			}
		}
	}
	return s
}

// Decided reports whether the summary carries a definite verdict.
func (s Summary) Decided() bool {
	return s.Verdict == VerdictSafe.String() || s.Verdict == VerdictUnsafe.String()
}

// InternalError is the report of an analysis that crashed outside the
// per-query quarantine (a panic caught by a caller's instance or job
// boundary, or a runner that returned no report): Unknown, degraded
// internal-error, with the same reason prefix the quarantine uses.
func InternalError(cause any) *Report {
	return &Report{
		Verdict:  VerdictUnknown,
		Reason:   fmt.Sprintf("%s: %v", internalErrPrefix, cause),
		Degraded: DegradedInternal,
	}
}
