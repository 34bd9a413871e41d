// Package sa is the circuit static-analysis pass: cheap, solver-free
// structural reasoning over an R1CS, independent of the SMT-driven core
// analysis. It labels the connected components of the constraint graph,
// runs an abstract interpretation over F_p (constant propagation, boolean
// and nonzero domains, and value ranges derived from them), and checks input→output reachability. Which
// signals are determined by the inputs it reads from internal/uniq's
// propagation, the rules core's verdicts use, so there is one
// determinedness engine.
//
// The pass has two entry points, and each computes only what its caller
// reads:
//
//   - Analyze returns facts only, with AbsState.Verify as their replay
//     check. No verdict reads them: core.Analyze uses only the component
//     graph (BuildGraph, SignalsWithoutOutputComponent) to prune slice
//     queries, and its uniqueness facts come from internal/uniq's rules,
//     R-OneHot included. Analyze serves tests and the benchmark's layer
//     probes.
//   - AnalyzeProgram, behind `qed2 -lint` and the findings gate, returns the
//     same facts plus Circomspect-style pattern detector findings:
//     deterministic, source-located, human- and machine-readable, over a
//     .circom file or a parsed .r1cs.
package sa

import (
	"fmt"
	"sort"

	"qed2/internal/obs"
	"qed2/internal/r1cs"
)

// Severity ranks findings.
type Severity int

// Severities, ascending.
const (
	// SeverityInfo marks advisory findings (e.g. every `<--` use).
	SeverityInfo Severity = iota
	// SeverityWarning marks likely defects that need human judgment.
	SeverityWarning
	// SeverityError marks findings that are definite defects pending only
	// counterexample confirmation (e.g. unreachable outputs).
	SeverityError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Finding is one deterministic, source-located lint result.
type Finding struct {
	// Detector is the stable kebab-case detector identifier.
	Detector string   `json:"detector"`
	Severity Severity `json:"-"`
	// SeverityName is Severity rendered for JSON output.
	SeverityName string `json:"severity"`
	// Signal names the offending signal ("" for constraint-level findings).
	Signal string `json:"signal,omitempty"`
	// SignalID is the offending signal's ID (0 when Signal == "").
	SignalID int `json:"signal_id,omitempty"`
	// Constraint is the index of the offending constraint (-1 if none).
	Constraint int `json:"constraint"`
	// Loc points at the circom source when location metadata survived
	// compilation (template:line:col), rendered empty otherwise.
	Loc string `json:"loc,omitempty"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// String renders "loc: severity[detector]: message".
func (f Finding) String() string {
	loc := f.Loc
	if loc == "" {
		loc = "<unknown>"
	}
	return fmt.Sprintf("%s: %s[%s]: %s", loc, f.Severity, f.Detector, f.Message)
}

// Options configures the pass. All fields are optional; observability
// handles are nil-safe.
type Options struct {
	Obs       *obs.Tracer
	ObsParent *obs.Span
	Metrics   *obs.Metrics
}

func (o *Options) withDefaults() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// Result holds the facts of one static-analysis pass.
type Result struct {
	// Abs is the final abstract state.
	Abs *AbsState
	// DeterminedOutputs lists outputs proven uniquely determined by the
	// inputs (AbsState.Determined: uniq's propagation, or a constant).
	DeterminedOutputs []int
	// DeterminedSignals lists every signal proven determined (sorted;
	// includes inputs, constants, and DeterminedOutputs).
	DeterminedSignals []int
	// UnreachableOutputs lists outputs with no constraint path from any
	// input that are not proven determined either:
	// candidates for definite under-constraint, reported by the
	// reachability detector. They never decide a verdict.
	UnreachableOutputs []int
}

// Analyze runs the pass over a system and returns its facts. It never
// mutates sys (beyond forcing the lazy adjacency index) and is
// deterministic: equal systems produce identical results regardless of
// concurrency in the surrounding process.
func Analyze(sys *r1cs.System, opts *Options) *Result {
	res, _ := analyze(sys, opts.withDefaults())
	return res
}

// analyze is Analyze, also returning the component graph for the detectors
// of AnalyzeProgram.
func analyze(sys *r1cs.System, o Options) (*Result, *Graph) {
	span := o.Obs.Start(o.ObsParent, "sa.analyze",
		obs.KV("signals", sys.NumSignals()), obs.KV("constraints", sys.NumConstraints()))

	gs := o.Obs.Start(span, "sa.graph")
	g := BuildGraph(sys)
	gs.End(obs.KV("components", g.NumComponents))

	as := o.Obs.Start(span, "sa.absint")
	abs := Interpret(sys)
	as.End(obs.KV("consts", abs.NumConst()), obs.KV("bools", abs.NumBool()),
		obs.KV("determined", abs.NumDetermined()), obs.KV("nonzero", abs.NumNonzero()),
		obs.KV("conflicts", len(abs.Conflicts())))

	res := &Result{Abs: abs}
	for id := 1; id < sys.NumSignals(); id++ {
		if abs.Determined(id) {
			res.DeterminedSignals = append(res.DeterminedSignals, id)
		}
	}
	// An output with no constraint path from any input is an
	// under-constraint candidate unless it is statically determined (e.g.
	// pinned to a constant by `out === 5`).
	for _, out := range sys.Outputs() {
		switch {
		case abs.Determined(out):
			res.DeterminedOutputs = append(res.DeterminedOutputs, out)
		case !g.ComponentHasInput(out):
			res.UnreachableOutputs = append(res.UnreachableOutputs, out)
		}
	}
	o.Metrics.Counter("sa.outputs.discharged").Add(int64(len(res.DeterminedOutputs)))
	o.Metrics.Counter("sa.outputs.unreachable").Add(int64(len(res.UnreachableOutputs)))
	span.End(obs.KV("outputs_discharged", len(res.DeterminedOutputs)),
		obs.KV("outputs_unreachable", len(res.UnreachableOutputs)))
	return res, g
}

// sortFindings fixes the canonical finding order: severity descending, then
// location, detector, signal ID, constraint index, and message — a total
// order, so output is reproducible across runs and worker counts.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		if a.Detector != b.Detector {
			return a.Detector < b.Detector
		}
		if a.SignalID != b.SignalID {
			return a.SignalID < b.SignalID
		}
		if a.Constraint != b.Constraint {
			return a.Constraint < b.Constraint
		}
		return a.Message < b.Message
	})
}

// newFinding fills the derived fields of a Finding.
func newFinding(sys *r1cs.System, detector string, sev Severity, sigID, cons int, loc r1cs.SourceLoc, msg string) Finding {
	f := Finding{
		Detector:     detector,
		Severity:     sev,
		SeverityName: sev.String(),
		Constraint:   cons,
		Loc:          loc.String(),
		Message:      msg,
	}
	if sigID > 0 {
		f.Signal = sys.Name(sigID)
		f.SignalID = sigID
	}
	return f
}
