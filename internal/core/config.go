package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"runtime"
	"time"

	"qed2/internal/obs"
)

// Mode selects the analysis configuration.
type Mode int

// Modes.
const (
	// ModeFull is the QED² combination: propagation + sliced SMT queries +
	// full-circuit confirmation.
	ModeFull Mode = iota
	// ModePropagationOnly runs only the inference rules (Ecne-style
	// baseline): it can prove Safe but never Unsafe.
	ModePropagationOnly
	// ModeSMTOnly issues one monolithic two-copy query per output without
	// any propagation (naive SMT encoding baseline).
	ModeSMTOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "qed2"
	case ModePropagationOnly:
		return "propagation-only"
	case ModeSMTOnly:
		return "smt-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MarshalText implements encoding.TextMarshaler: a mode is written as its
// String name, the form configuration stamps carry.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler. It accepts the String
// names and the command-line names "propagation" and "smt".
func (m *Mode) UnmarshalText(text []byte) error {
	switch string(text) {
	case "qed2":
		*m = ModeFull
	case "propagation-only", "propagation":
		*m = ModePropagationOnly
	case "smt-only", "smt":
		*m = ModeSMTOnly
	default:
		return fmt.Errorf("unknown mode %q", text)
	}
	return nil
}

// Defaults the analysis applies to zero Config fields; RegisterFlags uses
// the same values as its flag defaults.
const (
	defaultSliceRadius = 2
	defaultQuerySteps  = 50_000
	defaultGlobalSteps = 5_000_000
)

// maxSliceConstraints caps the size of a local query.
const maxSliceConstraints = 64

// Config tunes the analysis. Its JSON form is the configuration's wire
// form (the sandbox worker's -config), and the JSON of its Canonical form
// is its Stamp.
type Config struct {
	// Mode selects full QED² or one of the baselines. Default ModeFull.
	Mode Mode `json:"mode"`
	// SliceRadius is the constraint-graph radius of local queries.
	// Default 2.
	SliceRadius int `json:"slice_radius"`
	// QuerySteps is the solver budget per SMT query. Default 50000.
	QuerySteps int64 `json:"query_steps"`
	// GlobalSteps bounds total solver steps across all queries.
	// Default 5,000,000.
	GlobalSteps int64 `json:"global_steps"`
	// Timeout bounds wall-clock time for the whole analysis (0 = none).
	// The deadline is enforced inside individual solver calls, not just
	// between them, so a single hard query cannot overshoot it by more than
	// one solver step-check interval.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Workers is the number of slice queries solved concurrently per round:
	// the analysis goroutine plus Workers−1 helpers. Default GOMAXPROCS.
	// Reports are byte-identical (verdict, stats, counterexample) for any
	// worker count as long as no wall-clock timeout cuts the run short:
	// outcomes are folded in canonical signal order as queries finish, a
	// round stops at the same deciding query, solver seeds derive from the
	// target signal, and the shared global step budget is reserved
	// deterministically.
	Workers int `json:"workers,omitempty"`
	// Seed makes solver probing deterministic.
	Seed int64 `json:"seed"`
	// DisableSolveRule / DisableBitsRule switch off individual propagation
	// rules (rule-ablation experiments). With both set, the analysis still
	// seeds inputs and issues sliced SMT queries. Either one also switches
	// off R-OneHot, and the static pre-pass, which otherwise runs before
	// the SMT rounds of ModeFull and prunes the slice queries of
	// output-free components. The baselines (ModePropagationOnly,
	// ModeSMTOnly) never run the pre-pass.
	DisableSolveRule bool `json:"no_solve_rule,omitempty"`
	DisableBitsRule  bool `json:"no_bits_rule,omitempty"`
	// Obs, when non-nil, receives hierarchical spans for every phase of
	// the analysis (rounds, queries, confirmations); ObsParent optionally
	// nests the whole analysis under a caller-owned span (the bench runner
	// uses it for per-instance grouping). Metrics, when non-nil, receives
	// the core.*, uniq.* and smt.* counters and histograms. All three are
	// pure observers: they never change verdicts, stats or determinism
	// (though with Workers > 1 the interleaving of query events in the
	// trace depends on scheduling, and queries a helper started after the
	// round's deciding query are traced and counted by smt.* although the
	// report never accounts them).
	Obs       *obs.Tracer  `json:"-"`
	ObsParent *obs.Span    `json:"-"`
	Metrics   *obs.Metrics `json:"-"`
	// Progress, when non-nil, receives coarse milestone events of the
	// analysis: the static pre-pass, each slice-query round once its last
	// outcome is folded, each final-stage round, and a terminal "done"
	// event carrying the verdict. Like Obs/Metrics it is a pure observer —
	// it never changes verdicts, stats or determinism. It is invoked
	// sequentially from the analysis goroutine between rounds (never from
	// query helpers), so it needs no
	// locking of its own, but it must not block: the analysis stalls while
	// the callback runs. qed2d feeds per-job event streams from this hook.
	Progress func(ProgressEvent) `json:"-"`
}

func (c *Config) withDefaults() Config {
	out := Config{}
	if c != nil {
		out = *c
	}
	if out.SliceRadius == 0 {
		out.SliceRadius = defaultSliceRadius
	}
	if out.QuerySteps == 0 {
		out.QuerySteps = defaultQuerySteps
	}
	if out.GlobalSteps == 0 {
		out.GlobalSteps = defaultGlobalSteps
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	return out
}

// Canonical returns the configuration c's Stamp describes: defaults
// applied, and Workers, Timeout and the observer hooks cleared. None of
// those changes a verdict: Workers by construction (see Workers), the
// timeout because stamped runs (checkpoints, golden files, the report
// store) let the step budgets bind.
func (c *Config) Canonical() Config {
	out := c.withDefaults()
	out.Workers, out.Timeout = 0, 0
	out.Obs, out.ObsParent, out.Metrics, out.Progress = nil, nil, nil, nil
	return out
}

// Stamp is the configuration's identity: the JSON of its Canonical form.
// Configurations with equal stamps decide every circuit identically, so
// every persisted artifact (bench checkpoint, qed2d drain checkpoint,
// report store, golden file) records and compares this string.
func (c *Config) Stamp() string {
	b, err := json.Marshal(c.Canonical())
	if err != nil {
		// Scalars and a Mode whose MarshalText never fails.
		panic(err)
	}
	return string(b)
}

// RegisterFlags binds the verdict-relevant settings and the timeout to
// flags on fs (-mode, -radius, -query-steps, -global-steps, -timeout,
// -seed), defaulting to the values the analysis applies to zero fields.
// Workers is left to the caller, whose flag name differs per command.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.TextVar(&c.Mode, "mode", ModeFull, "analysis mode: qed2 | propagation | smt")
	fs.IntVar(&c.SliceRadius, "radius", defaultSliceRadius, "slice radius for local uniqueness queries")
	fs.Int64Var(&c.QuerySteps, "query-steps", defaultQuerySteps, "solver step budget per SMT query")
	fs.Int64Var(&c.GlobalSteps, "global-steps", defaultGlobalSteps, "total solver step budget per analysis")
	fs.DurationVar(&c.Timeout, "timeout", 0, "wall-clock timeout per analysis (0 = none)")
	fs.Int64Var(&c.Seed, "seed", 0, "deterministic solver seed")
}
