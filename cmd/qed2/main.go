// Command qed2 analyzes a Circom circuit for under-constrained signals.
//
// Usage:
//
//	qed2 [flags] circuit.circom
//
// The circuit must declare a main component. Includes are resolved against
// the files in the circuit's directory and against the bundled circomlib
// subset (so `include "comparators.circom"` works out of the box).
//
// SIGINT/SIGTERM cancel a running analysis gracefully: the partial report
// is still printed (verdict unknown, reason "canceled") and the exit status
// is 2. A second signal force-kills.
//
// Exit status: 0 safe, 1 unsafe, 2 unknown, 3 usage/compile error.
// With -lint: 0 no error-severity findings, 1 at least one error-severity
// finding, 3 usage/compile error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"qed2/internal/bench"
	"qed2/internal/buildinfo"
	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/sa"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// After the first signal cancels ctx, restore the default handlers
		// so a second signal force-kills a hung shutdown.
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI with explicit arguments and output streams so tests
// can drive it end to end.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if _, err := faultinject.EnableFromEnv(); err != nil {
		fmt.Fprintln(stderr, "qed2:", err)
		return 3
	}
	fs := flag.NewFlagSet("qed2", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode        = fs.String("mode", "qed2", "analysis mode: qed2 | propagation | smt")
		radius      = fs.Int("radius", 2, "slice radius for local uniqueness queries")
		querySteps  = fs.Int64("query-steps", 50_000, "solver step budget per SMT query")
		globalSteps = fs.Int64("global-steps", 5_000_000, "total solver step budget")
		timeout     = fs.Duration("timeout", 0, "wall-clock analysis timeout (0 = none)")
		seed        = fs.Int64("seed", 0, "deterministic solver seed")
		workers     = fs.Int("workers", 0, "parallel slice-query workers (0 = GOMAXPROCS)")
		dumpR1CS    = fs.Bool("r1cs", false, "dump the compiled constraint system and exit")
		statsOnly   = fs.Bool("stats", false, "print circuit statistics and exit")
		lint        = fs.Bool("lint", false, "run only the static-analysis pass and print its findings, then exit")
		lintFormat  = fs.String("format", "", "lint output format: text | json | sarif (default text; -json implies json)")
		quiet       = fs.Bool("q", false, "print only the verdict")
		jsonOut     = fs.Bool("json", false, "emit the analysis report as JSON")
		witness     = fs.String("witness", "", `generate and check a witness for the given inputs, e.g. "a=3,in[0]=7", then exit`)
		symPath     = fs.String("sym", "", "circom .sym file with signal names for a binary .r1cs input (default: the input path with a .sym extension, if present)")
		trace       = fs.String("trace", "", "write a JSONL trace of the analysis pipeline (spans, counters) to this file")
		metrics     = fs.Bool("metrics", false, "print pipeline counters and histograms to stderr after the analysis")
		version     = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *version {
		fmt.Fprintln(stdout, "qed2", buildinfo.Get().String())
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: qed2 [flags] circuit.circom")
		fs.PrintDefaults()
		return 3
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "qed2:", err)
		return 3
	}
	// A pre-compiled constraint system — this tool's own text dump (as
	// produced by -r1cs) or a binary snarkjs/circom export, auto-detected —
	// can be analyzed directly.
	var prog *circom.Program
	if strings.HasSuffix(path, ".r1cs") {
		if *witness != "" {
			// A dumped constraint system has no witness-generation
			// instructions: those live only in the compiled Circom program.
			fmt.Fprintln(stderr, "qed2: -witness needs a .circom source; a .r1cs dump has no witness-generation instructions")
			return 3
		}
		// Binary exports carry no signal names; the circom .sym companion
		// file restores them (explicit -sym, or <input>.sym by convention).
		var sym []byte
		if r1cs.IsBinaryR1CS(src) {
			sp := *symPath
			if sp == "" {
				cand := strings.TrimSuffix(path, ".r1cs") + ".sym"
				if _, err := os.Stat(cand); err == nil {
					sp = cand
				}
			}
			if sp != "" {
				sym, err = os.ReadFile(sp)
				if err != nil {
					fmt.Fprintln(stderr, "qed2:", err)
					return 3
				}
				fmt.Fprintf(stderr, "qed2: using signal names from %s\n", sp)
			}
		} else if *symPath != "" {
			fmt.Fprintln(stderr, "qed2: -sym only applies to binary .r1cs inputs (the text format carries its own names)")
			return 3
		}
		sys, err := r1cs.ParseAutoWithSym(src, sym)
		if err != nil {
			fmt.Fprintln(stderr, "qed2:", err)
			return 3
		}
		prog = circom.ProgramFromSystem(sys, "(from "+path+")")
	}
	// Library: bundled circomlib subset + sibling files of the input.
	lib := bench.Library()
	dir := filepath.Dir(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		// Not fatal — the bundled library may still satisfy every include —
		// but the user should know sibling files were not scanned.
		fmt.Fprintf(stderr, "qed2: warning: cannot scan %s for sibling includes: %v\n", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".circom" || e.Name() == filepath.Base(path) {
			continue
		}
		if data, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
			lib[e.Name()] = string(data)
		}
	}
	if prog == nil {
		prog, err = circom.Compile(string(src), &circom.CompileOptions{Library: lib})
		if err != nil {
			fmt.Fprintln(stderr, "qed2: compile error:", err)
			return 3
		}
	}
	sys := prog.System
	if *witness != "" {
		return runWitness(stdout, stderr, prog, *witness)
	}
	if *lint {
		format := *lintFormat
		if format == "" {
			if *jsonOut {
				format = "json"
			} else {
				format = "text"
			}
		}
		return runLint(stdout, stderr, path, prog, format, *quiet)
	}
	if *lintFormat != "" {
		fmt.Fprintln(stderr, "qed2: -format only applies with -lint")
		return 3
	}
	if *dumpR1CS {
		if _, err := sys.WriteTo(stdout); err != nil {
			fmt.Fprintln(stderr, "qed2:", err)
			return 3
		}
		return 0
	}
	st := sys.Stats()
	if !*quiet && !*jsonOut {
		fmt.Fprintf(stdout, "circuit:      %s (main = %s)\n", path, prog.MainTemplate)
		fmt.Fprintf(stdout, "field:        %s\n", sys.Field().Name())
		fmt.Fprintf(stdout, "signals:      %d (%d inputs, %d outputs, %d internal)\n",
			st.Signals, st.Inputs, st.Outputs, st.Internals)
		fmt.Fprintf(stdout, "constraints:  %d (%d linear, %d nonlinear)\n", st.Constraints, st.Linear, st.Nonlinear)
	}
	if *statsOnly {
		return 0
	}

	cfg := &core.Config{
		SliceRadius: *radius,
		QuerySteps:  *querySteps,
		GlobalSteps: *globalSteps,
		Timeout:     *timeout,
		Seed:        *seed,
		Workers:     *workers,
	}
	switch *mode {
	case "qed2":
		cfg.Mode = core.ModeFull
	case "propagation":
		cfg.Mode = core.ModePropagationOnly
	case "smt":
		cfg.Mode = core.ModeSMTOnly
	default:
		fmt.Fprintf(stderr, "qed2: unknown mode %q\n", *mode)
		return 3
	}
	var reg *obs.Metrics
	if *trace != "" || *metrics {
		reg = obs.NewMetrics()
		cfg.Metrics = reg
	}
	var tracer *obs.Tracer
	if *trace != "" {
		tracer, err = obs.NewFile(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "qed2:", err)
			return 3
		}
		tracer.AttachMetrics(reg)
		bi := buildinfo.Get()
		tracer.Meta("qed2",
			obs.Attr{Key: "version", Val: bi.Version},
			obs.Attr{Key: "revision", Val: bi.Revision},
			obs.Attr{Key: "go", Val: bi.GoVersion})
		cfg.Obs = tracer
	}
	t0 := time.Now()
	report := core.AnalyzeContext(ctx, sys, cfg)
	if err := tracer.Close(); err != nil {
		fmt.Fprintln(stderr, "qed2: writing trace:", err)
		return 3
	}
	if *metrics {
		reg.Render(stderr)
	}
	if *jsonOut {
		if err := writeJSONReport(stdout, path, prog, report); err != nil {
			fmt.Fprintln(stderr, "qed2:", err)
			return 3
		}
	} else if *quiet {
		fmt.Fprintln(stdout, report.Verdict)
	} else {
		fmt.Fprintf(stdout, "\nverdict:      %s", report.Verdict)
		if report.Reason != "" {
			fmt.Fprintf(stdout, "  (%s)", report.Reason)
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "analysis:     %s, %d queries (%d cached), %d solver steps, %d workers\n",
			time.Since(t0).Round(time.Millisecond), report.Stats.Queries, report.Stats.CacheHits,
			report.Stats.SolverSteps, report.Stats.Workers)
		fmt.Fprintf(stdout, "uniqueness:   %d/%d signals proven unique (%d by propagation, %d by SMT)\n",
			report.Stats.UniqueTotal, st.Signals, report.Stats.PropagationUnique, report.Stats.SMTUnique)
		if s := report.Stats; s.StaticUnique > 0 || s.StaticRangeUnique > 0 || s.StaticQueriesAvoided > 0 {
			fmt.Fprintf(stdout, "static pass:  %d extra signals proven determined (%d by range domains), %d SMT queries avoided (%d range-pruned)\n",
				s.StaticUnique+s.StaticRangeUnique, s.StaticRangeUnique,
				s.StaticQueriesAvoided+s.StaticRangePruned, s.StaticRangePruned)
		}
		if ce := report.Counter; ce != nil {
			printCounterexample(stdout, prog, ce)
		}
	}
	switch report.Verdict {
	case core.VerdictSafe:
		return 0
	case core.VerdictUnsafe:
		return 1
	default:
		return 2
	}
}

// runLint executes only the static-analysis pass and prints its findings:
// one "loc: severity[detector]: message" line each (format "text"), a JSON
// document (format "json", also selected by -json), or a SARIF 2.1.0 log
// (format "sarif"). Exit status: 0 when no error-severity finding, 1
// otherwise. A lint error is a strong under-constraint candidate, but only
// the full analysis (without -lint) can confirm it with a witness pair.
func runLint(stdout, stderr io.Writer, path string, prog *circom.Program, format string, quiet bool) int {
	res := sa.AnalyzeProgram(prog, nil)
	errs, warns, infos := 0, 0, 0
	for _, f := range res.Findings {
		switch f.Severity {
		case sa.SeverityError:
			errs++
		case sa.SeverityWarning:
			warns++
		default:
			infos++
		}
	}
	switch format {
	case "sarif":
		if err := writeSARIF(stdout, path, res.Findings); err != nil {
			fmt.Fprintln(stderr, "qed2:", err)
			return 3
		}
	case "json":
		out := jsonLint{
			Circuit:  path,
			Main:     prog.MainTemplate,
			Findings: res.Findings,
			Errors:   errs,
			Warnings: warns,
			Infos:    infos,
		}
		if out.Findings == nil {
			out.Findings = []sa.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "qed2:", err)
			return 3
		}
	case "text":
		for _, f := range res.Findings {
			if quiet && f.Severity < sa.SeverityWarning {
				continue
			}
			fmt.Fprintln(stdout, f.String())
		}
		if !quiet {
			fmt.Fprintf(stdout, "%d findings (%d errors, %d warnings, %d infos)\n",
				len(res.Findings), errs, warns, infos)
		}
	default:
		fmt.Fprintf(stderr, "qed2: unknown lint format %q (want text, json, or sarif)\n", format)
		return 3
	}
	if errs > 0 {
		return 1
	}
	return 0
}

// jsonLint is the machine-readable lint report.
type jsonLint struct {
	Circuit  string       `json:"circuit"`
	Main     string       `json:"main_template"`
	Findings []sa.Finding `json:"findings"`
	Errors   int          `json:"errors"`
	Warnings int          `json:"warnings"`
	Infos    int          `json:"infos"`
}

// printCounterexample renders a checked witness pair compactly: the shared
// inputs, then every signal on which the two witnesses differ.
func printCounterexample(w io.Writer, prog *circom.Program, ce *core.CounterExample) {
	sys := prog.System
	f := sys.Field()
	fmt.Fprintln(w, "\ncounterexample: two witnesses agree on all inputs but differ on output",
		sys.Name(ce.Signal))
	fmt.Fprintln(w, "  inputs:")
	for _, name := range prog.SortedInputNames() {
		id := prog.InputNames[name]
		fmt.Fprintf(w, "    %-20s = %s\n", name, f.String(ce.W1[id]))
	}
	fmt.Fprintln(w, "  differing signals:")
	for id := 1; id < sys.NumSignals(); id++ {
		if ce.W1[id] != ce.W2[id] {
			fmt.Fprintf(w, "    %-20s = %s   vs   %s\n",
				sys.Name(id), f.String(ce.W1[id]), f.String(ce.W2[id]))
		}
	}
}

// runWitness parses "name=value,..." inputs, generates a witness, checks it
// against every constraint, and prints the outputs.
func runWitness(stdout, stderr io.Writer, prog *circom.Program, spec string) int {
	inputs := map[string]*big.Int{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			fmt.Fprintf(stderr, "qed2: malformed input assignment %q (want name=value)\n", part)
			return 3
		}
		v, parsed := new(big.Int).SetString(strings.TrimSpace(val), 0)
		if !parsed {
			fmt.Fprintf(stderr, "qed2: malformed value in %q\n", part)
			return 3
		}
		inputs[strings.TrimSpace(name)] = v
	}
	w, err := prog.GenerateWitness(inputs)
	if err != nil {
		fmt.Fprintln(stderr, "qed2: witness generation failed:", err)
		return 3
	}
	if err := prog.System.CheckWitness(w); err != nil {
		fmt.Fprintln(stderr, "qed2: generated witness violates constraints (under-constrained hint logic?):", err)
		return 3
	}
	f := prog.System.Field()
	fmt.Fprintln(stdout, "witness satisfies all constraints")
	for _, name := range prog.SortedOutputNames() {
		fmt.Fprintf(stdout, "  %-20s = %s\n", name, f.String(w[prog.OutputNames[name]]))
	}
	return 0
}

// jsonReport is the machine-readable analysis summary.
type jsonReport struct {
	Circuit string `json:"circuit"`
	Main    string `json:"main_template"`
	Verdict string `json:"verdict"`
	Reason  string `json:"reason,omitempty"`
	// Degraded is non-empty ("canceled" / "internal-error") when an unknown
	// verdict is a fault-tolerance artifact rather than a budget outcome.
	Degraded    string       `json:"degraded,omitempty"`
	Signals     int          `json:"signals"`
	Constraints int          `json:"constraints"`
	Stats       jsonStats    `json:"stats"`
	Counter     *jsonCounter `json:"counterexample,omitempty"`
}

type jsonStats struct {
	UniqueTotal       int   `json:"unique_signals"`
	PropagationUnique int   `json:"by_propagation"`
	BitsUnique        int   `json:"by_bits_rule"`
	SMTUnique         int   `json:"by_smt"`
	Queries           int   `json:"smt_queries"`
	CacheHits         int   `json:"cache_hits"`
	SolverSteps       int64 `json:"solver_steps"`
	Workers           int   `json:"workers"`
	DurationMS        int64 `json:"duration_ms"`
	// The static pre-pass's contribution (zero when the pass is disabled or
	// not in qed2 mode): classic-rule facts, range-domain facts, queries
	// avoided by component pruning, and queries pruned by range facts.
	StaticUnique         int `json:"static_unique"`
	StaticRangeUnique    int `json:"static_range_unique"`
	StaticQueriesAvoided int `json:"static_queries_avoided"`
	StaticRangePruned    int `json:"static_range_pruned"`
}

type jsonCounter struct {
	Output  string            `json:"output"`
	Inputs  map[string]string `json:"inputs"`
	Values  [2]string         `json:"values"`
	Differs []string          `json:"differing_signals"`
}

func writeJSONReport(w io.Writer, path string, prog *circom.Program, report *core.Report) error {
	sys := prog.System
	f := sys.Field()
	out := jsonReport{
		Circuit:     path,
		Main:        prog.MainTemplate,
		Verdict:     report.Verdict.String(),
		Reason:      report.Reason,
		Degraded:    string(report.Degraded),
		Signals:     report.Stats.SignalsTotal,
		Constraints: report.Stats.Constraints,
		Stats: jsonStats{
			UniqueTotal:          report.Stats.UniqueTotal,
			PropagationUnique:    report.Stats.PropagationUnique,
			BitsUnique:           report.Stats.BitsUnique,
			SMTUnique:            report.Stats.SMTUnique,
			Queries:              report.Stats.Queries,
			CacheHits:            report.Stats.CacheHits,
			SolverSteps:          report.Stats.SolverSteps,
			Workers:              report.Stats.Workers,
			DurationMS:           report.Stats.Duration.Milliseconds(),
			StaticUnique:         report.Stats.StaticUnique,
			StaticRangeUnique:    report.Stats.StaticRangeUnique,
			StaticQueriesAvoided: report.Stats.StaticQueriesAvoided,
			StaticRangePruned:    report.Stats.StaticRangePruned,
		},
	}
	if ce := report.Counter; ce != nil {
		jc := &jsonCounter{
			Output: sys.Name(ce.Signal),
			Inputs: map[string]string{},
			Values: [2]string{f.String(ce.W1[ce.Signal]), f.String(ce.W2[ce.Signal])},
		}
		for name, id := range prog.InputNames {
			jc.Inputs[name] = f.String(ce.W1[id])
		}
		for id := 1; id < sys.NumSignals(); id++ {
			if ce.W1[id] != ce.W2[id] {
				jc.Differs = append(jc.Differs, sys.Name(id))
			}
		}
		out.Counter = jc
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
