// Command qed2bench regenerates every table and figure of the evaluation
// (see DESIGN.md §5 for the experiment index) from the 163-instance
// benchmark suite.
//
// Usage:
//
//	qed2bench -all                # everything (default)
//	qed2bench -table 2            # one table (1..4)
//	qed2bench -fig 1              # one figure (1..3)
//	qed2bench -list               # list the suite instances
//	qed2bench -table 2 -json r.json  # also write a machine-readable run record
//	qed2bench -trace run.jsonl    # also write a JSONL trace of the pipeline
//	qed2bench -golden testdata/golden_verdicts.json  # CI verdict-regression gate
//	qed2bench -corpus testdata/corpus/manifest.json -findings-corpus 100 \
//	  -findings-golden testdata/golden_findings.json  # CI lint-findings gate (no SMT, fast)
//	qed2bench -checkpoint ck.jsonl           # persist per-instance results as they complete
//	qed2bench -checkpoint ck.jsonl -resume   # skip instances the checkpoint already decided
//
// Corpus-scale runs (see DESIGN.md §15):
//
//	qed2bench -corpus testdata/corpus/manifest.json -golden testdata/golden_verdicts.json
//	    # golden gate over suite ∪ generated corpus
//	qed2bench -corpus ... -shard 2/4 -golden-out shard_2.json
//	    # one CI leg: analyze every 4th instance, snapshot its verdicts
//	qed2bench -merge shard_1.json,shard_2.json,shard_3.json,shard_4.json -golden testdata/golden_verdicts.json
//	    # recombine the legs (no analysis) and diff the union
//	qed2bench -corpus-gen 500 -gen-seed 20260808 -mismatch-out bad_seeds.json
//	    # nightly: generate+analyze 500 fresh instances, check ground-truth labels
//	qed2bench -corpus-gen 1000 -gen-seed 1 -corpus-out testdata/corpus/manifest.json
//	    # (re)generate the checked-in corpus manifest (no analysis)
//
// A checkpoint's first line stamps the analyzer configuration; -resume
// refuses a checkpoint written under different budgets, seed, or mode
// instead of silently mixing records from incomparable runs.
//
// SIGINT/SIGTERM cancel the run gracefully: in-flight analyses stop at
// their next query boundary, not-yet-started instances are stamped
// "unknown (canceled)", and every requested artifact (tables, -json record,
// -checkpoint lines, trace) is still written from the partial result set.
// A second signal force-kills.
//
// Exit status: 0 on success, 1 when the -golden diff or the -baseline
// regression guard fails (or a run record cannot be written), 130 when the
// run was interrupted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"qed2/internal/bench"
	"qed2/internal/buildinfo"
	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/gen"
	"qed2/internal/obs"
)

func main() {
	var (
		table          = flag.Int("table", 0, "regenerate one table (1..4)")
		fig            = flag.Int("fig", 0, "regenerate one figure (1..4)")
		all            = flag.Bool("all", false, "regenerate every table and figure")
		list           = flag.Bool("list", false, "list suite instances and exit")
		workers        = flag.Int("workers", 0, "instances analyzed concurrently (0 = GOMAXPROCS)")
		queryWorkers   = flag.Int("query-workers", 1, "parallel slice-query workers within one analysis (0 = GOMAXPROCS); 1 keeps per-instance timings comparable")
		querySteps     = flag.Int64("query-steps", 20_000, "solver step budget per SMT query")
		globalSteps    = flag.Int64("global-steps", 400_000, "total solver step budget per instance")
		timeout        = flag.Duration("timeout", 5*time.Second, "wall-clock budget per instance")
		seed           = flag.Int64("seed", 1, "deterministic solver seed")
		verbose        = flag.Bool("v", false, "print per-instance progress")
		jsonOut        = flag.String("json", "", "write a machine-readable run record (timings, tallies, solver counters) to this file")
		trace          = flag.String("trace", "", "write a JSONL trace of the pipeline (per-instance and per-query spans) to this file")
		printMetrics   = flag.Bool("metrics", false, "print pipeline counters and histograms to stderr after the run")
		pprofAddr      = flag.String("pprof", "", "serve net/http/pprof and a /metrics snapshot on this address (e.g. localhost:6060) for long runs")
		golden         = flag.String("golden", "", "diff the full-run per-instance verdicts against this golden file; exit 1 on any flip")
		goldenOut      = flag.String("golden-out", "", "write the full-run per-instance verdicts to this golden file")
		findingsGolden = flag.String("findings-golden", "", "diff the static-analysis findings of every suite instance against this golden file; exit 1 on any change (solver-free, no full run)")
		findingsOut    = flag.String("findings-out", "", "write the static-analysis findings of every suite instance to this golden file")
		findingsCorpus = flag.Int("findings-corpus", 0, "truncate the -corpus run list to its first N instances (the findings gate pins a fixed corpus slice rather than the whole corpus)")
		baseline       = flag.String("baseline", "", "compare run:full analysis time against this earlier -json run record")
		maxSlowdown    = flag.Float64("max-slowdown", 2.0, "fail when run:full analysis time exceeds the -baseline record by this factor")
		checkpoint     = flag.String("checkpoint", "", "append per-instance results of the full run to this JSONL file as they complete")
		resume         = flag.Bool("resume", false, "skip instances already decided in the -checkpoint file instead of re-analyzing them")
		corpus         = flag.String("corpus", "", "append generated-corpus instances from this manifest to the run list")
		shard          = flag.String("shard", "", "run only the i-th of n interleaved shards of the run list (1-based), e.g. -shard 2/4")
		merge          = flag.String("merge", "", "comma-separated per-shard golden files to recombine (no analysis run); diffed with -golden, written with -golden-out")
		corpusGen      = flag.Int("corpus-gen", 0, "replace the suite with N freshly generated corpus instances and check verdicts against ground-truth labels (exit 1 on soundness violations)")
		genSeed        = flag.Int64("gen-seed", 1, "base seed for -corpus-gen")
		corpusOut      = flag.String("corpus-out", "", "write the -corpus-gen manifest to this file (and skip the analysis run unless a gate flag asks for one)")
		mismatchOut    = flag.String("mismatch-out", "", "write ground-truth mismatches (violations and misses) of a -corpus-gen run to this JSON file")
		version        = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("qed2bench", buildinfo.Get().String())
		return
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "qed2bench: -resume requires -checkpoint")
		os.Exit(1)
	}
	if _, err := faultinject.EnableFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "qed2bench:", err)
		os.Exit(1)
	}
	// -merge recombines per-shard golden snapshots without any analysis.
	if *merge != "" {
		os.Exit(runMerge(*merge, *golden, *goldenOut))
	}
	gateRun := *golden != "" || *goldenOut != "" || *baseline != "" || *checkpoint != "" || *corpusGen > 0
	// The findings gate is solver-free (compile + static pass only); on its
	// own it never triggers the full analysis run.
	lintRun := *findingsGolden != "" || *findingsOut != ""
	if !*all && *table == 0 && *fig == 0 && !*list && !gateRun && !lintRun {
		*all = true
	}
	insts := bench.Suite()
	if *corpusGen > 0 {
		m, err := gen.BuildManifest(*genSeed, *corpusGen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			os.Exit(1)
		}
		if *corpusOut != "" {
			if err := os.WriteFile(*corpusOut, m.Marshal(), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "qed2bench: writing %s: %v\n", *corpusOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "corpus manifest written to %s (%d instances, base seed %d)\n",
				*corpusOut, len(m.Instances), *genSeed)
			// Manifest generation alone needs no analysis run.
			if *golden == "" && *goldenOut == "" && *mismatchOut == "" && *checkpoint == "" && *baseline == "" {
				return
			}
		}
		// Ground-truth mode replaces the suite: every instance carries a
		// generator label the verdicts are checked against after the run.
		insts = bench.CorpusInstances(m)
	}
	if *findingsCorpus > 0 && *corpus == "" {
		fmt.Fprintln(os.Stderr, "qed2bench: -findings-corpus requires -corpus")
		os.Exit(1)
	}
	if *corpus != "" {
		cinsts, err := bench.LoadCorpus(*corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			os.Exit(1)
		}
		if *findingsCorpus > 0 && len(cinsts) > *findingsCorpus {
			cinsts = cinsts[:*findingsCorpus]
		}
		insts = append(insts, cinsts...)
	}
	if *shard != "" {
		idx, n, err := bench.ParseShard(*shard)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			os.Exit(1)
		}
		insts = bench.ShardInstances(insts, idx, n)
		fmt.Fprintf(os.Stderr, "shard %s: %d of the run list's instances\n", *shard, len(insts))
	}
	if *list {
		for _, in := range insts {
			fmt.Printf("%-26s %-12s expect=%s vuln=%v\n", in.Name, in.Category, in.Expect, in.Vuln)
		}
		return
	}

	// ctx is canceled by the first SIGINT/SIGTERM; stop() then restores the
	// default handlers so a second signal force-kills a hung shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()

	reg := obs.NewMetrics()
	var tracer *obs.Tracer
	stopSampler := func() {}
	if *trace != "" {
		var err error
		tracer, err = obs.NewFile(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			os.Exit(1)
		}
		tracer.AttachMetrics(reg)
		bi := buildinfo.Get()
		tracer.Meta("qed2bench",
			obs.Attr{Key: "version", Val: bi.Version},
			obs.Attr{Key: "revision", Val: bi.Revision},
			obs.Attr{Key: "go", Val: bi.GoVersion})
		stopSampler = tracer.StartRuntimeSampler(time.Second)
	}
	if *pprofAddr != "" {
		serveDebug(*pprofAddr, reg)
	}

	baseCfg := core.Config{
		QuerySteps:  *querySteps,
		GlobalSteps: *globalSteps,
		Timeout:     *timeout,
		Seed:        *seed,
		Workers:     *queryWorkers,
	}
	started := time.Now()
	var rec *bench.RunRecord
	if *jsonOut != "" || *baseline != "" {
		iw := *workers
		if iw <= 0 {
			iw = runtime.GOMAXPROCS(0)
		}
		rec = bench.NewRunRecord(len(insts), iw, *queryWorkers, baseCfg)
	}
	// record appends a timed section to the -json run record (no-op without
	// the flag); section wraps a block so runs and renders are both timed.
	record := func(name string, start time.Time, results []bench.Result) {
		if rec != nil {
			rec.AddSection(name, time.Since(start), results)
		}
	}
	opts := func(cfg core.Config) *bench.RunOptions {
		o := &bench.RunOptions{Config: cfg, Workers: *workers, Obs: tracer, Metrics: reg}
		if *verbose {
			o.Progress = func(done, total int, r bench.Result) {
				v := "compile-error"
				if r.Report != nil {
					v = r.Report.Verdict.String()
				}
				fmt.Fprintf(os.Stderr, "[%3d/%3d] %-26s %-8s %s\n",
					done, total, r.Instance.Name, v, r.AnalyzeTime.Round(time.Millisecond))
			}
		}
		return o
	}

	exit := 0
	runFull := func() []bench.Result {
		o := opts(baseCfg)
		if *checkpoint != "" {
			if *resume {
				completed, err := bench.LoadCheckpoint(*checkpoint, baseCfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "qed2bench:", err)
					os.Exit(1)
				}
				if len(completed) > 0 {
					fmt.Fprintf(os.Stderr, "resuming: %d instance(s) already decided in %s\n", len(completed), *checkpoint)
				}
				o.Completed = completed
			} else {
				// A fresh (non-resume) run starts a fresh checkpoint.
				os.Remove(*checkpoint)
			}
			w, err := bench.NewCheckpointWriter(*checkpoint, baseCfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qed2bench:", err)
				os.Exit(1)
			}
			o.Checkpoint = w
		}
		fmt.Fprintf(os.Stderr, "running %d instances (qed2 full config)...\n", len(insts))
		t0 := time.Now()
		r := bench.RunContext(ctx, insts, o)
		record("run:full", t0, r)
		if o.Checkpoint != nil {
			if err := o.Checkpoint.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "qed2bench: writing checkpoint %s: %v\n", *checkpoint, err)
				exit = 1
			}
			o.Checkpoint.Close()
		}
		return r
	}
	var full []bench.Result

	need := func(want bool) bool { return *all || want }

	if need(*table >= 1 && *table <= 4) || need(*fig == 1 || *fig == 3) || gateRun {
		full = runFull()
	}
	if *all || *table == 1 {
		t0 := time.Now()
		fmt.Println(bench.Table1(full))
		record("table1", t0, full)
	}
	if *all || *table == 2 {
		t0 := time.Now()
		fmt.Println(bench.Table2(full))
		record("table2", t0, full)
	}
	if *all || *table == 3 || *fig == 1 {
		fmt.Fprintln(os.Stderr, "running baselines (propagation-only, smt-only)...")
		propCfg := baseCfg
		propCfg.Mode = core.ModePropagationOnly
		smtCfg := baseCfg
		smtCfg.Mode = core.ModeSMTOnly
		t0 := time.Now()
		propRes := bench.RunContext(ctx, insts, opts(propCfg))
		record("run:propagation-only", t0, propRes)
		t0 = time.Now()
		smtRes := bench.RunContext(ctx, insts, opts(smtCfg))
		record("run:smt-only", t0, smtRes)
		byMode := map[string][]bench.Result{
			"qed2":             full,
			"propagation-only": propRes,
			"smt-only":         smtRes,
		}
		order := []string{"qed2", "propagation-only", "smt-only"}
		if *all || *table == 3 {
			t0 = time.Now()
			fmt.Println(bench.Table3(byMode, order))
			record("table3", t0, full)
		}
		if *all || *fig == 1 {
			t0 = time.Now()
			fmt.Println(bench.Figure1(byMode, order))
			record("fig1", t0, full)
		}
	}
	if *all || *table == 4 {
		t0 := time.Now()
		fmt.Println(bench.Table4(full))
		record("table4", t0, full)
	}
	if *all || *fig == 2 {
		fmt.Fprintln(os.Stderr, "running slice-radius sweep (k = 1, 2, 3)...")
		byRadius := map[int][]bench.Result{}
		for _, k := range []int{1, 2, 3} {
			cfg := baseCfg
			cfg.SliceRadius = k
			if k == 2 && full != nil {
				byRadius[k] = full
				continue
			}
			t0 := time.Now()
			byRadius[k] = bench.RunContext(ctx, insts, opts(cfg))
			record(fmt.Sprintf("run:radius-k%d", k), t0, byRadius[k])
		}
		t0 := time.Now()
		fmt.Println(bench.Figure2(byRadius))
		record("fig2", t0, byRadius[2])
	}
	if *all || *fig == 3 {
		t0 := time.Now()
		fmt.Println(bench.Figure3(full))
		record("fig3", t0, full)
	}
	if *all || *fig == 4 {
		fmt.Fprintln(os.Stderr, "running rule ablation (full / -bits / -all-rules)...")
		noBits := baseCfg
		noBits.DisableBitsRule = true
		noRules := baseCfg
		noRules.DisableBitsRule = true
		noRules.DisableSolveRule = true
		t0 := time.Now()
		noBitsRes := bench.RunContext(ctx, insts, opts(noBits))
		record("run:no-bits", t0, noBitsRes)
		t0 = time.Now()
		noRulesRes := bench.RunContext(ctx, insts, opts(noRules))
		record("run:no-rules", t0, noRulesRes)
		byConfig := map[string][]bench.Result{
			"full rule set":  full,
			"without R-Bits": noBitsRes,
			"no rules (SMT)": noRulesRes,
		}
		t0 = time.Now()
		fmt.Println(bench.Figure4(byConfig, []string{"full rule set", "without R-Bits", "no rules (SMT)"}))
		record("fig4", t0, full)
	}
	if lintRun {
		fresh, err := bench.CollectFindings(insts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			os.Exit(1)
		}
		if *findingsOut != "" {
			b, err := fresh.Marshal()
			if err == nil {
				err = os.WriteFile(*findingsOut, b, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "qed2bench: writing %s: %v\n", *findingsOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "golden findings written to %s (%d instances)\n", *findingsOut, len(fresh.Instances))
		}
		if *findingsGolden != "" {
			gold, err := bench.LoadFindings(*findingsGolden)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qed2bench:", err)
				os.Exit(1)
			}
			if diffs := bench.DiffFindings(gold, fresh); len(diffs) > 0 {
				fmt.Fprintf(os.Stderr, "qed2bench: %d golden-finding regression(s) against %s:\n", len(diffs), *findingsGolden)
				for _, d := range diffs {
					fmt.Fprintln(os.Stderr, "  "+d)
				}
				exit = 1
			} else {
				fmt.Fprintf(os.Stderr, "golden findings: %d instances match %s\n", len(fresh.Instances), *findingsGolden)
			}
		}
	}
	if *corpusGen > 0 && full != nil {
		gt := bench.CheckGroundTruth(full)
		fmt.Fprintf(os.Stderr, "ground truth: %d instances checked, %d violation(s), %d miss(es)\n",
			gt.Checked, len(gt.Violations), len(gt.Misses))
		for _, v := range gt.Violations {
			fmt.Fprintln(os.Stderr, "  VIOLATION: "+v)
		}
		for _, m := range gt.Misses {
			fmt.Fprintln(os.Stderr, "  miss: "+m)
		}
		if *mismatchOut != "" {
			b, err := json.MarshalIndent(gt, "", "  ")
			if err == nil {
				err = os.WriteFile(*mismatchOut, append(b, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "qed2bench: writing %s: %v\n", *mismatchOut, err)
				os.Exit(1)
			}
		}
		// Violations are unsound verdicts — always fatal. Misses are
		// completeness regressions, reported but non-failing.
		if len(gt.Violations) > 0 {
			exit = 1
		}
	}
	if *goldenOut != "" {
		g := bench.GoldenFromResults(baseCfg, full)
		b, err := g.Marshal()
		if err == nil {
			err = os.WriteFile(*goldenOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qed2bench: writing %s: %v\n", *goldenOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "golden verdicts written to %s (%d instances)\n", *goldenOut, len(g.Verdicts))
	}
	if *golden != "" {
		gold, err := bench.LoadGolden(*golden)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			os.Exit(1)
		}
		if *shard != "" {
			// A shard leg runs a subset of the golden population; restrict
			// the golden file so the missing-instance check applies to the
			// instances this leg actually ran.
			gold = gold.Restrict(bench.InstanceNames(insts))
		}
		diffs, degraded := bench.DiffGolden(gold, bench.GoldenFromResults(baseCfg, full))
		if len(degraded) > 0 {
			// Degraded verdicts (unknown: canceled / internal error) mean the
			// run was interrupted or fault-injected — informational, not a
			// regression.
			fmt.Fprintf(os.Stderr, "qed2bench: %d degraded verdict(s) against %s (non-failing):\n", len(degraded), *golden)
			for _, d := range degraded {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
		}
		if len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "qed2bench: %d golden-verdict regression(s) against %s:\n", len(diffs), *golden)
			for _, d := range diffs {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
			exit = 1
		} else {
			fmt.Fprintf(os.Stderr, "golden verdicts: %d instances match %s (%d degraded)\n", len(gold.Verdicts)-len(degraded), *golden, len(degraded))
		}
	}
	if *baseline != "" {
		base, err := bench.LoadRunRecord(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			os.Exit(1)
		}
		if err := bench.CompareBaseline(base, rec, *maxSlowdown); err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			exit = 1
		} else {
			cur, prev := rec.Section("run:full"), base.Section("run:full")
			fmt.Fprintf(os.Stderr, "bench guard: analysis time %.0f ms vs baseline %.0f ms (<= %.1fx)\n",
				cur.AnalyzeMS, prev.AnalyzeMS, *maxSlowdown)
		}
	}
	if rec != nil {
		rec.Counters = reg.Counters()
		if *jsonOut != "" {
			b, err := rec.Finish(time.Since(started))
			if err == nil {
				err = os.WriteFile(*jsonOut, b, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "qed2bench: writing %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "run record written to %s\n", *jsonOut)
		}
	}
	stopSampler()
	if err := tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "qed2bench: writing trace:", err)
		os.Exit(1)
	}
	if *printMetrics {
		reg.Render(os.Stderr)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "qed2bench: interrupted — results above are partial; rerun with -checkpoint/-resume to continue")
		if exit == 0 {
			exit = 130
		}
	}
	os.Exit(exit)
}

// runMerge recombines per-shard golden snapshots (comma-separated paths):
// with -golden-out the merged snapshot is written, with -golden it is
// diffed against the checked-in file. Returns the process exit code.
func runMerge(parts, goldenPath, goldenOutPath string) int {
	var files []*bench.GoldenFile
	for _, p := range strings.Split(parts, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		g, err := bench.LoadGolden(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			return 1
		}
		files = append(files, g)
	}
	merged, err := bench.MergeGolden(files)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qed2bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "merged %d shard file(s): %d instances\n", len(files), len(merged.Verdicts))
	if goldenOutPath != "" {
		b, err := merged.Marshal()
		if err == nil {
			err = os.WriteFile(goldenOutPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qed2bench: writing %s: %v\n", goldenOutPath, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "merged golden verdicts written to %s\n", goldenOutPath)
	}
	if goldenPath != "" {
		gold, err := bench.LoadGolden(goldenPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qed2bench:", err)
			return 1
		}
		diffs, degraded := bench.DiffGolden(gold, merged)
		if len(degraded) > 0 {
			fmt.Fprintf(os.Stderr, "qed2bench: %d degraded verdict(s) against %s (non-failing):\n", len(degraded), goldenPath)
			for _, d := range degraded {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
		}
		if len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "qed2bench: %d golden-verdict regression(s) against %s:\n", len(diffs), goldenPath)
			for _, d := range diffs {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
			return 1
		}
		fmt.Fprintf(os.Stderr, "golden verdicts: %d instances match %s (%d degraded)\n",
			len(gold.Verdicts)-len(degraded), goldenPath, len(degraded))
	}
	return 0
}

// serveDebug exposes net/http/pprof (registered on the default mux by the
// blank import) plus a JSON snapshot of the pipeline counters and runtime
// memory statistics under /metrics. Best effort: a busy port is reported,
// not fatal.
func serveDebug(addr string, reg *obs.Metrics) {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"goroutines": runtime.NumGoroutine(),
			"heap_alloc": ms.HeapAlloc,
			"num_gc":     ms.NumGC,
			"counters":   reg.Counters(),
			"histograms": reg.Histograms(),
		})
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "qed2bench: pprof server on %s: %v\n", addr, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "pprof + /metrics serving on http://%s/debug/pprof/\n", addr)
}
