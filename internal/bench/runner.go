package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/smt"
)

// Result is the outcome of analyzing one instance.
type Result struct {
	Instance Instance
	// CompileErr is set when the front-end rejected the instance (a harness
	// bug, not an analysis outcome).
	CompileErr error
	// Summary is the analysis outcome (zero if compilation failed). It is
	// the same value whether the instance was analyzed in this run,
	// rehydrated from a checkpoint, or replayed through a qed2d daemon.
	Summary core.Summary
	// CompileTime and AnalyzeTime split the wall clock.
	CompileTime time.Duration
	AnalyzeTime time.Duration
}

// Solved reports whether the analysis reached a definite verdict.
func (r Result) Solved() bool { return r.Summary.Decided() }

// RunOptions configures a suite run.
type RunOptions struct {
	// Config is the analyzer configuration applied to every instance.
	Config core.Config
	// Workers is the number of instances analyzed concurrently (default:
	// GOMAXPROCS). Query-level parallelism within one analysis is
	// configured separately via Config.Workers.
	Workers int
	// Progress, when non-nil, is called after each instance completes.
	// Invocations are serialized and done is strictly monotonic, so the
	// callback needs no locking of its own.
	Progress func(done, total int, r Result)
	// Obs, when non-nil, receives one "bench.run" span per Run call with a
	// "bench.instance" child (wrapping compile + analysis spans) per
	// instance; Metrics receives the aggregated pipeline counters. With
	// Workers > 1 the interleaving of instance events in the trace depends
	// on scheduling; results and counter totals do not.
	Obs     *obs.Tracer
	Metrics *obs.Metrics
	// Checkpoint, when non-nil, receives one record per freshly completed
	// instance. Results degraded by cancellation are not persisted: a
	// resumed run must re-analyze them, so resume converges to the same
	// verdict set as an uninterrupted run.
	Checkpoint *CheckpointWriter
	// Completed maps instance names to records from a previous run's
	// checkpoint; those instances are skipped and their results rehydrated
	// (see resultFromRecord) instead of re-analyzed.
	Completed map[string]InstanceRecord
}

// Run compiles and analyzes every instance, preserving input order.
func Run(insts []Instance, opts *RunOptions) []Result {
	return RunContext(context.Background(), insts, opts)
}

// RunContext is Run with cancellation: once ctx is canceled, in-flight
// analyses stop at their next query boundary (reporting unknown: canceled)
// and every not-yet-started instance is stamped with the same partial
// verdict instead of being analyzed, so the caller always gets one Result
// per instance no matter when the cancellation fired.
func RunContext(ctx context.Context, insts []Instance, opts *RunOptions) []Result {
	o := RunOptions{}
	if opts != nil {
		o = *opts
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	rs := o.Obs.Start(nil, "bench.run",
		obs.KV("instances", len(insts)), obs.KV("workers", o.Workers))
	defer rs.End()
	results := make([]Result, len(insts))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		// progressMu serializes the Progress callback and guards done, so
		// callers observe a strictly increasing done counter even when
		// workers finish out of order.
		progressMu sync.Mutex
		done       int
	)
	progress := func(i int) {
		progressMu.Lock()
		done++
		if o.Progress != nil {
			o.Progress(done, len(insts), results[i])
		}
		progressMu.Unlock()
	}
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(insts) {
					return
				}
				if rec, ok := o.Completed[insts[i].Name]; ok {
					results[i] = resultFromRecord(insts[i], rec)
					progress(i)
					continue
				}
				if ctx.Err() != nil {
					results[i] = canceledResult(insts[i])
					progress(i)
					continue
				}
				results[i] = runOne(ctx, insts[i], o.Config, o.Obs, rs, o.Metrics)
				if o.Checkpoint != nil && !degradedByCancel(results[i]) {
					o.Checkpoint.Append(instanceRecordOf(results[i]))
				}
				progress(i)
			}
		}()
	}
	wg.Wait()
	return results
}

// canceledResult stamps an instance that was never analyzed because the run
// was canceled first.
func canceledResult(inst Instance) Result {
	sum := core.Summary{Verdict: core.VerdictUnknown.String(), Reason: smt.Canceled, Degraded: core.DegradedCanceled}
	return Result{Instance: inst, Summary: sum}
}

// degradedByCancel reports whether a result's unknown verdict is an
// artifact of cancellation rather than a real budget outcome. Such results
// must not be checkpointed — resuming re-analyzes them. The check is on the
// structured Degraded flag, not the Reason string: core wraps mid-round
// cancellations into "output X undecided: canceled" phrases that no string
// equality would survive.
func degradedByCancel(r Result) bool {
	return r.Summary.Degraded == core.DegradedCanceled
}

func runOne(ctx context.Context, inst Instance, cfg core.Config, tr *obs.Tracer, parent *obs.Span, metrics *obs.Metrics) Result {
	res := Result{Instance: inst}
	is := tr.Start(parent, "bench.instance",
		obs.KV("instance", inst.Name), obs.KV("category", inst.Category))
	verdict := runInstance(ctx, inst, &res, cfg, tr, is, metrics)
	is.End(obs.KV("verdict", verdict),
		obs.KV("analyze_us", res.AnalyzeTime.Microseconds()))
	return res
}

// runInstance does the compile + analyze work of one instance under a panic
// boundary: a crash anywhere in the front-end, the analysis, or the
// counterexample summary is converted into a per-instance failure result
// instead of killing the whole suite run. A panic before the front-end
// finished becomes a CompileErr; after that it becomes an Unknown report —
// in both cases only ever a degradation, never a flipped verdict.
func runInstance(ctx context.Context, inst Instance, res *Result, cfg core.Config, tr *obs.Tracer, is *obs.Span, metrics *obs.Metrics) (verdict string) {
	compiled := false
	defer func() {
		if r := recover(); r != nil {
			tr.Event(is, "bench.instance.panic",
				obs.KV("instance", inst.Name), obs.KV("panic", fmt.Sprint(r)))
			if !compiled {
				res.CompileErr = fmt.Errorf("bench: %s: internal error: %v", inst.Name, r)
				verdict = "compile-error"
				return
			}
			res.Summary = core.InternalError(r).Summary(nil)
			verdict = res.Summary.Verdict
		}
	}()
	if faultinject.Enabled() {
		faultinject.Check("bench.instance")
	}
	t0 := time.Now()
	prog, err := inst.Compile()
	res.CompileTime = time.Since(t0)
	if err != nil {
		res.CompileErr = fmt.Errorf("bench: %s: %w", inst.Name, err)
		return "compile-error"
	}
	compiled = true
	cfg.Obs = tr
	cfg.ObsParent = is
	cfg.Metrics = metrics
	t1 := time.Now()
	rep := core.AnalyzeContext(ctx, prog.System, &cfg)
	res.AnalyzeTime = time.Since(t1)
	res.Summary = rep.Summary(prog.System)
	return res.Summary.Verdict
}

// Tally aggregates verdicts over a result set.
type Tally struct {
	Total, Safe, Unsafe, Unknown, CompileErrors int
}

// Add folds one result into the tally.
func (t *Tally) Add(r Result) {
	t.Total++
	switch {
	case r.CompileErr != nil:
		t.CompileErrors++
	case r.Summary.Verdict == core.VerdictSafe.String():
		t.Safe++
	case r.Summary.Verdict == core.VerdictUnsafe.String():
		t.Unsafe++
	default:
		t.Unknown++
	}
}

// Solved returns the number of definitely-decided instances.
func (t Tally) Solved() int { return t.Safe + t.Unsafe }

// SolvedPct returns the solved percentage.
func (t Tally) SolvedPct() float64 {
	if t.Total == 0 {
		return 0
	}
	return 100 * float64(t.Solved()) / float64(t.Total)
}

// TallyOf aggregates a result slice.
func TallyOf(results []Result) Tally {
	var t Tally
	for _, r := range results {
		t.Add(r)
	}
	return t
}
