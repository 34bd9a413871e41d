package bench

import (
	"context"
	"runtime"
	"testing"
	"time"

	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
)

// chaosConfig keeps chaos runs fast: step budgets small enough that the full
// suite finishes in seconds, query-level parallelism > 1 so the worker pool
// itself is exercised under -race.
func chaosConfig() core.Config {
	return core.Config{QuerySteps: 500, GlobalSteps: 10_000, Workers: 2, Seed: 1}
}

// verdictOf classifies a result for monotone-degradation comparisons.
func verdictOf(r Result) string {
	if r.CompileErr != nil {
		return "compile-error"
	}
	return r.Summary.Verdict
}

// assertMonotoneDegradation checks the fault-tolerance invariant between a
// clean run and a chaos run over the same instances: faults may degrade a
// decided verdict to unknown (or leave it alone), but must never flip
// safe <-> unsafe — those verdicts require a sound UNSAT proof or a checked
// witness pair, which no injected fault can fabricate.
func assertMonotoneDegradation(t *testing.T, base, chaos []Result) {
	t.Helper()
	if len(base) != len(chaos) {
		t.Fatalf("result counts differ: %d vs %d", len(base), len(chaos))
	}
	for i := range base {
		b, c := verdictOf(base[i]), verdictOf(chaos[i])
		if (b == "safe" && c == "unsafe") || (b == "unsafe" && c == "safe") {
			t.Errorf("%s: verdict flipped %s -> %s under fault injection",
				base[i].Instance.Name, b, c)
		}
	}
}

// assertNoGoroutineLeak retries until the goroutine count settles back to
// (roughly) its pre-run level. The slack absorbs runtime-internal goroutines;
// worker pools must be fully joined by the time Run returns, so anything
// beyond that is a leak.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosSolvePanicsMonotoneDegradation is the headline chaos schedule:
// forced panics in a substantial fraction of solver queries across the whole
// benchmark suite. The run must terminate, leak no goroutines, keep every
// verdict monotone (decided verdicts only ever degrade to unknown), and the
// schedule must actually have crashed >= 10% of queries — otherwise the test
// would vacuously pass with a misconfigured plan.
func TestChaosSolvePanicsMonotoneDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs the full benchmark twice")
	}
	insts := Suite()
	cfg := chaosConfig()
	base := Run(insts, &RunOptions{Config: cfg})

	before := runtime.NumGoroutine()
	faultinject.Enable(&faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{
		{Site: "smt.solve", Kind: faultinject.KindPanic, Rate: 0.15},
	}})
	defer faultinject.Disable()
	reg := obs.NewMetrics()
	chaos := Run(insts, &RunOptions{Config: cfg, Metrics: reg})
	faultinject.Disable()
	assertNoGoroutineLeak(t, before)

	assertMonotoneDegradation(t, base, chaos)

	var queries int
	for _, r := range chaos {
		queries += r.Summary.Queries
	}
	panics := int(reg.Counters()["core.query.panics"])
	if queries == 0 {
		t.Fatal("chaos run issued no solver queries")
	}
	if ratio := float64(panics) / float64(queries); ratio < 0.10 {
		t.Fatalf("panic schedule fired on %.1f%% of %d queries, want >= 10%%",
			100*ratio, queries)
	}
}

// TestChaosMixedFaultKinds layers injected solver errors, step-level early
// deadlines, and query latency over a suite subset: the degraded run must
// terminate, join all workers, and stay verdict-monotone versus a clean run.
func TestChaosMixedFaultKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedules re-run part of the benchmark suite")
	}
	insts := Suite()
	if len(insts) > 40 {
		insts = insts[:40]
	}
	cfg := chaosConfig()
	base := Run(insts, &RunOptions{Config: cfg})

	before := runtime.NumGoroutine()
	faultinject.Enable(&faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		{Site: "smt.solve", Kind: faultinject.KindError, Rate: 0.2, Msg: "injected solver fault"},
		{Site: "smt.step", Kind: faultinject.KindDeadline, Rate: 0.005},
		{Site: "core.query", Kind: faultinject.KindLatency, Every: 7, Delay: time.Millisecond},
	}})
	defer faultinject.Disable()
	chaos := Run(insts, &RunOptions{Config: cfg})
	hits := faultinject.Hits()
	faultinject.Disable()
	assertNoGoroutineLeak(t, before)

	assertMonotoneDegradation(t, base, chaos)
	for _, site := range []string{"smt.solve", "smt.step", "core.query"} {
		if hits[site] == 0 {
			t.Errorf("chaos schedule never reached site %s", site)
		}
	}
}

// TestChaosInstancePanicIsolation crashes entire bench instances: every 4th
// instance panics before its front-end runs. Each crash must stay contained
// to its own Result (as a compile-error), every other instance must match the
// clean run exactly, and the run must still produce one result per instance.
func TestChaosInstancePanicIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedules re-run part of the benchmark suite")
	}
	insts := Suite()
	if len(insts) > 24 {
		insts = insts[:24]
	}
	cfg := chaosConfig()
	base := Run(insts, &RunOptions{Config: cfg})

	// Workers: 1 so the per-site hit counter maps deterministically onto the
	// instance order and the fired set is reproducible.
	before := runtime.NumGoroutine()
	faultinject.Enable(&faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Site: "bench.instance", Kind: faultinject.KindPanic, Every: 4},
	}})
	defer faultinject.Disable()
	chaos := RunContext(context.Background(), insts, &RunOptions{Config: cfg, Workers: 1})
	faultinject.Disable()
	assertNoGoroutineLeak(t, before)

	if len(chaos) != len(insts) {
		t.Fatalf("got %d results for %d instances", len(chaos), len(insts))
	}
	crashed := 0
	for i, r := range chaos {
		if (i+1)%4 == 0 {
			crashed++
			if r.CompileErr == nil || r.Summary.Verdict != "" {
				t.Errorf("%s: expected contained instance crash, got %+v", r.Instance.Name, r)
			}
			continue
		}
		if got, want := verdictOf(r), verdictOf(base[i]); got != want {
			t.Errorf("%s: uninjected instance changed verdict %s -> %s", r.Instance.Name, want, got)
		}
	}
	if crashed == 0 {
		t.Fatal("schedule crashed no instances")
	}
}
