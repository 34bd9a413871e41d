package service

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/store"
)

// Chaos coverage for the service-layer fault sites (service.enqueue,
// service.store.get, service.store.put), following the bench chaos harness
// contract: under injected faults the engine may degrade (retries, cache
// misses, failed jobs) but must never flip a decided verdict, leak
// goroutines, or wedge.

func chaosAnalyzer() core.Config {
	return core.Config{QuerySteps: 500, GlobalSteps: 10_000, Workers: 2, Seed: 1}
}

// runSuiteThroughEngine submits every instance (retrying transient
// admission rejections, as an HTTP client would on 429) and returns the
// terminal verdict per instance name. mod, when non-nil, adjusts the engine
// configuration before New (sandbox runner, different store tier).
func runSuiteThroughEngine(t *testing.T, insts []bench.Instance, mod func(*Config)) map[string]string {
	t.Helper()
	m := obs.NewMetrics()
	st, err := store.Open(store.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Analyzer:   chaosAnalyzer(),
		Workers:    2,
		QueueDepth: 8,
		Store:      st,
		Library:    bench.Library(),
		Metrics:    m,
	}
	if mod != nil {
		mod(&cfg)
	}
	e := New(cfg)
	defer e.Close()
	jobs := map[string]*Job{}
	out := map[string]string{}
	for _, inst := range insts {
		src := inst.Source()
		var j *Job
		var err error
		for attempt := 0; ; attempt++ {
			j, err = e.SubmitSource("chaos", src)
			if err == nil {
				break
			}
			if (errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantQuota)) && attempt < 5000 {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			break
		}
		if err != nil {
			out[inst.Name] = "compile-error"
			continue
		}
		jobs[inst.Name] = j
	}
	for name, j := range jobs {
		v := waitTerminal(t, j)
		switch v.Status {
		case StatusDone:
			out[name] = v.Report.Verdict
		default:
			// Failed (injected panic) or canceled: a degraded unknown.
			out[name] = "unknown"
		}
	}
	return out
}

func decided(v string) bool { return v == "safe" || v == "unsafe" }

func TestChaosServiceFaultSites(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes seconds; skipped in -short")
	}
	before := runtime.NumGoroutine()
	insts := bench.Suite()[:16]

	clean := runSuiteThroughEngine(t, insts, nil)

	faultinject.Enable(&faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{
		{Site: "service.enqueue", Kind: faultinject.KindError, Rate: 0.25},
		{Site: "service.store.get", Kind: faultinject.KindError, Rate: 0.3},
		{Site: "service.store.put", Kind: faultinject.KindError, Rate: 0.3},
		{Site: "core.query", Kind: faultinject.KindPanic, Rate: 0.02},
	}})
	defer faultinject.Disable()
	faulty := runSuiteThroughEngine(t, insts, nil)
	hits := faultinject.Hits()
	faultinject.Disable()

	for _, site := range []string{"service.enqueue", "service.store.get", "service.store.put"} {
		if hits[site] == 0 {
			t.Errorf("site %s never exercised (hits=%v)", site, hits)
		}
	}
	if len(faulty) != len(insts) {
		t.Fatalf("faulty run produced %d outcomes for %d instances", len(faulty), len(insts))
	}
	// Verdict monotonicity: faults may degrade a decided verdict to
	// unknown, never change one decided verdict into another.
	for name, cv := range clean {
		fv := faulty[name]
		if decided(cv) && decided(fv) && cv != fv {
			t.Errorf("%s: verdict flipped under faults: clean=%s faulty=%s", name, cv, fv)
		}
	}
	assertNoGoroutineLeak(t, before)
}

// TestChaosSandboxFaultSites runs the suite through a sandboxed engine with
// the hard-fault sites armed — worker.kill (child SIGKILLs itself
// mid-analysis), worker.hang (child wedges until the wall watchdog fires),
// and store.corrupt (disk-tier reads see flipped bytes) — under the same
// contract as the soft-fault chaos run: outcomes may degrade to unknown,
// decided verdicts never flip, nothing leaks or wedges.
func TestChaosSandboxFaultSites(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run spawns worker processes; skipped in -short")
	}
	before := runtime.NumGoroutine()
	insts := bench.Suite()[:12]
	dir := t.TempDir()

	sandboxed := func(wall time.Duration) func(*Config) {
		return func(cfg *Config) {
			m := cfg.Metrics
			st, err := store.Open(store.Options{Dir: dir, Stamp: cfg.Analyzer.Stamp(), Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Store = st
			sb := &Sandbox{Binary: os.Args[0], Wall: wall, Metrics: m}
			cfg.Runner = sb.Run
			// Quarantine is covered by its own tests; an effectively
			// unreachable threshold keeps every resubmission admissible here.
			cfg.QuarantineThreshold = 1 << 20
		}
	}

	clean := runSuiteThroughEngine(t, insts, sandboxed(60*time.Second))

	faultinject.Enable(&faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		{Site: "worker.kill", Kind: faultinject.KindError, Rate: 0.2},
		{Site: "worker.hang", Kind: faultinject.KindError, Rate: 0.15},
		{Site: "store.corrupt", Kind: faultinject.KindError, Rate: 0.3},
	}})
	defer faultinject.Disable()
	faulty := runSuiteThroughEngine(t, insts, sandboxed(2*time.Second))
	hits := faultinject.Hits()
	faultinject.Disable()

	for _, site := range []string{"worker.kill", "worker.hang", "store.corrupt"} {
		if hits[site] == 0 {
			t.Errorf("site %s never exercised (hits=%v)", site, hits)
		}
	}
	if len(faulty) != len(insts) {
		t.Fatalf("faulty run produced %d outcomes for %d instances", len(faulty), len(insts))
	}
	for name, cv := range clean {
		fv := faulty[name]
		if decided(cv) && decided(fv) && cv != fv {
			t.Errorf("%s: verdict flipped under hard faults: clean=%s faulty=%s", name, cv, fv)
		}
	}
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak waits for the goroutine count to return to (near)
// its pre-test level, mirroring the bench chaos harness fence.
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
		time.Sleep(50 * time.Millisecond)
	}
}
