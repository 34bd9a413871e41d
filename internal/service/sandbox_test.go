package service

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"qed2/internal/bench"
	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
)

// TestMain doubles this test binary as the sandbox worker: when the harness
// re-execs os.Args[0] with the "worker" subcommand, the process runs
// WorkerMain instead of the test suite — the exact dispatch cmd/qed2d does —
// so the full parent/child pipe protocol is exercised hermetically, without
// building the daemon binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(WorkerMain(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func testSandbox(m *obs.Metrics) *Sandbox {
	return &Sandbox{
		Binary:  os.Args[0],
		Wall:    60 * time.Second,
		RSSPoll: 10 * time.Millisecond,
		Metrics: m,
	}
}

func TestSandboxRunDelivery(t *testing.T) {
	m := obs.NewMetrics()
	e := New(Config{Analyzer: testConfig(), Workers: 2, Metrics: m, Runner: testSandbox(m).Run})
	defer e.Close()

	j, err := e.SubmitSource("alice", srcSafe)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.Status != StatusDone || v.Report == nil || v.Report.Verdict != "safe" {
		t.Fatalf("sandboxed safe job = %+v report %+v", v, v.Report)
	}
	// Progress events must cross the process boundary, not just the report.
	evs, _ := j.EventsSince(0)
	var sawProgress bool
	for _, ev := range evs {
		if ev.Kind == "progress" {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatalf("no progress events crossed the worker pipe: %+v", evs)
	}

	// Counterexamples survive the wire format too.
	j2, err := e.SubmitSource("alice", srcBuggy)
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitTerminal(t, j2)
	if v2.Status != StatusDone || v2.Report.Verdict != "unsafe" || v2.Report.CEOutput == "" {
		t.Fatalf("sandboxed buggy job = %+v report %+v", v2, v2.Report)
	}
	if got := m.Counters()["service.sandbox.spawns"]; got < 2 {
		t.Fatalf("service.sandbox.spawns = %d, want >= 2", got)
	}
}

// TestSandboxRunsTheWireConfig: the child analyzes under exactly the
// configuration the parent holds, so a sandboxed summary equals the
// in-process one apart from its duration. Each variant changes one
// verdict-relevant field and is checked to change some in-process summary,
// so a field dropped on the -config wire cannot go unnoticed.
func TestSandboxRunsTheWireConfig(t *testing.T) {
	var systems []*r1cs.System
	for _, name := range []string{"Num2BitsNeg(4)", "LessThan(8)"} {
		in, _ := bench.ByName(bench.Suite(), name)
		prog, err := circom.Compile(in.Source(), &circom.CompileOptions{Library: bench.Library()})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, prog.System)
	}
	inProcess := func(sys *r1cs.System, cfg core.Config) core.Summary {
		sum := core.AnalyzeContext(context.Background(), sys, &cfg).Summary(sys)
		sum.DurationMS = 0
		return sum
	}
	base := core.Config{QuerySteps: 2_000, GlobalSteps: 40_000, Seed: 1, Workers: 2}
	sb := testSandbox(nil)
	for _, variant := range []func(*core.Config){
		func(*core.Config) {}, // the base configuration itself
		func(c *core.Config) { c.Mode = core.ModeSMTOnly },
		func(c *core.Config) { c.SliceRadius = 1 },
		func(c *core.Config) { c.QuerySteps = 10 },
		func(c *core.Config) { c.GlobalSteps = 50 },
		func(c *core.Config) { c.DisableSolveRule = true },
		func(c *core.Config) { c.DisableBitsRule = true },
	} {
		cfg := base
		variant(&cfg)
		changed := cfg.Stamp() == base.Stamp()
		for _, sys := range systems {
			got, err := sb.Run(context.Background(), sys, cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Stamp(), err)
			}
			got.DurationMS = 0
			want := inProcess(sys, cfg)
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("%s: sandboxed summary %+v, in-process %+v", cfg.Stamp(), *got, want)
			}
			changed = changed || !reflect.DeepEqual(want, inProcess(sys, base))
		}
		if !changed {
			t.Errorf("%s: no test circuit's summary depends on this change — the variant proves nothing", cfg.Stamp())
		}
	}
}

func TestSandboxWorkerKillIsHardFault(t *testing.T) {
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "worker.kill", Kind: faultinject.KindError, Every: 1},
	}})
	defer faultinject.Disable()

	m := obs.NewMetrics()
	e := New(Config{Analyzer: testConfig(), Workers: 1, Metrics: m, Runner: testSandbox(m).Run})
	defer e.Close()

	j, err := e.SubmitSource("alice", srcSafe)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.Status != StatusFailed {
		t.Fatalf("killed worker's job = %+v", v)
	}
	if v.Report == nil || v.Report.Degraded != "hard-fault" {
		t.Fatalf("killed worker's report = %+v, want hard-fault degradation", v.Report)
	}
	if !v.Retriable {
		t.Fatal("hard-fault job must be retriable")
	}
	if got := m.Counters()["service.jobs.hard_faults"]; got != 1 {
		t.Fatalf("service.jobs.hard_faults = %d, want 1", got)
	}

	// The daemon-side engine is unharmed: with faults off, the same digest
	// analyzes normally (one fault is below the quarantine threshold).
	faultinject.Disable()
	j2, err := e.SubmitSource("alice", srcSafe)
	if err != nil {
		t.Fatal(err)
	}
	if v2 := waitTerminal(t, j2); v2.Status != StatusDone || v2.Report.Verdict != "safe" {
		t.Fatalf("post-fault job = %+v report %+v", v2, v2.Report)
	}
}

func TestSandboxWallClockWatchdog(t *testing.T) {
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "worker.hang", Kind: faultinject.KindError, Every: 1},
	}})
	defer faultinject.Disable()

	m := obs.NewMetrics()
	sb := testSandbox(m)
	sb.Wall = 300 * time.Millisecond
	e := New(Config{Analyzer: testConfig(), Workers: 1, Metrics: m, Runner: sb.Run})
	defer e.Close()

	j, err := e.SubmitSource("alice", srcSafe)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.Status != StatusFailed || v.Report == nil || v.Report.Degraded != "hard-fault" {
		t.Fatalf("hung worker's job = %+v report %+v", v, v.Report)
	}
	if !strings.Contains(v.Error, "wall-clock") {
		t.Fatalf("hung worker's error = %q, want wall-clock watchdog kill", v.Error)
	}
	if got := m.Counters()["service.sandbox.wall_kills"]; got != 1 {
		t.Fatalf("service.sandbox.wall_kills = %d, want 1", got)
	}
}

func TestSandboxQuarantineBreaker(t *testing.T) {
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "worker.kill", Kind: faultinject.KindError, Every: 1},
	}})
	defer faultinject.Disable()

	m := obs.NewMetrics()
	e := New(Config{
		Analyzer:            testConfig(),
		Workers:             1,
		Metrics:             m,
		Runner:              testSandbox(m).Run,
		QuarantineThreshold: 2,
		QuarantineCooldown:  100 * time.Millisecond,
	})
	defer e.Close()

	// Two consecutive hard faults trip the digest's breaker.
	for i := 0; i < 2; i++ {
		j, err := e.SubmitSource("alice", srcSafe)
		if err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
		if v := waitTerminal(t, j); v.Status != StatusFailed || v.Report.Degraded != "hard-fault" {
			t.Fatalf("fault %d: job = %+v", i, v)
		}
	}

	// Open breaker: fail fast with the typed quarantine error.
	_, err := e.SubmitSource("alice", srcSafe)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("submission after trip: err = %v, want ErrQuarantined", err)
	}
	var qe *QuarantineError
	if !errors.As(err, &qe) || qe.Faults != 2 || qe.RetryAfter <= 0 {
		t.Fatalf("quarantine error = %+v", qe)
	}
	if n := e.QuarantineOpenCount(); n != 1 {
		t.Fatalf("QuarantineOpenCount = %d, want 1", n)
	}
	if got := m.Counters()["service.jobs.quarantined"]; got != 1 {
		t.Fatalf("service.jobs.quarantined = %d, want 1", got)
	}

	// Cooldown elapses and the fault clears (transient pressure): the next
	// submission is the half-open probe, and its success closes the breaker.
	faultinject.Disable()
	time.Sleep(150 * time.Millisecond)
	j, err := e.SubmitSource("alice", srcSafe)
	if err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if v := waitTerminal(t, j); v.Status != StatusDone || v.Report.Verdict != "safe" {
		t.Fatalf("probe job = %+v", v)
	}
	if n := e.QuarantineOpenCount(); n != 0 {
		t.Fatalf("QuarantineOpenCount after recovery = %d, want 0", n)
	}
}

// TestSandboxWatchdogGoroutineFence runs a mix of healthy, killed, and hung
// sandbox jobs and asserts every watchdog and reader goroutine is joined —
// the leak fence for the supervision machinery.
func TestSandboxWatchdogGoroutineFence(t *testing.T) {
	before := runtime.NumGoroutine()

	faultinject.Enable(&faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Site: "worker.kill", Kind: faultinject.KindError, Every: 3},
		{Site: "worker.hang", Kind: faultinject.KindError, Every: 4},
	}})
	defer faultinject.Disable()

	m := obs.NewMetrics()
	sb := testSandbox(m)
	sb.Wall = 500 * time.Millisecond
	e := New(Config{Analyzer: testConfig(), Workers: 2, Metrics: m, Runner: sb.Run})
	jobs := make([]*Job, 0, 8)
	for i := 0; i < 8; i++ {
		j, err := e.SubmitSource("alice", srcMul(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		v := waitTerminal(t, j)
		if v.Status != StatusDone && v.Status != StatusFailed {
			t.Fatalf("job %s = %+v", j.ID, v)
		}
	}
	e.Close()
	faultinject.Disable()
	assertNoGoroutineLeak(t, before)
}
