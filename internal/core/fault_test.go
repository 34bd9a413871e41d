package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/smt"
	"qed2/internal/uniq"
)

// newTestAnalysis builds a bare analysis over sys for white-box scheduler
// tests, with the observability handles left as nil-safe no-ops unless a
// tracer is supplied.
func newTestAnalysis(sys *r1cs.System, cfg Config, ctx context.Context, tr *obs.Tracer) *analysis {
	c := cfg.withDefaults()
	c.Obs = tr
	a := &analysis{
		sys:    sys,
		cfg:    c,
		ctx:    ctx,
		start:  time.Now(),
		report: &Report{},
		prop:   uniq.New(sys),
	}
	a.stepsRem.Store(c.GlobalSteps)
	a.span = tr.Start(nil, "core.analyze")
	return a
}

func TestReserveRefundExactAccounting(t *testing.T) {
	a := &analysis{cfg: Config{QuerySteps: 100}}
	a.stepsRem.Store(250)
	if got := a.reserve(); got != 100 {
		t.Fatalf("first reserve = %d, want 100", got)
	}
	if got := a.reserve(); got != 100 {
		t.Fatalf("second reserve = %d, want 100", got)
	}
	// Only 50 left: the grant is clamped, not overdrawn.
	if got := a.reserve(); got != 50 {
		t.Fatalf("third reserve = %d, want clamped 50", got)
	}
	if got := a.reserve(); got != 0 {
		t.Fatalf("reserve on empty pool = %d, want 0", got)
	}
	a.refund(30)
	if got := a.reserveN(20); got != 20 {
		t.Fatalf("reserveN(20) after refund = %d, want 20", got)
	}
	if got := a.stepsRem.Load(); got != 10 {
		t.Fatalf("stepsRem = %d, want 10 (250-100-100-50+30-20)", got)
	}
	// A negative refund models the one-step overshoot of a final step check.
	a.refund(-1)
	if got := a.stepsRem.Load(); got != 9 {
		t.Fatalf("stepsRem after overshoot refund = %d, want 9", got)
	}
}

func TestAdmitOnExhaustedBudgetYieldsUnknownWithoutDispatch(t *testing.T) {
	p := compile(t, isZeroBuggy)
	a := newTestAnalysis(p.System, Config{}, context.Background(), nil)
	a.stepsRem.Store(0)
	sl := p.System.SliceAround(a.prop.Unknown()[0], 2, 64)
	task := &queryTask{sig: a.prop.Unknown()[0], cons: sl.Constraints}
	a.admit(task, len(sl.Signals))
	if task.budget != 0 {
		t.Fatalf("budget = %d, want 0", task.budget)
	}
	if task.out.Status != smt.StatusUnknown || task.out.Reason != "global budget exhausted" {
		t.Fatalf("outcome = %+v, want unknown/global budget exhausted", task.out)
	}
	// An exhausted-budget task must not be counted as a solver query.
	a.accountTask(task)
	if a.report.Stats.Queries != 0 {
		t.Fatalf("queries = %d, want 0", a.report.Stats.Queries)
	}
}

// admitTasks admits every unknown signal of a fresh analysis into one round's
// task list, mirroring the dispatch loop of runFull.
func admitTasks(a *analysis) []*queryTask {
	var tasks []*queryTask
	for _, s := range a.prop.Unknown() {
		sl := a.sys.SliceAround(s, a.cfg.SliceRadius, maxSliceConstraints)
		t := &queryTask{sig: s, cons: sl.Constraints, full: len(sl.Constraints) == a.sys.NumConstraints()}
		a.admit(t, len(sl.Signals))
		tasks = append(tasks, t)
	}
	return tasks
}

func TestExpiredDeadlineSkipsQueriesAndRefundsBudget(t *testing.T) {
	p := compile(t, isZeroBuggy)
	var trace bytes.Buffer
	tr := obs.New(&trace)
	a := newTestAnalysis(p.System, Config{Workers: 2}, context.Background(), tr)
	a.deadline = time.Now().Add(-time.Second)
	total := a.stepsRem.Load()

	tasks := admitTasks(a)
	if len(tasks) == 0 {
		t.Fatal("test circuit produced no tasks")
	}
	a.runRound(tasks, a.prop.Snapshot().IsUnique)
	for _, task := range tasks {
		if task.ran {
			t.Fatalf("task for sig %d ran past an expired deadline", task.sig)
		}
		if task.panicked {
			t.Fatalf("task for sig %d marked panicked", task.sig)
		}
		if task.out.Status != smt.StatusUnknown || task.out.Reason != smt.DeadlineExceeded {
			t.Fatalf("task outcome = %+v, want unknown/%s", task.out, smt.DeadlineExceeded)
		}
		a.accountTask(task)
	}
	// Every reserved grant must have been refunded at the skip site.
	if got := a.stepsRem.Load(); got != total {
		t.Fatalf("stepsRem = %d, want full pool %d restored", got, total)
	}
	if a.report.Stats.Queries != 0 || a.report.Stats.SolverSteps != 0 {
		t.Fatalf("stats counted skipped queries: %+v", a.report.Stats)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"core.query.skipped"`) ||
		!strings.Contains(trace.String(), smt.DeadlineExceeded) {
		t.Fatal("trace missing core.query.skipped event with deadline reason")
	}
}

func TestCanceledContextSkipsQueriesAndRefundsBudget(t *testing.T) {
	p := compile(t, isZeroBuggy)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var trace bytes.Buffer
	tr := obs.New(&trace)
	a := newTestAnalysis(p.System, Config{}, ctx, tr)
	total := a.stepsRem.Load()

	tasks := admitTasks(a)
	a.runRound(tasks, a.prop.Snapshot().IsUnique)
	for _, task := range tasks {
		if task.ran {
			t.Fatalf("task for sig %d ran under a canceled context", task.sig)
		}
		if task.out.Status != smt.StatusUnknown || task.out.Reason != smt.Canceled {
			t.Fatalf("task outcome = %+v, want unknown/%s", task.out, smt.Canceled)
		}
	}
	if got := a.stepsRem.Load(); got != total {
		t.Fatalf("stepsRem = %d, want full pool %d restored", got, total)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"core.query.skipped"`) ||
		!strings.Contains(trace.String(), smt.Canceled) {
		t.Fatal("trace missing core.query.skipped event with canceled reason")
	}
}

// TestRunQueryPanicQuarantineAndRetry drives the degrade-and-retry path
// deterministically without faultinject: a shared-signal predicate that
// panics on its first call (inside problem construction) and answers
// normally afterwards.
func TestRunQueryPanicQuarantineAndRetry(t *testing.T) {
	p := compile(t, `
template Mul() {
    signal input a;
    signal input b;
    signal output c;
    c <== a*b;
}
component main = Mul();
`)
	sys := p.System
	var trace bytes.Buffer
	tr := obs.New(&trace)
	a := newTestAnalysis(sys, Config{QuerySteps: 50_000}, context.Background(), tr)

	shared := map[int]bool{r1cs.OneID: true}
	for _, in := range sys.Inputs() {
		shared[in] = true
	}
	allCons := make([]int, sys.NumConstraints())
	for i := range allCons {
		allCons[i] = i
	}
	target := sys.Outputs()[0]
	armed := true
	isShared := func(v int) bool {
		if armed {
			armed = false
			panic("boom")
		}
		return shared[v]
	}
	task := &queryTask{sig: target, cons: allCons, full: true}

	grant := a.reserve()
	out, panicked := a.runQuery(task, isShared, grant, a.querySeed(target))
	a.refund(grant - out.Steps)
	if !panicked {
		t.Fatal("first attempt did not report the panic")
	}
	if out.Status != smt.StatusUnknown || !strings.Contains(out.Reason, "internal error: boom") {
		t.Fatalf("quarantined outcome = %+v, want unknown/internal error: boom", out)
	}
	if out.Steps != 0 {
		t.Fatalf("quarantined outcome claims %d steps; its grant must be refunded in full", out.Steps)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"core.query.panic"`) || !strings.Contains(trace.String(), "boom") {
		t.Fatal("trace missing core.query.panic event")
	}

	task.out = out
	retried := a.retryOnce(task, isShared)
	if retried.Status != smt.StatusUnsat {
		t.Fatalf("retry outcome = %+v, want unsat (output is unique)", retried)
	}
	if got := a.nPanics.Load(); got != 1 {
		t.Fatalf("nPanics = %d, want 1", got)
	}
	if got := a.nRetries.Load(); got != 1 {
		t.Fatalf("nRetries = %d, want 1", got)
	}
}

// TestRetryBudgetAndSecondPanic pins the two degradation rules of retryOnce:
// no budget left → the quarantined outcome stands untouched, and a second
// panic → the quarantined outcome stands (never a third attempt).
func TestRetryBudgetAndSecondPanic(t *testing.T) {
	p := compile(t, isZeroBuggy)
	a := newTestAnalysis(p.System, Config{}, context.Background(), nil)
	quarantined := smt.Outcome{Status: smt.StatusUnknown, Reason: "internal error: boom"}
	alwaysPanic := func(int) bool { panic("boom again") }
	task := &queryTask{sig: 1, cons: []int{0}, full: true, out: quarantined}

	sameAsQuarantined := func(out smt.Outcome) bool {
		return out.Status == quarantined.Status && out.Reason == quarantined.Reason && out.Steps == 0
	}
	a.stepsRem.Store(0)
	if out := a.retryOnce(task, alwaysPanic); !sameAsQuarantined(out) {
		t.Fatalf("retry without budget = %+v, want quarantined outcome unchanged", out)
	}
	if a.nRetries.Load() != 0 {
		t.Fatalf("budgetless retry was counted: %d", a.nRetries.Load())
	}

	a.stepsRem.Store(1000)
	if out := a.retryOnce(task, alwaysPanic); !sameAsQuarantined(out) {
		t.Fatalf("twice-panicked retry = %+v, want quarantined outcome unchanged", out)
	}
	if a.nRetries.Load() != 1 || a.nPanics.Load() != 1 {
		t.Fatalf("retry/panic counters = %d/%d, want 1/1", a.nRetries.Load(), a.nPanics.Load())
	}
	// The doomed retry's grant must still come back to the pool.
	if got := a.stepsRem.Load(); got != 1000 {
		t.Fatalf("stepsRem = %d, want 1000 refunded", got)
	}
}

// TestAnalyzeSurvivesInjectedQueryPanics arms an always-firing panic rule at
// the core.query site: every solver attempt (and every retry) crashes, and
// the analysis must degrade to a clean Unknown verdict rather than crash or
// flip to safe/unsafe.
func TestAnalyzeSurvivesInjectedQueryPanics(t *testing.T) {
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "core.query", Kind: faultinject.KindPanic, Every: 1},
	}})
	defer faultinject.Disable()

	p := compile(t, isZeroSafe)
	r := AnalyzeContext(context.Background(), p.System, &Config{Workers: 1, Seed: 1})
	if r.Verdict != VerdictUnknown {
		t.Fatalf("verdict under total query panic = %v (%s), want unknown", r.Verdict, r.Reason)
	}
	// The report reason is the wrapped human-readable form; the structured
	// flag must still classify the unknown as panic-degraded.
	if !strings.Contains(r.Reason, "internal error") {
		t.Fatalf("reason = %q, want a quarantine reason", r.Reason)
	}
	if r.Degraded != DegradedInternal {
		t.Fatalf("Degraded = %q (reason %q), want %q", r.Degraded, r.Reason, DegradedInternal)
	}
	if r.Stats.QueryPanics == 0 {
		t.Fatal("Stats.QueryPanics = 0, want > 0")
	}
	if r.Stats.QueryRetries == 0 {
		t.Fatal("Stats.QueryRetries = 0, want > 0 (quarantined queries get one retry)")
	}
	if r.Stats.QueryPanics != 2*r.Stats.QueryRetries {
		t.Fatalf("panics = %d, retries = %d: with every=1 each retry must panic exactly once more",
			r.Stats.QueryPanics, r.Stats.QueryRetries)
	}
}

// TestOutcomeDegradationClassification pins the classifier's vocabulary: it
// runs on raw query-outcome reasons (exact smt.Canceled, the quarantine
// prefix), and decided outcomes are never degraded.
func TestOutcomeDegradationClassification(t *testing.T) {
	for _, tc := range []struct {
		out  smt.Outcome
		want Degradation
	}{
		{smt.Outcome{Status: smt.StatusUnknown, Reason: smt.Canceled}, DegradedCanceled},
		{smt.Outcome{Status: smt.StatusUnknown, Reason: "internal error: boom"}, DegradedInternal},
		{smt.Outcome{Status: smt.StatusUnknown, Reason: "step budget exhausted"}, DegradedNone},
		{smt.Outcome{Status: smt.StatusUnknown, Reason: smt.DeadlineExceeded}, DegradedNone},
		{smt.Outcome{Status: smt.StatusUnknown, Reason: "injected solver fault mentioning canceled"}, DegradedNone},
		{smt.Outcome{Status: smt.StatusUnsat, Reason: smt.Canceled}, DegradedNone},
	} {
		if got := outcomeDegradation(tc.out); got != tc.want {
			t.Errorf("outcomeDegradation(%v/%q) = %q, want %q", tc.out.Status, tc.out.Reason, got, tc.want)
		}
	}
}

// TestAnalyzeCanceledReportsDegradedCanceled: every Unknown report out of a
// canceled analysis must carry the structured cancellation flag, whatever
// reason wording the mode's loop assembled.
func TestAnalyzeCanceledReportsDegradedCanceled(t *testing.T) {
	p := compile(t, isZeroBuggy)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []Mode{ModeFull, ModeSMTOnly} {
		r := AnalyzeContext(ctx, p.System, &Config{Mode: mode, Workers: 1, Seed: 1})
		if r.Verdict != VerdictUnknown {
			t.Fatalf("%s: verdict under canceled ctx = %v, want unknown", mode, r.Verdict)
		}
		if r.Degraded != DegradedCanceled {
			t.Fatalf("%s: Degraded = %q (reason %q), want %q", mode, r.Degraded, r.Reason, DegradedCanceled)
		}
	}
}
