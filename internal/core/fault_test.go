package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qed2/internal/faultinject"
	"qed2/internal/ff"
	"qed2/internal/obs"
	"qed2/internal/poly"
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

// foldAll is a round fold that never decides the round.
func foldAll(*queryTask) bool { return false }

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
	a.runRound(tasks, a.prop.Snapshot().IsUnique, foldAll)
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
	a.runRound(tasks, a.prop.Snapshot().IsUnique, foldAll)
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
	out, panicked := a.runQuery(context.Background(), task, isShared, grant, a.querySeed(target))
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

// squares builds n disjoint gadgets x_k·x_k = c_k over F_97 (c_k inputs,
// x_k outputs): one single-constraint task per x_k, each reading only its
// own signals, so a shared-signal predicate can fail one task alone.
func squares(n int) (sys *r1cs.System, xs []int) {
	f97 := ff.MustField(big.NewInt(97))
	sys = r1cs.NewSystem(f97)
	for k := 0; k < n; k++ {
		c := sys.AddSignal(fmt.Sprintf("c%d", k), r1cs.KindInput)
		x := sys.AddSignal(fmt.Sprintf("x%d", k), r1cs.KindOutput)
		sys.AddConstraint(poly.Var(f97, x), poly.Var(f97, x), poly.Var(f97, c), "")
		xs = append(xs, x)
	}
	return sys, xs
}

// panicOnce is a goroutine-safe shared-signal predicate for squares: the
// first call about a signal in armed panics, and calls records every signal
// asked about.
type panicOnce struct {
	mu    sync.Mutex
	sys   *r1cs.System
	armed map[int]bool
	calls map[int]int
}

func (p *panicOnce) isShared(v int) bool {
	p.mu.Lock()
	p.calls[v]++
	fire := p.armed[v]
	delete(p.armed, v)
	p.mu.Unlock()
	if fire {
		panic("boom")
	}
	return v == r1cs.OneID || p.sys.Signal(v).Kind == r1cs.KindInput
}

// squareTasks admits one task per gadget of squares in canonical order.
func squareTasks(a *analysis, xs []int) []*queryTask {
	var tasks []*queryTask
	for k, x := range xs {
		t := &queryTask{sig: x, cons: []int{k}}
		a.admit(t, 2)
		tasks = append(tasks, t)
	}
	return tasks
}

// TestRoundStopsAtDecidingTask: once the fold decides the round, a later
// task is never handed out — a panic it would raise never happens, its
// grant returns to the pool, and it is counted as unrun.
func TestRoundStopsAtDecidingTask(t *testing.T) {
	sys, xs := squares(3)
	m := obs.NewMetrics()
	a := newTestAnalysis(sys, Config{Workers: 1, QuerySteps: 400}, context.Background(), nil)
	a.cUnrun = m.Counter("core.queries_unrun")
	total := a.stepsRem.Load()
	p := &panicOnce{sys: sys, armed: map[int]bool{xs[1]: true, xs[2]: true}, calls: map[int]int{}}
	tasks := squareTasks(a, xs)
	var folded []int
	stopped := a.runRound(tasks, p.isShared, func(t *queryTask) bool {
		folded = append(folded, t.sig)
		a.accountTask(t)
		return t.sig == xs[0]
	})
	if !stopped || !reflect.DeepEqual(folded, xs[:1]) {
		t.Fatalf("stopped = %v, folded %v, want true after %v", stopped, folded, xs[:1])
	}
	for _, task := range tasks[1:] {
		if task.ran || p.calls[task.sig] != 0 {
			t.Fatalf("task for sig %d ran after the round was decided", task.sig)
		}
	}
	if a.nPanics.Load() != 0 || a.nRetries.Load() != 0 {
		t.Fatalf("panics/retries = %d/%d, want 0/0", a.nPanics.Load(), a.nRetries.Load())
	}
	if got, want := a.stepsRem.Load(), total-tasks[0].out.Steps; got != want {
		t.Fatalf("stepsRem = %d, want %d (unrun grants refunded)", got, want)
	}
	if ran, unrun := tally(tasks); ran != 1 || unrun != 2 {
		t.Fatalf("tally = %d ran, %d unrun, want 1, 2", ran, unrun)
	}
	if got := m.Counters()["core.queries_unrun"]; got != 2 {
		t.Fatalf("core.queries_unrun = %d, want 2", got)
	}
	if a.report.Stats.Queries != 1 || a.report.Stats.SolverSteps != tasks[0].out.Steps {
		t.Fatalf("accounted %d queries, %d steps, want 1, %d", a.report.Stats.Queries, a.report.Stats.SolverSteps, tasks[0].out.Steps)
	}
}

// TestRoundRetriesPanicBeforeDecidingTask: a task that panics before the
// deciding one is retried exactly once, after the whole round has run and
// refunded, so the retry's grant is the same at one worker and at four.
func TestRoundRetriesPanicBeforeDecidingTask(t *testing.T) {
	const querySteps = 400
	for _, workers := range []int{1, 4} {
		sys, xs := squares(4)
		var trace bytes.Buffer
		tr := obs.New(&trace)
		a := newTestAnalysis(sys, Config{Workers: workers, QuerySteps: querySteps, GlobalSteps: 3*querySteps + 60},
			context.Background(), tr)
		p := &panicOnce{sys: sys, armed: map[int]bool{xs[0]: true}, calls: map[int]int{}}
		// Admitted last-first, so the panicking first task holds the 60-step
		// remainder: a retry issued before the other tasks refunded would
		// find only those 60 steps in the pool.
		tasks := make([]*queryTask, len(xs))
		for k := len(xs) - 1; k >= 0; k-- {
			tasks[k] = &queryTask{sig: xs[k], cons: []int{k}}
			a.admit(tasks[k], 2)
		}
		var folded []int
		stopped := a.runRound(tasks, p.isShared, func(t *queryTask) bool {
			folded = append(folded, t.sig)
			return t.sig == xs[1]
		})
		if !stopped || !reflect.DeepEqual(folded, xs[:2]) {
			t.Fatalf("workers=%d: stopped = %v, folded %v, want true after %v", workers, stopped, folded, xs[:2])
		}
		if a.nPanics.Load() != 1 || a.nRetries.Load() != 1 {
			t.Fatalf("workers=%d: panics/retries = %d/%d, want 1/1", workers, a.nPanics.Load(), a.nRetries.Load())
		}
		if tasks[0].out.Status != smt.StatusSat {
			t.Fatalf("workers=%d: retried outcome = %+v, want sat", workers, tasks[0].out)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		var grants []int64
		for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
			var l struct {
				Ev, Name string
				Sig      int
				Grant    int64
			}
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				t.Fatal(err)
			}
			if l.Ev == "span_start" && l.Name == "core.query" && l.Sig == xs[0] {
				grants = append(grants, l.Grant)
			}
		}
		if want := []int64{60, querySteps / retryBudgetShrink}; !reflect.DeepEqual(grants, want) {
			t.Fatalf("workers=%d: grants of sig %d = %v, want %v", workers, xs[0], grants, want)
		}
	}
}
