package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/store"
)

const srcSafe = `
template IsZero() {
    signal input in;
    signal output out;
    signal inv;
    inv <-- in != 0 ? 1/in : 0;
    out <== -in*inv + 1;
    in*out === 0;
}
component main = IsZero();
`

const srcBuggy = `
template IsZeroBuggy() {
    signal input in;
    signal output out;
    signal inv;
    inv <-- in != 0 ? 1/in : 0;
    out <== -in*inv + 1;
}
component main = IsZeroBuggy();
`

// srcMul yields a family of distinct trivially-safe circuits (distinct
// digests) for queue-shape tests.
func srcMul(k int) string {
	return fmt.Sprintf(`
template Mul%d() {
    signal input a;
    signal input b;
    signal output out;
    out <== a * b + %d;
}
component main = Mul%d();
`, k, k, k)
}

func testConfig() core.Config {
	return core.Config{QuerySteps: 50_000, GlobalSteps: 1_000_000, Seed: 1}
}

// waitTerminal follows the job's event feed until it reaches a terminal
// status, exercising the EventsSince/changed contract the NDJSON streaming
// handler relies on.
func waitTerminal(t *testing.T, j *Job) JobView {
	t.Helper()
	deadline := time.After(60 * time.Second)
	var after int64
	for {
		if j.Status().Terminal() {
			return j.View()
		}
		evs, changed := j.EventsSince(after)
		if len(evs) > 0 {
			after = evs[len(evs)-1].Seq
			continue
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("job %s stuck in status %s", j.ID, j.Status())
		}
	}
}

func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := j.Status()
		if st == StatusRunning || st.Terminal() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started (status %s)", j.ID, j.Status())
}

func TestSubmitAnalyzeDone(t *testing.T) {
	e := New(Config{Analyzer: testConfig(), Workers: 2})
	defer e.Close()
	j, err := e.SubmitSource("alice", srcSafe)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.Status != StatusDone || v.Report == nil || v.Report.Verdict != "safe" {
		t.Fatalf("job = %+v", v)
	}
	if v.Cached {
		t.Fatal("fresh analysis marked cached")
	}
	evs, _ := j.EventsSince(0)
	var sawRunning, sawProgress, sawDone bool
	for _, ev := range evs {
		switch {
		case ev.Kind == "status" && ev.Status == "running":
			sawRunning = true
		case ev.Kind == "progress":
			sawProgress = true
		case ev.Kind == "status" && ev.Status == "done":
			sawDone = true
		}
	}
	if !sawRunning || !sawProgress || !sawDone {
		t.Fatalf("event feed incomplete (running=%v progress=%v done=%v): %+v",
			sawRunning, sawProgress, sawDone, evs)
	}
	// Unsafe circuits carry their counterexample summary.
	j2, err := e.SubmitSource("alice", srcBuggy)
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitTerminal(t, j2)
	if v2.Status != StatusDone || v2.Report.Verdict != "unsafe" || v2.Report.CEOutput == "" {
		t.Fatalf("buggy job = %+v report %+v", v2, v2.Report)
	}
}

func TestStoreHitSecondSubmission(t *testing.T) {
	m := obs.NewMetrics()
	st, err := store.Open(store.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Analyzer: testConfig(), Workers: 1, Store: st, Metrics: m})
	defer e.Close()
	j1, err := e.Submit("alice", mustCompile(t, srcSafe))
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitTerminal(t, j1)
	if v1.Status != StatusDone || v1.Cached {
		t.Fatalf("first submission = %+v", v1)
	}
	// Same circuit again: answered from the store, no second solver run.
	j2, err := e.Submit("bob", mustCompile(t, srcSafe))
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitTerminal(t, j2)
	if v2.Status != StatusDone || !v2.Cached {
		t.Fatalf("second submission not served from store: %+v", v2)
	}
	if v2.Report.Verdict != v1.Report.Verdict {
		t.Fatalf("cached verdict %q != fresh verdict %q", v2.Report.Verdict, v1.Report.Verdict)
	}
	c := m.Counters()
	if c["service.store.misses"] != 1 || c["service.store.hits"] != 1 {
		t.Fatalf("store counters = %v, want 1 miss + 1 hit", c)
	}
	if c["service.jobs.analyzed"] != 1 || c["service.jobs.cached"] != 1 {
		t.Fatalf("job counters = %v, want 1 analyzed + 1 cached", c)
	}
}

func TestDigestDedupWhileInFlight(t *testing.T) {
	// Pin the single worker on a blocker circuit so the next submissions
	// stay queued deterministically.
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "core.query", Kind: faultinject.KindLatency, Every: 1, Delay: 300 * time.Millisecond},
	}})
	defer faultinject.Disable()
	m := obs.NewMetrics()
	e := New(Config{Analyzer: testConfig(), Workers: 1, Metrics: m})
	defer e.Close()
	blocker, err := e.SubmitSource("blk", srcBuggy)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	a1, err := e.SubmitSource("alice", srcSafe)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.SubmitSource("bob", srcSafe)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("identical in-flight circuits got distinct jobs %s and %s", a1.ID, a2.ID)
	}
	if m.Counters()["service.jobs.deduped"] != 1 {
		t.Fatalf("counters = %v", m.Counters())
	}
	faultinject.Disable()
	if v := waitTerminal(t, a1); v.Status != StatusDone {
		t.Fatalf("deduped job = %+v", v)
	}
}

func TestAdmissionControl(t *testing.T) {
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "core.query", Kind: faultinject.KindLatency, Every: 1, Delay: 300 * time.Millisecond},
	}})
	defer faultinject.Disable()
	m := obs.NewMetrics()
	e := New(Config{Analyzer: testConfig(), Workers: 1, QueueDepth: 2, TenantQuota: 1, Metrics: m})
	defer e.Close()
	blocker, err := e.SubmitSource("blk", srcBuggy)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	// One queued job per tenant fits.
	if _, err := e.SubmitSource("alice", srcMul(1)); err != nil {
		t.Fatal(err)
	}
	// The same tenant's second queued job trips the per-tenant quota.
	if _, err := e.SubmitSource("alice", srcMul(2)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("quota breach = %v, want ErrTenantQuota", err)
	}
	// Another tenant still fits until the global depth is reached.
	if _, err := e.SubmitSource("bob", srcMul(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitSource("carol", srcMul(4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow = %v, want ErrQueueFull", err)
	}
	if got := m.Counters()["service.jobs.rejected"]; got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
	faultinject.Disable()
}

// TestRoundRobinFairness drives the scheduler's pop order directly: with
// tenant A three deep and B, C one each, service order must interleave
// tenants instead of draining A first.
func TestRoundRobinFairness(t *testing.T) {
	e := New(Config{Analyzer: testConfig(), Workers: 1, QueueDepth: 16})
	defer e.Close()
	e.mu.Lock()
	mk := func(tenant string, k int) *Job {
		j := e.registerLocked(tenant, fmt.Sprintf("%064d", k), nil)
		e.enqueueLocked(j)
		return j
	}
	a1, a2, a3 := mk("a", 1), mk("a", 2), mk("a", 3)
	b1 := mk("b", 4)
	c1 := mk("c", 5)
	want := []*Job{a1, b1, c1, a2, a3}
	for i, w := range want {
		got := e.popLocked()
		if got != w {
			t.Fatalf("pop %d = %v, want %s", i, got, w.ID)
		}
	}
	if e.popLocked() != nil {
		t.Fatal("pop from empty queue returned a job")
	}
	e.mu.Unlock()
}

func TestDrainChecksPointsAndResumes(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "drain.ckpt")
	cfg := Config{Analyzer: testConfig(), Workers: 1, CheckpointPath: ckpt}

	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "core.query", Kind: faultinject.KindLatency, Every: 1, Delay: 500 * time.Millisecond},
	}})
	defer faultinject.Disable()
	e := New(cfg)
	blocker, err := e.SubmitSource("t1", srcBuggy)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	queued, err := e.SubmitSource("t2", srcSafe)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sum, err := e.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Disable()
	if sum.Shed != 1 || sum.Interrupted != 1 || sum.Checkpoint != ckpt {
		t.Fatalf("drain summary = %+v", sum)
	}
	// The queued job was shed as a retriable cancellation.
	if v := queued.View(); v.Status != StatusCanceled || !v.Retriable {
		t.Fatalf("queued job after drain = %+v", v)
	}
	if v := blocker.View(); v.Status != StatusCanceled {
		t.Fatalf("in-flight job after drain = %+v", v)
	}
	assertNoDrainTemps(t, dir)
	// Submissions after drain are refused.
	if _, err := e.SubmitSource("t3", srcMul(9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit = %v, want ErrDraining", err)
	}

	// A restarted engine resumes the interrupted job under its original ID
	// and converges to the verdict an uninterrupted run would produce.
	e2 := New(cfg)
	defer e2.Close()
	n, err := e2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	resumed, ok := e2.Job(blocker.ID)
	if !ok {
		t.Fatalf("resumed job lost its ID %s", blocker.ID)
	}
	if v := waitTerminal(t, resumed); v.Status != StatusDone || v.Report.Verdict != "unsafe" {
		t.Fatalf("resumed job = %+v report %+v", v, v.Report)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("consumed checkpoint still on disk (err=%v)", err)
	}
	// Fresh IDs do not collide with resumed ones.
	j, err := e2.SubmitSource("t1", srcMul(7))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == blocker.ID {
		t.Fatalf("fresh job reused resumed ID %s", j.ID)
	}
}

// TestDrainCheckpointWriteErrorLeavesNoTemp drives the durable publish
// path of writeDrainCheckpoint directly: a successful write leaves exactly
// the checkpoint, which Resume reads back, and a failed publish (the rename
// onto an existing directory fails) reports the error and removes its
// temp file.
func TestDrainCheckpointWriteErrorLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{Analyzer: testConfig(), Workers: 1, CheckpointPath: filepath.Join(dir, "drain.ckpt")})
	defer e.Close()
	sys := mustCompile(t, srcBuggy)
	j := newJob("j7", "t1", sys.Digest(), sys, 0)
	if err := writeDrainCheckpoint(e.cfg.CheckpointPath, e.cfg.Analyzer, []*Job{j}); err != nil {
		t.Fatal(err)
	}
	assertNoDrainTemps(t, dir)
	if n, err := e.Resume(); err != nil || n != 1 {
		t.Fatalf("resume of the published checkpoint = %d, %v; want 1 job", n, err)
	}

	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeDrainCheckpoint(blocked, e.cfg.Analyzer, []*Job{j}); err == nil {
		t.Fatal("publishing a checkpoint over a directory succeeded")
	}
	assertNoDrainTemps(t, dir)
}

// assertNoDrainTemps fails when a drain checkpoint temp file is left in dir.
func assertNoDrainTemps(t *testing.T, dir string) {
	t.Helper()
	temps, err := filepath.Glob(filepath.Join(dir, "drain-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Fatalf("temp files left behind: %v", temps)
	}
}

func TestResumeRefusesMismatchedStamp(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "drain.ckpt")
	cfg := Config{Analyzer: testConfig(), Workers: 1, CheckpointPath: ckpt}
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "core.query", Kind: faultinject.KindLatency, Every: 1, Delay: 500 * time.Millisecond},
	}})
	defer faultinject.Disable()
	e := New(cfg)
	j, err := e.SubmitSource("t1", srcBuggy)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	faultinject.Disable()

	other := cfg
	other.Analyzer.Seed = 99
	e2 := New(other)
	defer e2.Close()
	if _, err := e2.Resume(); err == nil {
		t.Fatal("resume accepted a checkpoint from a different analyzer configuration")
	}
}

// mustCompile turns source into a system for Submit-level tests.
func mustCompile(t *testing.T, src string) *r1cs.System {
	t.Helper()
	prog, err := circom.Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog.System
}
