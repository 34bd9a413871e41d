// Package service is the job engine behind qed2d: it accepts circuit
// submissions from multiple tenants, runs them through the core analyzer on
// a bounded worker pool, and exposes each job's lifecycle as a pollable /
// streamable event feed.
//
// Admission and fairness. The queue is bounded (ErrQueueFull past
// Config.QueueDepth) with an additional per-tenant quota (ErrTenantQuota),
// and workers pop jobs round-robin across tenant queues: a tenant
// submitting hundreds of circuits delays its own backlog, not everyone
// else's. Both rejections are retriable overloads — the HTTP layer maps
// them to 429.
//
// Caching. Submissions are deduplicated by the circuit's canonical digest:
// a store hit returns a terminal job immediately (no solver run), and a
// submission whose digest is already queued or running attaches to the
// in-flight job instead of enqueueing a duplicate. Only decided,
// non-degraded reports enter the store (store.Cacheable), so caching never
// changes a verdict, only its latency.
//
// Drain. Drain sheds queued jobs as retriable cancellations, cancels
// in-flight analyses at their next query boundary, and checkpoints the
// interrupted circuits under the same configuration stamp as bench
// checkpoints; Resume re-enqueues them, so a restarted daemon converges to
// the verdict set an uninterrupted run would have produced.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/smt"
	"qed2/internal/store"
)

// Sentinel errors for admission control and lifecycle. ErrQueueFull and
// ErrTenantQuota are transient overloads (HTTP 429); ErrDraining means the
// daemon is shutting down (HTTP 503 + Retry-After).
var (
	ErrQueueFull   = errors.New("service: job queue is full")
	ErrTenantQuota = errors.New("service: tenant queue quota exceeded")
	ErrDraining    = errors.New("service: draining, not accepting jobs")
)

// Config configures an Engine.
type Config struct {
	// Analyzer is the core configuration applied to every job. It also
	// derives the configuration stamp for the store and drain checkpoint.
	Analyzer core.Config
	// Workers is the number of concurrent analyses (default 1). Worker
	// count never affects verdicts, only throughput.
	Workers int
	// QueueDepth bounds the total number of queued (not yet running) jobs
	// (default 64).
	QueueDepth int
	// TenantQuota bounds the queued jobs of any single tenant (default:
	// QueueDepth, i.e. no extra per-tenant limit).
	TenantQuota int
	// EventBuffer bounds each job's retained event ring (default 256).
	EventBuffer int
	// Store, when non-nil, caches reports by circuit digest.
	Store *store.Store
	// Library resolves include directives for source submissions.
	Library map[string]string
	// Metrics, when non-nil, receives the service.jobs.* counters.
	Metrics *obs.Metrics
	// CheckpointPath, when non-empty, is where Drain persists interrupted
	// jobs and Resume reloads them from.
	CheckpointPath string
	// Runner, when non-nil, replaces the in-process core.AnalyzeContext
	// call for every job — qed2d -sandbox plugs in Sandbox.Run here. A
	// *HardFaultError from the runner becomes a hard-fault degraded job and
	// feeds the quarantine breaker; in-process mode has no hard faults (a
	// panic is contained as internal-error) and never trips it.
	Runner JobRunner
	// QuarantineThreshold is the consecutive hard-fault count that trips a
	// digest's breaker (default 3). Only meaningful with a Runner.
	QuarantineThreshold int
	// QuarantineCooldown is how long a tripped digest stays quarantined
	// before a half-open probe is admitted (default 30s).
	QuarantineCooldown time.Duration
}

// Engine is the multi-tenant job engine. Safe for concurrent use.
type Engine struct {
	cfg Config

	ctx    context.Context // root context of all job analyses
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signaled when work is enqueued or the engine stops
	stopped  bool
	draining bool
	queues   map[string][]*Job // tenant -> FIFO of queued jobs
	ring     []string          // round-robin tenant order
	rrNext   int
	queued   int             // total queued jobs across tenants
	active   map[string]*Job // digest -> queued/running job (dedup)
	jobs     map[string]*Job // id -> job, all lifetimes
	order    []string        // job ids in submission order
	nextID   int64

	wg sync.WaitGroup

	breaker *breaker // nil without a Runner

	submitted, cached, deduped *obs.Counter
	rejected, analyzed         *obs.Counter
	failed, canceled           *obs.Counter
	hardFaults, quarantined    *obs.Counter
}

// New starts an engine with Config.Workers analysis workers.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.TenantQuota <= 0 || cfg.TenantQuota > cfg.QueueDepth {
		cfg.TenantQuota = cfg.QueueDepth
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		queues:    map[string][]*Job{},
		active:    map[string]*Job{},
		jobs:      map[string]*Job{},
		submitted: cfg.Metrics.Counter("service.jobs.submitted"),
		cached:    cfg.Metrics.Counter("service.jobs.cached"),
		deduped:   cfg.Metrics.Counter("service.jobs.deduped"),
		rejected:  cfg.Metrics.Counter("service.jobs.rejected"),
		analyzed:  cfg.Metrics.Counter("service.jobs.analyzed"),
		failed:    cfg.Metrics.Counter("service.jobs.failed"),
		canceled:  cfg.Metrics.Counter("service.jobs.canceled"),

		hardFaults:  cfg.Metrics.Counter("service.jobs.hard_faults"),
		quarantined: cfg.Metrics.Counter("service.jobs.quarantined"),
	}
	if cfg.Runner != nil {
		e.breaker = newBreaker(cfg.QuarantineThreshold, cfg.QuarantineCooldown)
	}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// ConfigStamp returns the engine's analyzer configuration stamp
// (core.Config.Stamp), which keys the store directory and the drain
// checkpoint.
func (e *Engine) ConfigStamp() string { return e.cfg.Analyzer.Stamp() }

// SubmitSource compiles circom source against the engine's library and
// submits the resulting system. Compile errors are returned to the caller
// (HTTP 400), not turned into jobs: they are input defects, not analysis
// outcomes.
func (e *Engine) SubmitSource(tenant, src string) (*Job, error) {
	prog, err := circom.Compile(src, &circom.CompileOptions{Library: e.cfg.Library})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return e.Submit(tenant, prog.System)
}

// SubmitR1CS parses an r1cs text body and submits it.
func (e *Engine) SubmitR1CS(tenant, text string) (*Job, error) {
	sys, err := r1cs.Parse(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return e.Submit(tenant, sys)
}

// Submit enqueues a system for analysis. The returned job may already be
// terminal (store hit) or may be a previously submitted job for the same
// circuit (digest dedup). Admission errors wrap ErrQueueFull,
// ErrTenantQuota or ErrDraining.
func (e *Engine) Submit(tenant string, sys *r1cs.System) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	e.submitted.Inc()
	digest := sys.Digest()

	// Store first: a cached report answers without touching the queue even
	// under drain or overload.
	if e.cfg.Store != nil {
		if rep, ok := e.cfg.Store.Get(digest); ok {
			j := e.register(tenant, digest, nil)
			j.markCached(rep)
			e.cached.Inc()
			return j, nil
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining || e.stopped {
		e.rejected.Inc()
		return nil, ErrDraining
	}
	if j := e.active[digest]; j != nil {
		e.deduped.Inc()
		return j, nil
	}
	if e.breaker != nil {
		// After the store and dedup checks: a cached verdict always serves,
		// and a resubmission of an in-flight half-open probe attaches to it
		// instead of stacking probes. Only a genuinely new run is gated.
		if err := e.breaker.allow(digest); err != nil {
			e.rejected.Inc()
			e.quarantined.Inc()
			return nil, err
		}
	}
	if e.queued >= e.cfg.QueueDepth {
		e.rejected.Inc()
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, e.cfg.QueueDepth)
	}
	if len(e.queues[tenant]) >= e.cfg.TenantQuota {
		e.rejected.Inc()
		return nil, fmt.Errorf("%w (tenant %q, quota %d)", ErrTenantQuota, tenant, e.cfg.TenantQuota)
	}
	if faultinject.Enabled() {
		if f := faultinject.Check("service.enqueue"); f.Err != "" || f.Deadline {
			// An injected enqueue fault is a transient overload: the client
			// retries, nothing is half-enqueued.
			e.rejected.Inc()
			return nil, fmt.Errorf("%w (injected: %s)", ErrQueueFull, f.Err)
		}
	}
	j := e.registerLocked(tenant, digest, sys)
	e.enqueueLocked(j)
	return j, nil
}

// register creates and indexes a job outside the queue (store hits).
func (e *Engine) register(tenant, digest string, sys *r1cs.System) *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.registerLocked(tenant, digest, sys)
}

func (e *Engine) registerLocked(tenant, digest string, sys *r1cs.System) *Job {
	e.nextID++
	j := newJob("j"+strconv.FormatInt(e.nextID, 10), tenant, digest, sys, e.cfg.EventBuffer)
	e.jobs[j.ID] = j
	e.order = append(e.order, j.ID)
	return j
}

func (e *Engine) enqueueLocked(j *Job) {
	if _, ok := e.queues[j.Tenant]; !ok {
		e.ring = append(e.ring, j.Tenant)
	}
	e.queues[j.Tenant] = append(e.queues[j.Tenant], j)
	e.queued++
	e.active[j.Digest] = j
	e.cond.Signal()
}

// Job returns a job by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.jobs[id])
	}
	return out
}

// QueueStats is a point-in-time queue summary for /healthz and /readyz.
type QueueStats struct {
	Queued   int            `json:"queued"`
	Depth    int            `json:"depth"` // admission bound (Config.QueueDepth)
	Running  int            `json:"running"`
	Draining bool           `json:"draining"`
	Tenants  map[string]int `json:"tenants,omitempty"`
}

// Stats snapshots the queue.
func (e *Engine) Stats() QueueStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := QueueStats{Queued: e.queued, Depth: e.cfg.QueueDepth, Draining: e.draining, Tenants: map[string]int{}}
	for t, q := range e.queues {
		if len(q) > 0 {
			st.Tenants[t] = len(q)
		}
	}
	for _, j := range e.active {
		if j.Status() == StatusRunning {
			st.Running++
		}
	}
	return st
}

// worker pops jobs (fairly across tenants) until the engine stops.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		j := e.next()
		if j == nil {
			return
		}
		e.runJob(j)
	}
}

func (e *Engine) next() *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.stopped {
			return nil
		}
		if j := e.popLocked(); j != nil {
			return j
		}
		e.cond.Wait()
	}
}

// popLocked dequeues round-robin across tenants: each pop starts from the
// tenant after the previously served one.
func (e *Engine) popLocked() *Job {
	n := len(e.ring)
	for i := 0; i < n; i++ {
		idx := (e.rrNext + i) % n
		q := e.queues[e.ring[idx]]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		e.queues[e.ring[idx]] = q[1:]
		e.queued--
		e.rrNext = (idx + 1) % n
		return j
	}
	return nil
}

// runJob analyzes one job under the fault boundaries the pipeline already
// has: a per-job cancelable context and a panic boundary converting crashes
// into failed jobs rather than dead workers. With a Runner configured the
// analysis instead happens in an isolated worker process, which adds the
// hard-fault outcome (the worker died) on top of the soft ones.
func (e *Engine) runJob(j *Job) {
	jobCtx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	j.setRunning(cancel)

	var sr *core.Summary
	if e.cfg.Runner != nil {
		sr = e.runSandboxed(jobCtx, j)
	} else {
		sr = e.runInProcess(jobCtx, j)
	}

	if e.cfg.Store != nil && store.Cacheable(sr) {
		// A put failure (disk full, injected fault) only costs future cache
		// hits; the job itself still completes with its fresh report.
		_ = e.cfg.Store.Put(j.Digest, sr)
	}

	e.mu.Lock()
	if e.active[j.Digest] == j {
		delete(e.active, j.Digest)
	}
	e.mu.Unlock()

	switch sr.Degraded {
	case core.DegradedCanceled:
		// Shut down mid-analysis (drain): shed as retriable so a client —
		// or Resume — re-analyzes it.
		if j.finish(StatusCanceled, nil, "canceled: server draining", true) {
			e.canceled.Inc()
		}
	case core.DegradedInternal:
		if j.finish(StatusFailed, sr, sr.Reason, false) {
			e.failed.Inc()
		}
	case core.DegradedHardFault:
		// The worker died without a verdict. Terminal and retriable — a
		// transient fault (memory pressure) may succeed on resubmission;
		// a genuinely poisonous one trips the quarantine breaker instead.
		e.hardFaults.Inc()
		if e.breaker != nil {
			e.breaker.recordFault(j.Digest)
		}
		if j.finish(StatusFailed, sr, sr.Reason, true) {
			e.failed.Inc()
		}
	default:
		if e.breaker != nil {
			e.breaker.recordSuccess(j.Digest)
		}
		if j.finish(StatusDone, sr, "", false) {
			e.analyzed.Inc()
		}
	}
}

// runInProcess is the classic path: core.AnalyzeContext on this worker
// goroutine behind a panic boundary.
func (e *Engine) runInProcess(ctx context.Context, j *Job) *core.Summary {
	var rep *core.Report
	func() {
		defer func() {
			if r := recover(); r != nil {
				rep = core.InternalError(r)
			}
		}()
		cfg := e.cfg.Analyzer
		cfg.Metrics = e.cfg.Metrics
		cfg.Progress = j.emitProgress
		rep = core.AnalyzeContext(ctx, j.sys, &cfg)
	}()
	sum := rep.Summary(j.sys)
	return &sum
}

// runSandboxed delegates the analysis to the configured Runner (a worker
// subprocess) and maps its error space onto the degradation vocabulary:
// context cancellation → canceled (drain semantics, identical to
// in-process), *HardFaultError → hard-fault, anything else → internal.
func (e *Engine) runSandboxed(ctx context.Context, j *Job) *core.Summary {
	cfg := e.cfg.Analyzer
	cfg.Progress = j.emitProgress
	sr, err := e.cfg.Runner(ctx, j.sys, cfg)
	var rep *core.Report
	switch hf := (*HardFaultError)(nil); {
	case err == nil && sr != nil:
		return sr
	case ctx.Err() != nil:
		rep = &core.Report{Verdict: core.VerdictUnknown, Reason: smt.Canceled, Degraded: core.DegradedCanceled}
	case errors.As(err, &hf):
		rep = &core.Report{Verdict: core.VerdictUnknown, Reason: hf.Error(), Degraded: core.DegradedHardFault}
	case err == nil:
		rep = core.InternalError("runner returned no report")
	default:
		rep = core.InternalError(err)
	}
	sum := rep.Summary(nil)
	return &sum
}

// QuarantineOpenCount reports how many digests are currently quarantined,
// for /readyz; zero without a sandbox runner.
func (e *Engine) QuarantineOpenCount() int {
	if e.breaker == nil {
		return 0
	}
	return e.breaker.OpenCount()
}

// sortedTenantsLocked returns the tenants with queued jobs, sorted, for
// deterministic drain ordering.
func (e *Engine) sortedTenantsLocked() []string {
	out := make([]string, 0, len(e.queues))
	for t, q := range e.queues {
		if len(q) > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}
