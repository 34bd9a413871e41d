package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"qed2/internal/core"
)

// HTTP suite replay: drives the benchmark suite through a running qed2d
// daemon instead of in-process analysis, returning the same []Result shape
// Run produces, so the golden gate (GoldenFromResults + DiffGolden) applies
// unchanged to service-path verdicts. The client is deliberately built on
// its own wire structs — it speaks the daemon's JSON API, it does not
// import the service package — and it retries everything the service
// contract declares transient: 429 admission rejections, 503 draining,
// connection errors while the daemon restarts, and jobs shed as retriable
// cancellations by a drain. A replay that spans a SIGTERM drain therefore
// converges to the same verdict set as an uninterrupted one.

// ReplayOptions configures ReplayHTTP.
type ReplayOptions struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant is sent as X-QED2-Tenant (default "bench").
	Tenant string
	// Inflight bounds concurrently outstanding instances (default 8).
	Inflight int
	// PollInterval is the job-status poll cadence (default 50ms).
	PollInterval time.Duration
	// FailureRetries bounds resubmissions of jobs that end failed (internal
	// error or a sandbox hard fault) before the instance is recorded as a
	// degraded unknown (default 3). Retriable cancellations and admission
	// rejections (429/503/422) are not counted against it.
	FailureRetries int
	// BackoffCap caps the exponential retry backoff (default 2s). Retries
	// wait PollInterval, 2×, 4×, ... up to the cap, each with deterministic
	// jitter in [d/2, d]; an explicit Retry-After from the daemon overrides
	// the schedule for that wait.
	BackoffCap time.Duration
	// JitterSeed seeds the deterministic retry jitter (default 1), so two
	// replays of the same suite against the same daemon behavior wait
	// identically — chaos runs stay reproducible.
	JitterSeed int64
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Progress, when non-nil, is called after each instance completes;
	// invocations are serialized and done is strictly monotone.
	Progress func(done, total int, r Result)
}

func (o ReplayOptions) withDefaults() ReplayOptions {
	if o.Tenant == "" {
		o.Tenant = "bench"
	}
	if o.Inflight <= 0 {
		o.Inflight = 8
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.FailureRetries <= 0 {
		o.FailureRetries = 3
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 2 * time.Second
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// replayJob mirrors the daemon's JobView wire shape (the fields the replay
// consumes); the report is the daemon's core.Summary, decoded as is.
type replayJob struct {
	ID        string        `json:"id"`
	Status    string        `json:"status"`
	Retriable bool          `json:"retriable"`
	Error     string        `json:"error"`
	Report    *core.Summary `json:"report"`
}

// ReplayHTTP analyzes every instance through the daemon at opts.BaseURL,
// preserving input order. It returns an error only when ctx expires or an
// instance exhausts its retry budget against a persistently failing daemon;
// per-instance compile rejections (HTTP 400) become CompileErr results like
// the in-process runner's.
func ReplayHTTP(ctx context.Context, insts []Instance, opts ReplayOptions) ([]Result, error) {
	o := opts.withDefaults()
	results := make([]Result, len(insts))
	errs := make([]error, len(insts))
	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex
		done       int
	)
	sem := make(chan struct{}, o.Inflight)
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			results[i], errs[i] = replayOne(ctx, insts[i], o)
			progressMu.Lock()
			done++
			if o.Progress != nil && errs[i] == nil {
				o.Progress(done, len(insts), results[i])
			}
			progressMu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("bench: replay %s: %w", insts[i].Name, err)
		}
	}
	return results, nil
}

// replayOne drives one instance to a terminal, non-retriable outcome.
func replayOne(ctx context.Context, inst Instance, o ReplayOptions) (Result, error) {
	src := inst.Source()
	t0 := time.Now()
	failures := 0
	bo := newReplayBackoff(o, inst.Name)
	for {
		job, status, retryAfter, err := submit(ctx, o, src)
		switch {
		case err != nil:
			// Daemon unreachable (restarting) — back off and resubmit.
			if err := sleepCtx(ctx, bo.next(0)); err != nil {
				return Result{}, err
			}
			continue
		case status == http.StatusBadRequest:
			return Result{Instance: inst, CompileErr: fmt.Errorf("bench: %s: %s", inst.Name, job.Error)}, nil
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable ||
			status == http.StatusUnprocessableEntity:
			// Transient admission rejections: overload (429), drain (503),
			// or a quarantined digest (422) whose Retry-After is the
			// remaining breaker cooldown — waiting it out lands the resubmit
			// as the half-open probe.
			if err := sleepCtx(ctx, bo.next(retryAfter)); err != nil {
				return Result{}, err
			}
			continue
		case status != http.StatusOK && status != http.StatusAccepted:
			return Result{}, fmt.Errorf("unexpected HTTP %d from submit", status)
		}
		// Admission succeeded — the daemon is healthy, so the next retriable
		// event starts a fresh backoff ramp.
		bo.reset()

		final, err := pollJob(ctx, o, job)
		if err != nil {
			return Result{}, err
		}
		switch final.Status {
		case "done":
			res := Result{Instance: inst, AnalyzeTime: time.Since(t0)}
			if final.Report == nil {
				res.Summary = core.InternalError("daemon returned no report").Summary(nil)
			} else {
				res.Summary = *final.Report
			}
			return res, nil
		case "canceled":
			if final.Retriable {
				// Shed by a drain; the restarted daemon takes the resubmit.
				if err := sleepCtx(ctx, bo.next(0)); err != nil {
					return Result{}, err
				}
				continue
			}
			return Result{}, fmt.Errorf("job %s canceled non-retriably: %s", final.ID, final.Error)
		case "failed":
			failures++
			if failures <= o.FailureRetries {
				if err := sleepCtx(ctx, bo.next(0)); err != nil {
					return Result{}, err
				}
				continue
			}
			// Persistently failing instance: record the degradation rather
			// than wedge the suite, mirroring the in-process panic boundary.
			sum := core.Summary{Verdict: core.VerdictUnknown.String(), Reason: final.Error, Degraded: core.DegradedInternal}
			return Result{Instance: inst, AnalyzeTime: time.Since(t0), Summary: sum}, nil
		default:
			return Result{}, fmt.Errorf("job %s reached unexpected status %q", final.ID, final.Status)
		}
	}
}

// replayBackoff is the per-instance retry schedule: capped exponential
// growth from PollInterval with deterministic jitter. Jitter decorrelates
// the retry storms of instances rejected by the same overload burst without
// sacrificing reproducibility — the wait for (seed, instance, attempt) is a
// pure function.
type replayBackoff struct {
	base, cap time.Duration
	seed      uint64
	attempt   uint
}

func newReplayBackoff(o ReplayOptions, name string) *replayBackoff {
	return &replayBackoff{
		base: o.PollInterval,
		cap:  o.BackoffCap,
		seed: uint64(o.JitterSeed) ^ hashName(name),
	}
}

func (b *replayBackoff) reset() { b.attempt = 0 }

// next returns the wait before the next retry. A positive retryAfter (the
// daemon's explicit Retry-After) overrides the exponential schedule — the
// server knows its own cooldowns — but still advances the attempt counter.
func (b *replayBackoff) next(retryAfter time.Duration) time.Duration {
	attempt := b.attempt
	if b.attempt < 30 {
		b.attempt++
	}
	if retryAfter > 0 {
		return retryAfter
	}
	d := b.base << attempt
	if d > b.cap || d <= 0 {
		d = b.cap
	}
	// Deterministic jitter in [d/2, d].
	half := d / 2
	span := uint64(d-half) + 1
	return half + time.Duration(mix64(b.seed^uint64(attempt)*0x9E3779B97F4A7C15)%span)
}

// hashName is FNV-1a over the instance name.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// submit POSTs the circuit source, returning the parsed job, the HTTP
// status, and any Retry-After the daemon attached to a rejection. A non-nil
// error means the request never got an HTTP response (connection refused
// mid-restart).
func submit(ctx context.Context, o ReplayOptions, src string) (replayJob, int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		o.BaseURL+"/v1/analyze", strings.NewReader(src))
	if err != nil {
		return replayJob{}, 0, 0, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-QED2-Tenant", o.Tenant)
	resp, err := o.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return replayJob{}, 0, 0, ctx.Err()
		}
		return replayJob{}, 0, 0, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var job replayJob
	// Error statuses may carry a plain-text body; tolerate non-JSON there.
	_ = json.Unmarshal(b, &job)
	if job.Error == "" && resp.StatusCode >= 400 {
		job.Error = strings.TrimSpace(string(b))
	}
	if (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted) && job.ID == "" {
		// A 2xx without a job ID is a torn response (daemon killed
		// mid-write); report it as unreachable so the caller resubmits.
		return replayJob{}, 0, 0, fmt.Errorf("torn submit response")
	}
	return job, resp.StatusCode, retryAfterOf(resp), nil
}

// retryAfterOf parses a delay-seconds Retry-After header (the only form the
// daemon emits); absent or unparsable yields zero.
func retryAfterOf(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// pollJob follows a job to a terminal status, resubmitting-friendly: a 404
// (daemon restarted without this job) or a connection error is reported as
// a retriable canceled job so the caller loops back to submit.
func pollJob(ctx context.Context, o ReplayOptions, job replayJob) (replayJob, error) {
	for {
		if terminalStatus(job.Status) {
			return job, nil
		}
		if err := sleepCtx(ctx, o.PollInterval); err != nil {
			return replayJob{}, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			o.BaseURL+"/v1/jobs/"+job.ID, nil)
		if err != nil {
			return replayJob{}, err
		}
		resp, err := o.Client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return replayJob{}, ctx.Err()
			}
			return replayJob{ID: job.ID, Status: "canceled", Retriable: true, Error: "daemon unreachable"}, nil
		}
		b, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		var next replayJob
		derr := rerr
		if derr == nil {
			derr = json.Unmarshal(b, &next)
		}
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return replayJob{ID: job.ID, Status: "canceled", Retriable: true, Error: "job lost across restart"}, nil
		case resp.StatusCode != http.StatusOK:
			return replayJob{}, fmt.Errorf("polling job %s: HTTP %d", job.ID, resp.StatusCode)
		case derr != nil:
			return replayJob{}, fmt.Errorf("polling job %s: %w", job.ID, derr)
		}
		job = next
	}
}

func terminalStatus(s string) bool {
	return s == "done" || s == "failed" || s == "canceled"
}

// sleepCtx sleeps, honoring cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
