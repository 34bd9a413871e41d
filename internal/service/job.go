package service

import (
	"sync"
	"time"

	"qed2/internal/core"
	"qed2/internal/r1cs"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"     // terminal: report available
	StatusFailed   Status = "failed"   // terminal: internal error (report, if any, is degraded)
	StatusCanceled Status = "canceled" // terminal: shed by drain; retriable
)

// Terminal reports whether a status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Event is one entry of a job's progress feed, consumed by the jobs API
// (polled via JobView.Events or streamed as NDJSON). Seq is strictly
// increasing per job; TMS is milliseconds since submission.
type Event struct {
	Seq  int64  `json:"seq"`
	TMS  int64  `json:"t_ms"`
	Kind string `json:"kind"` // "status" | "progress"
	// Kind "status": the status entered, plus Error for failed/canceled.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Kind "progress": a core.ProgressEvent snapshot taken between rounds.
	Phase         string `json:"phase,omitempty"`
	Round         int    `json:"round,omitempty"`
	Tasks         int    `json:"tasks,omitempty"`
	UniqueSignals int    `json:"unique_signals,omitempty"`
	Queries       int    `json:"queries,omitempty"`
	SolverSteps   int64  `json:"solver_steps,omitempty"`
	Verdict       string `json:"verdict,omitempty"`
}

// Job is one analysis submission. All mutable state is behind mu; the
// identity fields are immutable after creation.
type Job struct {
	// Immutable.
	ID     string
	Tenant string
	Digest string

	sys *r1cs.System

	mu        sync.Mutex
	status    Status
	report    *core.Summary
	errMsg    string
	retriable bool // terminal state is safe to resubmit (drain shedding)
	cached    bool // report came from the store, no solver run

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel func() // set while running; cancels the job's AnalyzeContext

	// Bounded event ring (oldest first); seq numbers stay globally
	// monotone even as old entries are dropped.
	events  []Event
	ringCap int
	seq     int64
	// changed is closed and replaced whenever an event is appended, so
	// streaming readers can wait for news without polling.
	changed chan struct{}
}

func newJob(id, tenant, digest string, sys *r1cs.System, ringCap int) *Job {
	if ringCap <= 0 {
		ringCap = 256
	}
	return &Job{
		ID:        id,
		Tenant:    tenant,
		Digest:    digest,
		sys:       sys,
		status:    StatusQueued,
		submitted: time.Now(),
		ringCap:   ringCap,
		changed:   make(chan struct{}),
	}
}

// JobView is the JSON shape of a job returned by the API.
type JobView struct {
	ID        string        `json:"id"`
	Tenant    string        `json:"tenant"`
	Digest    string        `json:"digest"`
	Status    Status        `json:"status"`
	Cached    bool          `json:"cached,omitempty"`
	Retriable bool          `json:"retriable,omitempty"`
	Error     string        `json:"error,omitempty"`
	Report    *core.Summary `json:"report,omitempty"`
	// Timestamps in Unix milliseconds (0 = not reached).
	SubmittedMS int64 `json:"submitted_ms"`
	StartedMS   int64 `json:"started_ms,omitempty"`
	FinishedMS  int64 `json:"finished_ms,omitempty"`
	// LastSeq is the sequence number of the newest event.
	LastSeq int64 `json:"last_seq"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Digest:      j.Digest,
		Status:      j.status,
		Cached:      j.cached,
		Retriable:   j.retriable,
		Error:       j.errMsg,
		Report:      j.report,
		SubmittedMS: j.submitted.UnixMilli(),
		LastSeq:     j.seq,
	}
	if !j.started.IsZero() {
		v.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		v.FinishedMS = j.finished.UnixMilli()
	}
	return v
}

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Report returns the terminal report (nil unless status is done).
func (j *Job) Report() *core.Summary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// EventsSince returns the buffered events with Seq > after (oldest first)
// and a channel that is closed when a newer event than the returned set
// arrives. If events older than `after+1` have been dropped from the ring,
// the caller simply gets what is still buffered — progress events are
// advisory; the terminal status event is always the newest and never missed
// by a reader that follows the changed channel.
func (j *Job) EventsSince(after int64) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for _, ev := range j.events {
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out, j.changed
}

// emit appends an event, evicting the oldest non-status entries when the
// ring overflows.
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(ev)
}

func (j *Job) emitLocked(ev Event) {
	j.seq++
	ev.Seq = j.seq
	ev.TMS = time.Since(j.submitted).Milliseconds()
	if len(j.events) >= j.ringCap {
		drop := len(j.events) - j.ringCap + 1
		j.events = append(j.events[:0], j.events[drop:]...)
	}
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// emitProgress converts a core progress snapshot into an event.
func (j *Job) emitProgress(ev core.ProgressEvent) {
	j.emit(Event{
		Kind:          "progress",
		Phase:         ev.Phase,
		Round:         ev.Round,
		Tasks:         ev.Tasks,
		UniqueSignals: ev.UniqueTotal,
		Queries:       ev.Queries,
		SolverSteps:   ev.SolverSteps,
		Verdict:       ev.Verdict,
	})
}

// setRunning transitions queued -> running.
func (j *Job) setRunning(cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	j.emitLocked(Event{Kind: "status", Status: string(StatusRunning)})
}

// finish moves the job to a terminal state. It is a no-op if the job is
// already terminal (a drain racing a natural completion keeps whichever
// outcome landed first — a decided verdict is never revoked).
func (j *Job) finish(st Status, rep *core.Summary, errMsg string, retriable bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return false
	}
	j.status = st
	j.report = rep
	j.errMsg = errMsg
	j.retriable = retriable
	j.finished = time.Now()
	j.cancel = nil
	j.emitLocked(Event{Kind: "status", Status: string(st), Error: errMsg})
	return true
}

// markCached stamps a store-hit job: born terminal, report attached.
func (j *Job) markCached(rep *core.Summary) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cached = true
	j.status = StatusDone
	j.report = rep
	j.finished = time.Now()
	j.emitLocked(Event{Kind: "status", Status: string(StatusDone)})
}

// cancelRunning invokes the job's analysis cancel func, if any.
func (j *Job) cancelRunning() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
