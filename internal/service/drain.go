package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/r1cs"
	"qed2/internal/store"
)

// Graceful drain (SIGTERM path). The contract mirrors the bench checkpoint
// (DESIGN.md §11): decided verdicts are never revoked — a job that finishes
// while the drain is racing it keeps its result and is stored — while
// everything undecided is either shed back to the client as a retriable
// cancellation (queued jobs) or checkpointed for the next daemon process
// (in-flight jobs). The checkpoint is stamped with the analyzer
// configuration; Resume refuses a mismatched stamp, so a restarted daemon
// can only continue runs whose verdicts are comparable to its own.

// drainRecord is one interrupted in-flight job: everything needed to
// re-create it in the next process.
type drainRecord struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Digest string `json:"digest"`
	R1CS   string `json:"r1cs"`
}

// DrainSummary reports what a drain did.
type DrainSummary struct {
	// Shed is the number of queued jobs rejected as retriable cancellations.
	Shed int
	// Interrupted is the number of in-flight jobs canceled mid-analysis and
	// written to the checkpoint.
	Interrupted int
	// Checkpoint is the path written (empty if no CheckpointPath configured
	// or nothing was interrupted).
	Checkpoint string
}

// Drain gracefully shuts the engine down: queued jobs are shed as
// retriable cancellations, in-flight analyses are canceled at their next
// query boundary, workers are joined, and the interrupted jobs are
// checkpointed. ctx bounds the wait for in-flight jobs to notice the
// cancellation. The engine accepts no submissions afterwards.
func (e *Engine) Drain(ctx context.Context) (DrainSummary, error) {
	shed, running := e.stop(true)
	sum := DrainSummary{Shed: len(shed)}

	// Wait for workers to finish their (already canceled) analyses.
	done := make(chan struct{})
	go func() { e.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline pressure: hard-cancel the root context (a no-op if the
		// per-job cancels already fired) and wait it out — every analysis
		// loop checks its context at query boundaries.
		e.cancel()
		<-done
	}
	e.cancel()

	// Checkpoint the jobs that were genuinely interrupted: running at drain
	// time and finished canceled. A job that completed decided in the race
	// keeps its verdict and needs no resume.
	var interrupted []*Job
	for _, j := range running {
		if j.Status() == StatusCanceled {
			interrupted = append(interrupted, j)
		}
	}
	sum.Interrupted = len(interrupted)
	if e.cfg.CheckpointPath == "" || len(interrupted) == 0 {
		return sum, nil
	}
	if err := writeDrainCheckpoint(e.cfg.CheckpointPath, e.cfg.Analyzer, interrupted); err != nil {
		return sum, err
	}
	sum.Checkpoint = e.cfg.CheckpointPath
	return sum, nil
}

// Close shuts the engine down without checkpointing: queued jobs are shed,
// running analyses canceled, workers joined. For tests and error paths.
func (e *Engine) Close() {
	e.stop(false)
	e.cancel()
	e.wg.Wait()
}

// stop flips the engine into its terminal state and returns the shed
// queued jobs and the jobs that were running. Idempotent: a second call
// finds empty queues. When cancelRunning is true the in-flight analyses'
// contexts are canceled individually (Close cancels the root instead).
func (e *Engine) stop(cancelRunning bool) (shed, running []*Job) {
	e.mu.Lock()
	e.draining = true
	e.stopped = true
	for _, t := range e.sortedTenantsLocked() {
		shed = append(shed, e.queues[t]...)
		e.queues[t] = nil
	}
	e.queued = 0
	for _, j := range shed {
		delete(e.active, j.Digest)
	}
	for _, j := range e.active {
		running = append(running, j)
	}
	e.cond.Broadcast()
	e.mu.Unlock()

	for _, j := range shed {
		if j.finish(StatusCanceled, nil, "canceled: server draining", true) {
			e.canceled.Inc()
		}
	}
	if cancelRunning {
		for _, j := range running {
			j.cancelRunning()
		}
	}
	return shed, running
}

// writeDrainCheckpoint persists interrupted jobs as stamped JSONL (a
// bench.CheckpointHeader line, then one drainRecord per job), published
// durably through store.WriteFileDurable: a torn write can never masquerade
// as a checkpoint, and a machine crash after the drain cannot leave an empty
// or missing file that Resume would read as "nothing to resume".
func writeDrainCheckpoint(path string, cfg core.Config, jobs []*Job) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(bench.NewCheckpointHeader(cfg)); err != nil {
		return fmt.Errorf("service: encoding checkpoint header: %w", err)
	}
	for _, j := range jobs {
		var text bytes.Buffer
		if _, err := j.sys.WriteTo(&text); err != nil {
			return fmt.Errorf("service: serializing job %s: %w", j.ID, err)
		}
		rec := drainRecord{ID: j.ID, Tenant: j.Tenant, Digest: j.Digest, R1CS: text.String()}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("service: encoding job %s: %w", j.ID, err)
		}
	}
	if err := store.WriteFileDurable(path, "drain-*.tmp", buf.Bytes()); err != nil {
		return fmt.Errorf("service: writing checkpoint %s: %w", path, err)
	}
	return nil
}

// Resume reloads a drain checkpoint into the (freshly started) engine,
// re-enqueueing every interrupted job under its original ID and tenant. The
// file is read by bench.ReadStamped, exactly like bench.LoadCheckpoint: a
// missing file is an empty resume, a checkpoint stamped with a different
// analyzer configuration is refused, and a torn final line is discarded.
// The checkpoint file is removed after a successful load so a later drain
// can rewrite it from scratch.
func (e *Engine) Resume() (int, error) {
	path := e.cfg.CheckpointPath
	if path == "" {
		return 0, nil
	}
	resumed := 0
	found, err := bench.ReadStamped(bench.StampedReader{Owner: "service", Runs: "this daemon runs", Retry: "restart"}, path, e.cfg.Analyzer,
		func(lineNo int, rec drainRecord) error {
			sys, err := r1cs.Parse(strings.NewReader(rec.R1CS))
			if err != nil {
				return fmt.Errorf("service: checkpoint %s line %d: %w", path, lineNo, err)
			}
			if err := e.resumeJob(rec, sys); err != nil {
				return err
			}
			resumed++
			return nil
		})
	if err != nil || !found {
		return resumed, err
	}
	if err := os.Remove(path); err != nil {
		return resumed, fmt.Errorf("service: removing consumed checkpoint %s: %w", path, err)
	}
	return resumed, nil
}

// resumeJob re-creates one interrupted job. The store is consulted first —
// another process may have decided the same circuit since the drain — and
// admission control is bypassed: resumed jobs were admitted by the previous
// process, re-rejecting them would drop work the client was promised.
func (e *Engine) resumeJob(rec drainRecord, sys *r1cs.System) error {
	digest := sys.Digest()
	if rec.Digest != "" && rec.Digest != digest {
		return fmt.Errorf("service: resumed job %s: checkpoint digest %.12s… does not match its circuit (%.12s…)", rec.ID, rec.Digest, digest)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return errors.New("service: cannot resume into a stopped engine")
	}
	if _, ok := e.jobs[rec.ID]; ok {
		return fmt.Errorf("service: duplicate job id %s in checkpoint", rec.ID)
	}
	// Keep fresh IDs past every resumed one.
	if n, err := strconv.ParseInt(strings.TrimPrefix(rec.ID, "j"), 10, 64); err == nil && n > e.nextID {
		e.nextID = n
	}
	tenant := rec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	j := newJob(rec.ID, tenant, digest, sys, e.cfg.EventBuffer)
	e.jobs[j.ID] = j
	e.order = append(e.order, j.ID)
	if e.cfg.Store != nil {
		if rep, ok := e.cfg.Store.Get(digest); ok {
			j.markCached(rep)
			e.cached.Inc()
			return nil
		}
	}
	if dup := e.active[digest]; dup != nil {
		// Two interrupted jobs for one circuit cannot both be active, and the
		// engine has no way to queue the later one behind the earlier one's
		// digest. Shed it as a retriable cancellation instead: a client retry
		// attaches to the earlier job while it runs (Submit dedups on the
		// digest) and is served from the store once it is decided.
		j.finish(StatusCanceled, nil, "canceled: duplicate of in-flight job "+dup.ID, true)
		e.canceled.Inc()
		return nil
	}
	e.enqueueLocked(j)
	return nil
}
