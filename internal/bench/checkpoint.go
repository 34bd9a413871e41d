package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"qed2/internal/buildinfo"
	"qed2/internal/core"
)

// Checkpointing: qed2bench persists one JSON InstanceRecord per line as
// instances complete, so a crashed or interrupted suite run can resume
// (-resume) from the instances already decided instead of restarting. The
// first line of the file is a header stamping the analyzer configuration
// (core.Config.Stamp): resuming under different budgets, seed, or mode
// would silently mix records from incomparable runs, so LoadCheckpoint
// refuses a mismatched stamp. Record lines are append-only JSONL — a kill
// can at worst tear the final line, which ReadStamped tolerates by
// discarding it. The qed2d drain checkpoint shares the header and the
// reader, with its own record type and writer.

// CheckpointHeader is the first line of a stamped JSONL file: the bench
// checkpoint here and the qed2d drain checkpoint. Config is written in
// canonical form; the non-nil Config discriminates the header from record
// lines. Version stamps the build that wrote the file; it is informational —
// resumability is decided by the config stamp alone, since verdicts are
// deterministic per configuration across builds of the same source.
type CheckpointHeader struct {
	Config  *core.Config `json:"config"`
	Version string       `json:"version,omitempty"`
}

// NewCheckpointHeader stamps cfg and the running build.
func NewCheckpointHeader(cfg core.Config) CheckpointHeader {
	canon := cfg.Canonical()
	return CheckpointHeader{Config: &canon, Version: buildinfo.Get().String()}
}

// StampedReader words the errors of ReadStamped for the program reading
// the file: Owner prefixes every message ("bench", "service"), Runs names
// the reader's side of a stamp mismatch ("this run uses"), and Retry is how
// its user starts over ("rerun").
type StampedReader struct {
	Owner, Runs, Retry string
}

// ReadStamped reads a stamped JSONL file written under cfg and hands each
// record line, decoded into R, to each together with its 1-based line
// number; an error from each stops the read and is returned as is. It
// reports false when there is nothing to read: a missing file is an empty
// checkpoint (resume of a run that never started), as is a file of blank
// lines. A header stamping a configuration other than cfg is refused —
// rehydrating records produced under different budgets, seed, or mode
// would silently mix incomparable runs. A torn final line — the signature
// of a mid-write kill — is discarded; malformed lines anywhere else
// (including an unparseable or missing header) are an error, since they
// mean the file is not a checkpoint of this run.
func ReadStamped[R any](r StampedReader, path string, cfg core.Config, each func(lineNo int, rec R) error) (bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("%s: reading checkpoint %s: %w", r.Owner, path, err)
	}
	lines := strings.Split(string(b), "\n")
	// Trim trailing blank lines so "last line" means last record attempt.
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return false, nil
	}
	var hdr CheckpointHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Config == nil {
		return false, fmt.Errorf("%s: checkpoint %s has no config header (corrupt, or predates config stamping) — delete it and %s", r.Owner, path, r.Retry)
	}
	if got, want := hdr.Config.Stamp(), cfg.Stamp(); got != want {
		return false, fmt.Errorf("%s: checkpoint %s was written under config %s but %s %s — delete it or %s with matching flags", r.Owner, path, got, r.Runs, want, r.Retry)
	}
	for i, line := range lines[1:] {
		lineNo := i + 2 // 1-based, after the header
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec R
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			if lineNo == len(lines) {
				break // torn final line from an interrupted write
			}
			return true, fmt.Errorf("%s: checkpoint %s line %d: %w", r.Owner, path, lineNo, err)
		}
		if err := each(lineNo, rec); err != nil {
			return true, err
		}
	}
	return true, nil
}

// CheckpointWriter appends instance records to a JSONL checkpoint file.
// Append is safe for concurrent use by the bench worker pool. Write errors
// are sticky: the first one is remembered and reported by Err, and later
// Appends become no-ops, so a full disk cannot corrupt the tail of the file
// with interleaved partial lines.
type CheckpointWriter struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// NewCheckpointWriter opens (creating or appending to) the checkpoint file.
// A fresh (empty or new) file gets a header line stamping cfg; appending to
// a resumed file keeps the existing header — LoadCheckpoint has already
// verified it matches before the writer is opened.
func NewCheckpointWriter(path string, cfg core.Config) (*CheckpointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: opening checkpoint %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("bench: opening checkpoint %s: %w", path, err)
	}
	if st.Size() == 0 {
		b, err := json.Marshal(NewCheckpointHeader(cfg))
		if err == nil {
			_, err = f.Write(append(b, '\n'))
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: writing checkpoint header %s: %w", path, err)
		}
	}
	return &CheckpointWriter{f: f}, nil
}

// Append writes one record as a single JSONL line.
func (w *CheckpointWriter) Append(rec InstanceRecord) {
	b, err := json.Marshal(rec)
	if err != nil {
		w.setErr(err)
		return
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if _, err := w.f.Write(b); err != nil {
		w.err = err
	}
}

func (w *CheckpointWriter) setErr(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
}

// Err returns the first write error, if any.
func (w *CheckpointWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close closes the underlying file.
func (w *CheckpointWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// LoadCheckpoint reads a checkpoint file back into a name-keyed record map
// through ReadStamped, refusing one whose header stamps a configuration
// different from cfg. Records must name their instance and carry a
// recognized verdict.
func LoadCheckpoint(path string, cfg core.Config) (map[string]InstanceRecord, error) {
	out := map[string]InstanceRecord{}
	_, err := ReadStamped(StampedReader{Owner: "bench", Runs: "this run uses", Retry: "rerun"}, path, cfg,
		func(lineNo int, rec InstanceRecord) error {
			if rec.Name == "" {
				return fmt.Errorf("bench: checkpoint %s line %d: record without instance name", path, lineNo)
			}
			if _, ok := core.ParseVerdict(rec.Verdict); !ok && rec.Verdict != "compile-error" {
				return fmt.Errorf("bench: checkpoint %s line %d: unrecognized verdict %q", path, lineNo, rec.Verdict)
			}
			out[rec.Name] = rec
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// resultFromRecord rehydrates a checkpointed record into a Result. The
// record carries the instance's whole Summary, so a resumed run renders the
// same tables as a fresh one; only the witnesses themselves are not
// persisted. rec.Verdict has been validated by LoadCheckpoint.
func resultFromRecord(inst Instance, rec InstanceRecord) Result {
	res := Result{
		Instance:    inst,
		AnalyzeTime: time.Duration(rec.AnalyzeMS * float64(time.Millisecond)),
		Summary:     rec.Summary,
	}
	if rec.Verdict == "compile-error" {
		res.CompileErr = errors.New(rec.Reason)
		res.Summary = core.Summary{}
	}
	return res
}
