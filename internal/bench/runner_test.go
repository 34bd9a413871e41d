package bench

import (
	"context"
	"path/filepath"
	"testing"

	"qed2/internal/core"
)

// TestRunnerProgressMonotonic pins the serialization contract of the
// Progress callback: even with many workers finishing out of order, the
// observed done values must be exactly 1..N in order, and invocations must
// never overlap (the callback mutates shared state without locking, so any
// concurrent invocation is caught by the race detector).
func TestRunnerProgressMonotonic(t *testing.T) {
	insts := Suite()[:16]
	var seen []int
	results := Run(insts, &RunOptions{
		Config:  core.Config{QuerySteps: 1_000, GlobalSteps: 10_000, Seed: 1},
		Workers: 8,
		Progress: func(done, total int, r Result) {
			if total != len(insts) {
				t.Errorf("total = %d, want %d", total, len(insts))
			}
			seen = append(seen, done)
		},
	})
	if len(results) != len(insts) {
		t.Fatalf("got %d results, want %d", len(results), len(insts))
	}
	if len(seen) != len(insts) {
		t.Fatalf("progress called %d times, want %d", len(seen), len(insts))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("done sequence %v not monotonic at position %d", seen, i)
		}
	}
}

// TestRunContextCanceledStampsEveryInstance pins two contracts of a canceled
// run: the Progress callback still reaches done == len(insts) (canceled
// stamps count as completed instances), and no cancellation-degraded result
// is ever persisted to the checkpoint — a resumed run must re-analyze them.
func TestRunContextCanceledStampsEveryInstance(t *testing.T) {
	insts := Suite()[:8]
	cfg := core.Config{QuerySteps: 500, GlobalSteps: 10_000, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriter(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	results := RunContext(ctx, insts, &RunOptions{
		Config:     cfg,
		Workers:    4,
		Checkpoint: w,
		Progress:   func(done, total int, r Result) { last = done },
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if last != len(insts) {
		t.Fatalf("final Progress done = %d, want %d (canceled instances must be reported)", last, len(insts))
	}
	for _, r := range results {
		if r.Summary.Verdict != "unknown" || r.Summary.Degraded != core.DegradedCanceled {
			t.Fatalf("%s: result = %+v, want cancellation-degraded unknown", r.Instance.Name, r.Summary)
		}
	}
	got, err := LoadCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("checkpoint persisted %d cancellation-degraded records: %v", len(got), got)
	}
}
