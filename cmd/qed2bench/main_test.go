package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qed2/internal/bench"
	"qed2/internal/core"
)

// buildBench compiles the qed2bench binary once per test binary.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qed2bench")
	out, err := exec.Command("go", "build", "-o", bin, "qed2/cmd/qed2bench").CombinedOutput()
	if err != nil {
		t.Fatalf("building qed2bench: %v\n%s", err, out)
	}
	return bin
}

// benchArgs is the budget configuration shared by every e2e run: workers=1
// for a deterministic instance order, step budgets small enough to finish in
// seconds but with a wall-clock timeout loose enough that steps (not time)
// decide every verdict — the precondition for run-to-run determinism.
func benchArgs(extra ...string) []string {
	args := []string{
		"-workers", "1", "-query-workers", "1",
		"-query-steps", "500", "-global-steps", "10000",
		"-timeout", "30s", "-seed", "1",
	}
	return append(args, extra...)
}

// countLines returns the number of complete (newline-terminated) lines.
func countLines(path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(b), "\n")
}

// TestSIGINTYieldsPartialCheckpointAndResumeConverges drives the full
// fault-tolerance contract of qed2bench end to end: SIGINT mid-suite must
// exit 130 leaving a parseable partial checkpoint and a parseable partial
// -json record, and -resume from that checkpoint must converge to exactly
// the verdict set of an uninterrupted run.
func TestSIGINTYieldsPartialCheckpointAndResumeConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e suite runs take ~20s")
	}
	bin := buildBench(t)
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.jsonl")
	partialJSON := filepath.Join(dir, "partial.json")

	// Phase 1: start a checkpointed run, interrupt it once a few instances
	// have been persisted.
	cmd := exec.Command(bin, benchArgs("-checkpoint", ck, "-json", partialJSON)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(60 * time.Second)
	// The checkpoint's first line is its header, so four lines mean three
	// persisted records; an instance still running at SIGINT is canceled
	// and not persisted.
	for countLines(ck) < 4 {
		select {
		case err := <-exited:
			t.Fatalf("qed2bench exited before it could be interrupted: %v", err)
		case <-deadline:
			t.Fatalf("no checkpoint progress after 60s (have %d lines)", countLines(ck))
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-deadline:
		t.Fatal("qed2bench did not exit within 60s of SIGINT")
	}
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("interrupted qed2bench exit = %d, want 130", code)
	}

	// The partial checkpoint must parse (against the matching config stamp)
	// and be genuinely partial.
	completed, err := bench.LoadCheckpoint(ck, core.Config{QuerySteps: 500, GlobalSteps: 10_000, Seed: 1})
	if err != nil {
		t.Fatalf("partial checkpoint unparseable: %v", err)
	}
	suiteSize := len(bench.Suite())
	if len(completed) < 3 || len(completed) >= suiteSize {
		t.Fatalf("checkpoint has %d records, want a partial set in [3, %d)", len(completed), suiteSize)
	}
	for name, rec := range completed {
		if rec.Degraded == core.DegradedCanceled {
			t.Fatalf("checkpoint persisted a cancellation-degraded verdict for %s (reason %q)", name, rec.Reason)
		}
	}
	// The partial -json run record must parse too.
	rec, err := bench.LoadRunRecord(partialJSON)
	if err != nil {
		t.Fatalf("partial -json record unparseable: %v", err)
	}
	if s := rec.Section("run:full"); s == nil || s.Instances != suiteSize {
		t.Fatalf("partial record run:full section = %+v", s)
	}

	// Phase 2: resume the interrupted run to completion.
	g1 := filepath.Join(dir, "resumed.json")
	out, err := exec.Command(bin, benchArgs("-checkpoint", ck, "-resume", "-golden-out", g1)...).CombinedOutput()
	if err != nil {
		t.Fatalf("resume run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "resuming:") {
		t.Fatalf("resume run did not report skipped instances:\n%s", out)
	}

	// Phase 3: an uninterrupted run must produce the identical verdict set.
	g2 := filepath.Join(dir, "fresh.json")
	out, err = exec.Command(bin, benchArgs("-golden-out", g2)...).CombinedOutput()
	if err != nil {
		t.Fatalf("fresh run failed: %v\n%s", err, out)
	}
	resumed, err := bench.LoadGolden(g1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := bench.LoadGolden(g2)
	if err != nil {
		t.Fatal(err)
	}
	diffs, degraded := bench.DiffGolden(fresh, resumed)
	if len(diffs) != 0 || len(degraded) != 0 {
		t.Fatalf("resumed run diverged from uninterrupted run:\ndiffs: %v\ndegraded: %v", diffs, degraded)
	}
}

// TestResumeTablesMatchFreshRun: a table rendered from -resume must equal
// the one the run that wrote the checkpoint printed, because a checkpoint
// record carries the instance's whole summary — circuit shape (Table 1),
// query workers (Table 2's caption) and the counterexample values (Table 4).
// Shard 1/8 keeps each run short and still holds a vulnerability instance
// with a witness pair, so the Table 4 comparison is not vacuous.
func TestResumeTablesMatchFreshRun(t *testing.T) {
	bin := buildBench(t)
	dir := t.TempDir()
	run := func(table string, resume bool) string {
		t.Helper()
		args := benchArgs("-shard", "1/8", "-table", table, "-checkpoint", filepath.Join(dir, "ck"+table+".jsonl"))
		if resume {
			args = append(args, "-resume")
		}
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("qed2bench -table %s (resume=%v): %v\n%s", table, resume, err, stderr.String())
		}
		if resume && !strings.Contains(stderr.String(), "resuming:") {
			t.Fatalf("-table %s -resume analyzed afresh instead of resuming:\n%s", table, stderr.String())
		}
		return stdout.String()
	}
	for _, table := range []string{"1", "2", "4"} {
		fresh, resumed := run(table, false), run(table, true)
		if table == "2" {
			const caption = "(query workers: 1)"
			if !strings.Contains(fresh, caption) || !strings.Contains(resumed, caption) {
				t.Errorf("Table 2 caption lost %q:\n--- fresh\n%s--- resumed\n%s", caption, fresh, resumed)
			}
			continue
		}
		if fresh != resumed {
			t.Errorf("Table %s differs after -resume:\n--- fresh\n%s--- resumed\n%s", table, fresh, resumed)
		}
		if table == "4" && !hasWitnessRow(fresh) {
			t.Errorf("Table 4 of the shard has no unsafe row with a witness pair:\n%s", fresh)
		}
	}
}

// hasWitnessRow reports whether a rendered Table 4 lists an unsafe verdict
// with its output and witness values filled in.
func hasWitnessRow(table string) bool {
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) == 7 && f[3] == "unsafe" && f[4] != "-" && f[5] != "-" && f[6] != "-" {
			return true
		}
	}
	return false
}

func TestResumeRequiresCheckpoint(t *testing.T) {
	bin := buildBench(t)
	out, err := exec.Command(bin, "-resume").CombinedOutput()
	if err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
	if !strings.Contains(string(out), "-resume requires -checkpoint") {
		t.Fatalf("unhelpful error: %s", out)
	}
}
