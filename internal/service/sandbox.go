package service

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/store"
)

// Sandboxed execution (qed2d -sandbox). The engine's in-process panic
// boundary contains Go panics, but nothing in-process can contain a hard
// fault: an OOM kill, a fatal runtime error (stack overflow, concurrent map
// write deep in a dependency), or a solver loop that stops polling its
// context takes the whole daemon — and every tenant's jobs — with it. In
// sandbox mode each analysis instead runs in a re-exec'd child process
// (`qed2d worker`) that receives the circuit on stdin and streams progress
// events and the final stamped Report back as NDJSON on stdout. The parent
// supervises the child with a wall-clock watchdog and an RSS poller and
// SIGKILLs it when it wedges or exceeds its memory ceiling; any child death
// without a verified final report line is classified as a hard fault
// (core.DegradedHardFault) — an undecided, never-cacheable outcome for that
// one job, and nothing else.
//
// Both ends of the pipe protocol live in this file: Sandbox (parent,
// plugged into the engine as Config.Runner) and WorkerMain (child,
// dispatched by cmd/qed2d when argv[1] == "worker").

// JobRunner executes one job's analysis on behalf of the engine, replacing
// the in-process core.AnalyzeContext call. cfg.Progress (when non-nil)
// receives the same milestone events an in-process run would emit. A
// *HardFaultError return means the execution vehicle died — the analysis
// outcome is unknown and must not be cached; any other error is an
// internal failure of the runner itself.
type JobRunner func(ctx context.Context, sys *r1cs.System, cfg core.Config) (*store.Report, error)

// HardFaultError reports that an isolated worker process died without
// delivering a verdict: killed by the kernel (OOM), by a fatal runtime
// error, or by the supervisor's watchdog. It is the error-space twin of
// core.DegradedHardFault.
type HardFaultError struct {
	// Cause is a short machine-greppable reason: "oom-rss", "wall-clock",
	// "killed", "exit", "torn-output", "spawn".
	Cause string
	// Detail is the human-oriented elaboration (exit status, limits, stderr
	// tail).
	Detail string
}

// Error implements error.
func (e *HardFaultError) Error() string {
	if e.Detail == "" {
		return "hard fault: " + e.Cause
	}
	return "hard fault: " + e.Cause + ": " + e.Detail
}

// Sandbox runs jobs in re-exec'd worker subprocesses. The zero value is not
// usable: Binary must point at a qed2d executable (normally
// os.Executable()).
type Sandbox struct {
	// Binary is the executable to re-exec with the "worker" subcommand.
	Binary string
	// MemMB, when positive, is the child's memory ceiling: the child sets
	// debug.SetMemoryLimit(MemMB<<20) so the Go runtime GCs aggressively
	// near the limit, and the parent SIGKILLs any child whose RSS
	// nevertheless exceeds it (runaway allocations the soft limit cannot
	// stop).
	MemMB int
	// Wall is the per-job wall-clock watchdog (default 5m): a child that
	// has not delivered its report within Wall is considered wedged and
	// SIGKILLed regardless of what it is doing.
	Wall time.Duration
	// RSSPoll is the RSS sampling cadence (default 100ms).
	RSSPoll time.Duration
	// Metrics, when non-nil, receives the service.sandbox.* counters.
	Metrics *obs.Metrics
}

func (s *Sandbox) wall() time.Duration {
	if s.Wall > 0 {
		return s.Wall
	}
	return 5 * time.Minute
}

func (s *Sandbox) rssPoll() time.Duration {
	if s.RSSPoll > 0 {
		return s.RSSPoll
	}
	return 100 * time.Millisecond
}

// workerConfig is the -config JSON handed to the child: the analyzer
// configuration fields that determine verdicts, plus the sandbox knobs.
// Progress/Obs/Metrics hooks deliberately do not cross the process
// boundary — progress comes back over the pipe.
type workerConfig struct {
	Mode        string `json:"mode"`
	SliceRadius int    `json:"slice_radius"`
	QuerySteps  int64  `json:"query_steps"`
	GlobalSteps int64  `json:"global_steps"`
	TimeoutMS   int64  `json:"timeout_ms"`
	Seed        int64  `json:"seed"`
	Workers     int    `json:"workers"`
	NoSolveRule bool   `json:"no_solve_rule,omitempty"`
	NoBitsRule  bool   `json:"no_bits_rule,omitempty"`
	NoStatic    bool   `json:"no_static,omitempty"`
	MemMB       int    `json:"mem_mb,omitempty"`
	// Chaos, set by the parent when a worker.kill / worker.hang fault fires
	// at spawn, tells the child to die or wedge mid-analysis — the
	// deterministic stand-in for a real OOM kill or runaway solver loop.
	Chaos string `json:"chaos,omitempty"`
}

// workerLine is one NDJSON line of the child→parent stream.
type workerLine struct {
	Kind     string              `json:"kind"` // "progress" | "report"
	Progress *core.ProgressEvent `json:"progress,omitempty"`
	Report   *store.Report       `json:"report,omitempty"`
}

// maxWorkerLine bounds one NDJSON line from the child (reports carry
// counterexample signal lists; 8 MiB is far beyond any real one).
const maxWorkerLine = 8 << 20

// Run executes one job in a worker subprocess; it satisfies JobRunner.
func (s *Sandbox) Run(ctx context.Context, sys *r1cs.System, cfg core.Config) (*store.Report, error) {
	spawns := s.Metrics.Counter("service.sandbox.spawns")
	hardFaults := s.Metrics.Counter("service.sandbox.hard_faults")
	wallKills := s.Metrics.Counter("service.sandbox.wall_kills")
	rssKills := s.Metrics.Counter("service.sandbox.rss_kills")

	wc := workerConfig{
		Mode:        cfg.Mode.String(),
		SliceRadius: cfg.SliceRadius,
		QuerySteps:  cfg.QuerySteps,
		GlobalSteps: cfg.GlobalSteps,
		TimeoutMS:   cfg.Timeout.Milliseconds(),
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		NoSolveRule: cfg.DisableSolveRule,
		NoBitsRule:  cfg.DisableBitsRule,
		NoStatic:    cfg.DisableStatic,
		MemMB:       s.MemMB,
	}
	// The chaos sites are checked in the parent, once per spawn, so their
	// deterministic hit counters advance across jobs (a per-child counter
	// would make every child decide identically). A fired site rides to the
	// child as a config field and takes effect mid-analysis there.
	if faultinject.Enabled() {
		if f := faultinject.Check("worker.kill"); f.Err != "" || f.Deadline {
			wc.Chaos = chaosKill
		}
		if f := faultinject.Check("worker.hang"); (f.Err != "" || f.Deadline) && wc.Chaos == "" {
			wc.Chaos = chaosHang
		}
	}
	cfgJSON, err := json.Marshal(wc)
	if err != nil {
		return nil, fmt.Errorf("service: marshaling worker config: %v", err)
	}

	cmd := exec.Command(s.Binary, "worker", "-config", string(cfgJSON))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, &HardFaultError{Cause: "spawn", Detail: err.Error()}
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, &HardFaultError{Cause: "spawn", Detail: err.Error()}
	}
	var stderr tailBuffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, &HardFaultError{Cause: "spawn", Detail: err.Error()}
	}
	spawns.Inc()

	// Feed the circuit; a child that dies early makes the write fail with
	// EPIPE, which is fine — the wait-side classification decides.
	go func() {
		var buf strings.Builder
		_, _ = sys.WriteTo(&buf)
		_, _ = io.WriteString(stdin, buf.String())
		stdin.Close()
	}()

	// Watchdog: SIGKILL on context cancellation (drain), wall-clock
	// overrun, or RSS above the ceiling. killReason records which fired
	// first; the reader loop below never blocks it (the child's pipes close
	// when it dies).
	var (
		killMu     sync.Mutex
		killReason string
	)
	kill := func(reason string) {
		killMu.Lock()
		if killReason == "" {
			killReason = reason
			cmd.Process.Kill()
		}
		killMu.Unlock()
	}
	watchdogDone := make(chan struct{})
	reaped := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		deadline := time.NewTimer(s.wall())
		defer deadline.Stop()
		ticker := time.NewTicker(s.rssPoll())
		defer ticker.Stop()
		for {
			select {
			case <-reaped:
				return
			case <-ctx.Done():
				kill("context")
				return
			case <-deadline.C:
				wallKills.Inc()
				kill("wall-clock")
				return
			case <-ticker.C:
				if s.MemMB > 0 {
					if rss, ok := processRSS(cmd.Process.Pid); ok && rss > int64(s.MemMB)<<20 {
						rssKills.Inc()
						kill("oom-rss")
						return
					}
				}
			}
		}
	}()

	// Read the child's stream until EOF (its death closes the pipe).
	var report *store.Report
	var lineErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), maxWorkerLine)
	for sc.Scan() {
		var line workerLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			lineErr = fmt.Errorf("undecodable worker line: %v", err)
			break
		}
		switch {
		case line.Kind == "progress" && line.Progress != nil:
			if cfg.Progress != nil {
				cfg.Progress(*line.Progress)
			}
		case line.Kind == "report" && line.Report != nil:
			report = line.Report
		}
	}
	if lineErr == nil {
		lineErr = sc.Err()
	}
	waitErr := cmd.Wait()
	close(reaped)
	<-watchdogDone

	killMu.Lock()
	reason := killReason
	killMu.Unlock()

	switch {
	case ctx.Err() != nil:
		// Drain or per-job cancel: the kill is deliberate, not a fault.
		return nil, ctx.Err()
	case reason != "":
		hardFaults.Inc()
		return nil, &HardFaultError{Cause: reason, Detail: s.limitDetail(waitErr, &stderr)}
	case waitErr != nil:
		// Killed by the kernel (OOM), a fatal runtime error (exit 2), or
		// any other abnormal death.
		hardFaults.Inc()
		return nil, &HardFaultError{Cause: "exit", Detail: s.limitDetail(waitErr, &stderr)}
	case report == nil:
		// Exit 0 but no (or an undecodable) final report line: a torn
		// stream is as untrustworthy as a crash.
		hardFaults.Inc()
		detail := "worker exited without a report"
		if lineErr != nil {
			detail = lineErr.Error()
		}
		return nil, &HardFaultError{Cause: "torn-output", Detail: detail}
	}
	return report, nil
}

// limitDetail renders the child's exit state plus a stderr tail.
func (s *Sandbox) limitDetail(waitErr error, stderr *tailBuffer) string {
	var parts []string
	if waitErr != nil {
		parts = append(parts, waitErr.Error())
	}
	if tail := stderr.String(); tail != "" {
		parts = append(parts, "stderr: "+tail)
	}
	return strings.Join(parts, "; ")
}

// tailBuffer retains the last kilobyte of what was written to it — enough
// of a crashing child's stderr to diagnose, bounded so a looping child
// cannot balloon the parent.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	const keep = 1 << 10
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > keep {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-keep:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// processRSS reads a process's resident set size. Linux-only (procfs);
// elsewhere ok is false and the RSS watchdog is inert (the wall-clock
// watchdog and the child-side soft limit still stand).
func processRSS(pid int) (int64, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * int64(os.Getpagesize()), true
}

// Chaos modes carried by workerConfig.Chaos.
const (
	chaosKill = "kill" // raise SIGKILL on self at the first progress event
	chaosHang = "hang" // block forever at the first progress event
)

// WorkerMain is the child-side entry point of the sandbox protocol,
// dispatched by cmd/qed2d for the "worker" subcommand. It reads an r1cs
// text dump from stdin, analyzes it under the -config JSON, and streams
// progress plus the final Report as NDJSON on stdout. The exit code is 0
// when a report was written, 3 on usage/input errors. It never writes
// anything but protocol lines to stdout.
func WorkerMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qed2d worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgJSON := fs.String("config", "", "worker configuration JSON (required)")
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *cfgJSON == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: qed2d worker -config <json> < circuit.r1cs")
		return 3
	}
	var wc workerConfig
	if err := json.Unmarshal([]byte(*cfgJSON), &wc); err != nil {
		fmt.Fprintln(stderr, "qed2d worker: bad -config:", err)
		return 3
	}
	// The chaos substrate is armed in the child too: solver-level sites
	// (smt.*, core.query) fire here exactly as they would in-process, so a
	// chaos schedule exercises both the in-child soft boundaries and the
	// parent's hard-fault classification.
	if _, err := faultinject.EnableFromEnv(); err != nil {
		fmt.Fprintln(stderr, "qed2d worker:", err)
		return 3
	}
	if wc.MemMB > 0 {
		debug.SetMemoryLimit(int64(wc.MemMB) << 20)
	}

	sys, err := r1cs.Parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "qed2d worker: parsing circuit:", err)
		return 3
	}

	cfg := core.Config{
		SliceRadius:      wc.SliceRadius,
		QuerySteps:       wc.QuerySteps,
		GlobalSteps:      wc.GlobalSteps,
		Timeout:          time.Duration(wc.TimeoutMS) * time.Millisecond,
		Seed:             wc.Seed,
		Workers:          wc.Workers,
		DisableSolveRule: wc.NoSolveRule,
		DisableBitsRule:  wc.NoBitsRule,
		DisableStatic:    wc.NoStatic,
	}
	switch wc.Mode {
	case core.ModeFull.String(), "":
		cfg.Mode = core.ModeFull
	case core.ModePropagationOnly.String():
		cfg.Mode = core.ModePropagationOnly
	case core.ModeSMTOnly.String():
		cfg.Mode = core.ModeSMTOnly
	default:
		fmt.Fprintf(stderr, "qed2d worker: unknown mode %q\n", wc.Mode)
		return 3
	}

	enc := json.NewEncoder(stdout)
	chaosArmed := wc.Chaos != ""
	cfg.Progress = func(ev core.ProgressEvent) {
		if chaosArmed {
			// Mid-analysis hard-fault simulation: a SIGKILL is exactly what
			// the kernel's OOM killer delivers, and an unbounded block is
			// exactly a solver loop that stopped polling. Both leave the
			// parent to discover the death through the pipe and watchdog.
			chaosArmed = false
			switch wc.Chaos {
			case chaosKill:
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
				runtime.Gosched() // not reached once the signal lands
			case chaosHang:
				select {}
			}
		}
		_ = enc.Encode(workerLine{Kind: "progress", Progress: &ev})
	}

	rep := core.AnalyzeContext(context.Background(), sys, &cfg)
	if err := enc.Encode(workerLine{Kind: "report", Report: store.FromCore(rep, sys)}); err != nil {
		fmt.Fprintln(stderr, "qed2d worker: writing report:", err)
		return 3
	}
	return 0
}

var _ JobRunner = (*Sandbox)(nil).Run // Sandbox.Run satisfies the engine contract
