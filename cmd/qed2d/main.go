// Command qed2d is the QED² analysis daemon: a long-running HTTP/JSON
// service that accepts circuit submissions from multiple tenants, analyzes
// them on a bounded worker pool, caches reports in a content-addressed
// store, and streams per-job progress events.
//
// API:
//
//	POST /v1/analyze            submit a circuit (circom source, an r1cs
//	                            dump as produced by qed2 -r1cs, or a binary
//	                            snarkjs .r1cs file — auto-detected);
//	                            tenant via X-QED2-Tenant. 200/202 with the
//	                            job JSON, 400 on compile errors, 429 on
//	                            admission rejection, 503 while draining.
//	GET  /v1/jobs               list jobs (submission order)
//	GET  /v1/jobs/{id}          poll one job
//	GET  /v1/jobs/{id}/events   stream the job's progress feed as NDJSON
//	GET  /healthz               liveness + build/version + queue snapshot
//	GET  /readyz                readiness: 503 while draining, with the
//	                            queue saturated, or after a failed store
//	                            scrub — load balancers stop routing without
//	                            killing the process
//	GET  /metrics               pipeline and service counters as JSON
//
// With -sandbox each analysis runs in a re-exec'd `qed2d worker` child
// process (memory ceiling via -job-mem-mb, wall-clock watchdog via
// -job-wall); a child that crashes or is killed costs one job a hard-fault
// degradation, never the daemon. Digests that hard-fault repeatedly are
// quarantined (422 + Retry-After) until a cooldown probe clears them.
//
// SIGINT/SIGTERM drain gracefully: queued jobs are shed as retriable
// cancellations, in-flight analyses stop at their next query boundary and
// are checkpointed (-checkpoint), and a restarted daemon resumes them
// under their original job IDs. A second signal force-kills.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qed2/internal/bench"
	"qed2/internal/buildinfo"
	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/service"
	"qed2/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		// Sandbox child: no listener, no signal handling — the parent
		// supervises it and SIGKILLs on overrun.
		os.Exit(service.WorkerMain(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// After the first signal starts the drain, restore the default
		// handlers so a second signal force-kills a hung shutdown.
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the daemon with explicit arguments and output streams so
// tests can drive it end to end. It returns once the listener is closed
// and the engine fully drained.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if _, err := faultinject.EnableFromEnv(); err != nil {
		fmt.Fprintln(stderr, "qed2d:", err)
		return 3
	}
	fs := flag.NewFlagSet("qed2d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg core.Config
	cfg.RegisterFlags(fs)
	fs.IntVar(&cfg.Workers, "query-workers", 0, "parallel slice-query workers per analysis (0 = GOMAXPROCS)")
	var (
		addr         = fs.String("addr", "127.0.0.1:9555", "listen address (host:port, port 0 picks one)")
		workers      = fs.Int("workers", 1, "concurrent analyses")
		queueDepth   = fs.Int("queue-depth", 64, "maximum queued (not yet running) jobs")
		tenantQuota  = fs.Int("tenant-quota", 0, "maximum queued jobs per tenant (0 = queue-depth)")
		eventBuffer  = fs.Int("event-buffer", 256, "retained progress events per job")
		storeSize    = fs.Int("store-size", 1024, "report-store memory entries")
		storeDir     = fs.String("store-dir", "", "report-store disk tier directory (empty = memory only)")
		noStore      = fs.Bool("no-store", false, "disable the content-addressed report store")
		checkpoint   = fs.String("checkpoint", "", "drain checkpoint path (empty = no drain persistence)")
		drainWait    = fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs to stop")
		sandbox      = fs.Bool("sandbox", false, "run each analysis in an isolated worker subprocess")
		jobMemMB     = fs.Int("job-mem-mb", 0, "per-job memory ceiling in MiB for sandbox workers (0 = none)")
		jobWall      = fs.Duration("job-wall", 5*time.Minute, "wall-clock watchdog per sandboxed job")
		quarFaults   = fs.Int("quarantine-faults", 3, "consecutive hard faults before a digest is quarantined")
		quarCooldown = fs.Duration("quarantine-cooldown", 30*time.Second, "quarantine duration before a half-open probe")
		version      = fs.Bool("version", false, "print version information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *version {
		fmt.Fprintln(stdout, "qed2d", buildinfo.Get().String())
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: qed2d [flags]")
		fs.PrintDefaults()
		return 3
	}

	metrics := obs.NewMetrics()
	engineCfg := service.Config{
		Analyzer:       cfg,
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		TenantQuota:    *tenantQuota,
		EventBuffer:    *eventBuffer,
		Library:        bench.Library(),
		Metrics:        metrics,
		CheckpointPath: *checkpoint,
	}
	if *sandbox {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "qed2d: resolving own binary for -sandbox:", err)
			return 3
		}
		sb := &service.Sandbox{
			Binary:  exe,
			MemMB:   *jobMemMB,
			Wall:    *jobWall,
			Metrics: metrics,
		}
		engineCfg.Runner = sb.Run
		engineCfg.QuarantineThreshold = *quarFaults
		engineCfg.QuarantineCooldown = *quarCooldown
	}
	var st *store.Store
	if !*noStore {
		var err error
		st, err = store.Open(store.Options{
			Capacity: *storeSize,
			Dir:      *storeDir,
			Stamp:    cfg.Stamp(),
			Metrics:  metrics,
		})
		if err != nil {
			fmt.Fprintln(stderr, "qed2d:", err)
			return 3
		}
		engineCfg.Store = st
		if rep, ok := st.LastScrub(); ok && (rep.Corrupt > 0 || rep.TempRemoved > 0 || rep.Err != "") {
			fmt.Fprintf(stdout, "qed2d: store scrub: %d scanned, %d corrupt quarantined, %d temp removed\n",
				rep.Scanned, rep.Corrupt, rep.TempRemoved)
		}
	}
	engine := service.New(engineCfg)
	if n, err := engine.Resume(); err != nil {
		fmt.Fprintln(stderr, "qed2d:", err)
		engine.Close()
		return 3
	} else if n > 0 {
		fmt.Fprintf(stdout, "qed2d: resumed %d interrupted job(s) from %s\n", n, *checkpoint)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "qed2d:", err)
		engine.Close()
		return 3
	}
	srv := &http.Server{Handler: newHandler(engine, st, metrics, stderr)}
	fmt.Fprintf(stdout, "qed2d %s listening on http://%s\n", buildinfo.Get().ShortRevision(), ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "qed2d:", err)
		engine.Close()
		return 3
	case <-ctx.Done():
	}

	// Graceful drain: first stop the engine (new submissions get 503 while
	// the listener still answers polls), then shut the HTTP server down.
	fmt.Fprintln(stdout, "qed2d: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	sum, derr := engine.Drain(drainCtx)
	if derr != nil {
		fmt.Fprintln(stderr, "qed2d: drain:", derr)
	}
	fmt.Fprintf(stdout, "qed2d: drained (%d shed, %d interrupted", sum.Shed, sum.Interrupted)
	if sum.Checkpoint != "" {
		fmt.Fprintf(stdout, ", checkpoint %s", sum.Checkpoint)
	}
	fmt.Fprintln(stdout, ")")
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	if derr != nil {
		return 3
	}
	return 0
}

// server bundles the handler dependencies.
type server struct {
	engine  *service.Engine
	store   *store.Store // nil with -no-store
	metrics *obs.Metrics
	errlog  io.Writer
}

func newHandler(engine *service.Engine, st *store.Store, metrics *obs.Metrics, errlog io.Writer) http.Handler {
	s := &server{engine: engine, store: st, metrics: metrics, errlog: errlog}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.analyze)
	mux.HandleFunc("GET /v1/jobs", s.jobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.job)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.HandleFunc("GET /metrics", s.metricsHandler)
	return s.recoverMiddleware(mux)
}

// recoverMiddleware is the handler-level panic boundary (and the
// service.handler fault-injection site): a crash in one request becomes a
// 500 for that client, never a dead daemon.
func (s *server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				fmt.Fprintf(s.errlog, "qed2d: panic in %s %s: %v\n", r.Method, r.URL.Path, rec)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		if faultinject.Enabled() {
			if f := faultinject.Check("service.handler"); f.Err != "" || f.Deadline {
				writeError(w, http.StatusInternalServerError, "injected fault: "+f.Err)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	if w.Header().Get("Content-Type") != "" {
		// Headers already sent (mid-stream failure); nothing sane to add.
		return
	}
	writeJSON(w, status, map[string]string{"error": msg})
}

// maxBody bounds submission bodies (largest suite circuits are ~100 KiB;
// 8 MiB leaves room for generated circuits without inviting abuse).
const maxBody = 8 << 20

// analyze is POST /v1/analyze: submit circom source or an r1cs dump.
func (s *server) analyze(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge, "circuit exceeds 8 MiB")
		return
	}
	tenant := r.Header.Get("X-QED2-Tenant")
	text := string(body)
	var job *service.Job
	// A binary snarkjs .r1cs or a text r1cs dump is self-identifying by its
	// header; everything else is treated as circom source. Binary bodies
	// carry no signal names (.sym cannot ride along in the same body), so
	// they are normalized to the text form with synthesized names.
	switch {
	case r1cs.IsBinaryR1CS(body):
		var sys *r1cs.System
		sys, err = r1cs.ParseBinary(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "binary r1cs: "+err.Error())
			return
		}
		job, err = s.engine.SubmitR1CS(tenant, sys.MarshalText())
	case strings.HasPrefix(strings.TrimLeft(text, " \t\r\n"), "r1cs v1"):
		job, err = s.engine.SubmitR1CS(tenant, text)
	default:
		job, err = s.engine.SubmitSource(tenant, text)
	}
	if err != nil {
		switch {
		case errors.Is(err, service.ErrDraining):
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrTenantQuota):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, service.ErrQuarantined):
			// Poison digest: fail fast with the remaining breaker cooldown so
			// well-behaved clients retry exactly when a probe can be admitted.
			retry := 1
			var qe *service.QuarantineError
			if errors.As(err, &qe) && qe.RetryAfter > 0 {
				retry = int((qe.RetryAfter + time.Second - 1) / time.Second)
			}
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeError(w, http.StatusUnprocessableEntity, err.Error())
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	v := job.View()
	status := http.StatusAccepted
	if v.Status.Terminal() {
		status = http.StatusOK // store hit: answered immediately
	}
	writeJSON(w, status, v)
}

// jobs is GET /v1/jobs.
func (s *server) jobs(w http.ResponseWriter, r *http.Request) {
	all := s.engine.Jobs()
	views := make([]service.JobView, 0, len(all))
	for _, j := range all {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// job is GET /v1/jobs/{id}.
func (s *server) job(w http.ResponseWriter, r *http.Request) {
	j, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// events is GET /v1/jobs/{id}/events: the job's progress feed as NDJSON,
// streamed until the job is terminal or the client disconnects. The
// ?after=N query resumes past already-seen sequence numbers.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	var after int64
	if q := r.URL.Query().Get("after"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &after); err != nil {
			writeError(w, http.StatusBadRequest, "bad after cursor")
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, changed := j.EventsSince(after)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
			after = ev.Seq
		}
		if len(evs) > 0 && fl != nil {
			fl.Flush()
		}
		if j.Status().Terminal() {
			if rest, _ := j.EventsSince(after); len(rest) == 0 {
				return
			}
			continue
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// healthz is GET /healthz.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	info := buildinfo.Get()
	st := s.engine.Stats()
	status := "ok"
	if st.Draining {
		status = "draining"
	}
	out := map[string]any{
		"status":   status,
		"version":  info.Version,
		"revision": info.ShortRevision(),
		"go":       info.GoVersion,
		"queue":    st,
		"stamp":    json.RawMessage(s.engine.ConfigStamp()),
	}
	if n := s.engine.QuarantineOpenCount(); n > 0 {
		out["quarantine_open"] = n
	}
	if s.store != nil {
		if rep, ok := s.store.LastScrub(); ok {
			out["scrub"] = rep
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// readyz is GET /readyz: the routing decision /healthz deliberately does
// not make. The daemon is alive but not ready while draining, while the
// queue is at its admission bound, or after a store scrub failed outright —
// all states where sending fresh traffic elsewhere beats killing a process
// that is still finishing real work. The breaker-open count is reported for
// operators but does not fail readiness: quarantine is per-digest, not
// global.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Stats()
	var reasons []string
	if st.Draining {
		reasons = append(reasons, "draining")
	}
	if st.Queued >= st.Depth {
		reasons = append(reasons, "queue saturated")
	}
	out := map[string]any{"queue": st}
	if s.store != nil {
		if rep, ok := s.store.LastScrub(); ok {
			out["scrub"] = rep
			if rep.Err != "" {
				reasons = append(reasons, "store scrub failed: "+rep.Err)
			}
		}
	}
	if n := s.engine.QuarantineOpenCount(); n > 0 {
		out["quarantine_open"] = n
	}
	if len(reasons) > 0 {
		out["ready"] = false
		out["reasons"] = reasons
		writeJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	out["ready"] = true
	writeJSON(w, http.StatusOK, out)
}

// metricsHandler is GET /metrics: every obs counter and histogram as JSON.
func (s *server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"counters": s.metrics.Counters(),
	})
}
