// Command benchmark measures qed2's time to verdict on three pinned
// workloads, end to end and, in a separate traced run, layer by layer.
//
//	benchmark --workload suite-static|suite-solver|corpus --seed N --seconds S --trace 0|1
//
// It runs from the repository root (it reads
// testdata/golden_verdicts.json) as a closed loop with one caller: one
// instance at a time, one query worker. Human-readable lines go to
// standard output, and the last line is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"qed2/internal/core"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// goldenPath is the suite's golden verdict file.
	goldenPath string
	// limit > 0 keeps only the first limit instances of the workload.
	limit int
	// minSamples is the fewest timings verdict_ms_p90 is taken over, so
	// it has at least ten samples beyond it.
	minSamples int
	// Set-up runs at least setups times and for at least setupTime in
	// all; setup_s is the median.
	setups    int
	setupTime time.Duration
	// warmup is how long instances run untimed before measuring.
	warmup time.Duration
}

// result is one run's outcome: the fields of the JSON result line plus
// what the human-readable report and the tests need.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	instances   []string
	timed       *loopResult
	failures    []string
	goldenDiffs map[string]string
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: suite-static, suite-solver or corpus")
	seed := fs.Int64("seed", 1, "workload seed: the corpus generator's base seed; instance order for the suite workloads")
	seconds := fs.Float64("seconds", 20, "how long the timed loop runs, in seconds (whole passes, at least one)")
	trace := fs.Int("trace", 0, "1 runs the traced loop and prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{
		workload:   *workload,
		seed:       *seed,
		seconds:    time.Duration(*seconds * float64(time.Second)),
		trace:      *trace == 1,
		goldenPath: "testdata/golden_verdicts.json",
		minSamples: 100,
		setups:     15,
		setupTime:  time.Second,
		warmup:     3 * time.Second,
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(os.Stdout, o, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*result, error) {
	p, err := loadPinned()
	if err != nil {
		return nil, err
	}
	var golden map[string]goldenVerdict
	if o.workload != wlCorpus {
		if golden, err = loadGolden(o.goldenPath); err != nil {
			return nil, err
		}
	}
	var (
		w      *workload
		setups []float64
		total  time.Duration
	)
	for len(setups) < max(o.setups, 1) || total < o.setupTime {
		// Each set-up starts from a collected heap, so a collection left
		// over from the one before does not land in its time.
		runtime.GC()
		var d time.Duration
		if w, d, err = setup(p, o.workload, o.seed, o.limit); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		total += d
	}
	if len(w.instances) == 0 {
		return nil, fmt.Errorf("workload %s has no instances", o.workload)
	}
	cfg := &core.Config{
		QuerySteps:  p.Budget.QuerySteps,
		GlobalSteps: p.Budget.GlobalSteps,
		Timeout:     time.Duration(p.Budget.TimeoutMS) * time.Millisecond,
		Seed:        p.Budget.Seed,
		Workers:     1,
	}
	res := &result{goldenDiffs: map[string]string{}}
	for _, in := range w.instances {
		res.instances = append(res.instances, in.name)
	}
	rng := rand.New(rand.NewSource(o.seed))
	loop := func(budget time.Duration, minSamples int, tr *tracing) *loopResult {
		lr := runLoop(w, cfg, rng, budget, minSamples, golden, tr)
		res.Attempted += lr.attempted
		res.failures = append(res.failures, lr.failures...)
		for k, v := range lr.goldenDiffs {
			res.goldenDiffs[k] = v
		}
		return lr
	}
	warmUp(w, cfg, o.warmup)
	if !o.trace {
		res.timed = loop(o.seconds, o.minSamples, nil)
		res.Metrics = endToEnd(res.timed, setups)
	} else {
		// The plain and the traced loop share the measuring time; their
		// throughputs differ by the tracing overhead.
		plain := loop(o.seconds/2, 0, nil)
		tr := newTracing()
		res.timed = loop(o.seconds/2, 0, tr)
		if res.Metrics, err = tr.layerMetrics(res.timed.speed(), throughput(res.timed), throughput(plain)); err != nil {
			return nil, err
		}
	}
	res.Failed = len(res.failures)
	res.Correct = res.Failed == 0
	return res, nil
}

// warmUp analyzes instances in workload order, untimed and unchecked,
// until d has passed, so that the timed loops start with the runtime's
// heap and caches in their steady state.
func warmUp(w *workload, cfg *core.Config, d time.Duration) {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		analyze(w, &w.instances[i%len(w.instances)], cfg)
	}
}

// endToEnd computes the metrics a user of qed2 sees from the plain timed
// loop and the set-up times.
func endToEnd(lr *loopResult, setups []float64) map[string]metric {
	n := float64(lr.attempted)
	k := lr.speed()
	return map[string]metric{
		"verdict_ms_p50":        {k * percentile(lr.verdictMS, 0.5), "ms"},
		"verdict_ms_p90":        {k * percentile(lr.verdictMS, 0.9), "ms"},
		"instances_per_s":       {throughput(lr), "1/s"},
		"decided_frac":          {float64(lr.decided) / n, "ratio"},
		"valid_frac":            {(n - float64(len(lr.failures))) / n, "ratio"},
		"alloc_mb_per_instance": {float64(lr.allocBytes) / 1e6 / n, "MB"},
		"setup_s":               {k * percentile(setups, 0.5), "s"},
	}
}

// throughput is instances brought to a report per second of summed
// time-to-verdict, at the reference speed.
func throughput(lr *loopResult) float64 {
	if lr.busy <= 0 {
		return 0
	}
	return float64(lr.attempted) / (lr.speed() * lr.busy.Seconds())
}

// percentile estimates the q-quantile of xs the Harrell–Davis way: the
// mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1−q))
// density at their ranks. A workload's samples come in blocks, one per
// instance, and a quantile read off one or two ranks jumps from one
// instance's block to the next as the number of passes changes; this
// estimate moves smoothly instead.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1)-1, (1-q)*(n+1)-1
	logw := make([]float64, len(s))
	top := math.Inf(-1)
	for i := range s {
		t := (float64(i) + 0.5) / n
		logw[i] = a*math.Log(t) + b*math.Log1p(-t)
		top = max(top, logw[i])
	}
	var sum, wsum float64
	for i, x := range s {
		w := math.Exp(logw[i] - top)
		sum += w * x
		wsum += w
	}
	return sum / wsum
}

// report prints the run for a human: every metric by name and unit, the
// sample counts and bases, then any golden diffs and failures.
func report(w io.Writer, o options, res *result) {
	lr := res.timed
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  %d instances  %d passes  %d samples  decided %d/%d  failed %d/%d\n",
		o.workload, o.seed, kind, len(res.instances), lr.passes, lr.attempted, lr.decided, lr.attempted, res.Failed, res.Attempted)
	fmt.Fprintf(w, "  times scaled by %.4f to the reference speed (raw: p50 %.4g ms, p90 %.4g ms, %.4g instances/s)\n",
		lr.speed(), percentile(lr.verdictMS, 0.5), percentile(lr.verdictMS, 0.9), float64(lr.attempted)/lr.busy.Seconds())
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	diffs := make([]string, 0, len(res.goldenDiffs))
	for k, v := range res.goldenDiffs {
		diffs = append(diffs, k+": "+v)
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		fmt.Fprintln(w, "  golden diff:", d)
	}
	const maxShown = 20
	for i, f := range res.failures {
		if i == maxShown {
			fmt.Fprintf(w, "  ... and %d more failures\n", len(res.failures)-maxShown)
			break
		}
		fmt.Fprintln(w, "  FAILED:", f)
	}
}
