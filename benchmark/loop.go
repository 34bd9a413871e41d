package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/r1cs"
)

// loopResult is what one closed loop over a workload measured.
type loopResult struct {
	// verdictMS holds one time-to-verdict sample per attempted instance.
	verdictMS []float64
	// busy is the summed time-to-verdict: the loop's wall clock without the
	// benchmark's own output checks and calibration.
	busy      time.Duration
	passes    int
	attempted int
	// calibration holds the durations of the calibration runs made
	// during the loop (see speed), calibrationAlloc their allocations.
	calibration      []time.Duration
	calibrationAlloc uint64
	decided          int
	// failures names every wrong or unusable report.
	failures []string
	// allocBytes is the runtime.MemStats.TotalAlloc delta over the loop.
	allocBytes uint64
	// verdicts maps instance name to its last verdict ("error" when the
	// input never reached a report).
	verdicts map[string]string
	// goldenDiffs maps a suite instance to its difference from the golden
	// verdict file.
	goldenDiffs map[string]string
}

// runLoop analyzes the workload's instances one at a time, in full passes
// each shuffled by rng, until at least budget has passed and at least
// minSamples instances were analyzed. Between instances it runs the
// calibration loop every calibrationEvery. With tr non-nil every instance
// runs traced and its layers are measured; tr == nil is the plain loop.
func runLoop(w *workload, cfg *core.Config, rng *rand.Rand, budget time.Duration, minSamples int, golden map[string]goldenVerdict, tr *tracing) *loopResult {
	res := &loopResult{verdicts: map[string]string{}, goldenDiffs: map[string]string{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var calibrated time.Time
	for res.passes == 0 || time.Since(start) < budget || res.attempted < minSamples {
		for _, i := range rng.Perm(len(w.instances)) {
			if time.Since(calibrated) >= calibrationEvery {
				res.calibrate()
				calibrated = time.Now()
			}
			in := &w.instances[i]
			var (
				sys *r1cs.System
				rep *core.Report
				err error
				d   time.Duration
			)
			if tr == nil {
				t0 := time.Now()
				sys, rep, err = analyze(w, in, cfg)
				d = time.Since(t0)
			} else {
				sys, rep, d, err = tr.analyze(w, in, cfg)
			}
			res.record(in, sys, rep, err, d, golden)
		}
		res.passes++
	}
	res.calibrate()
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc - res.calibrationAlloc
	return res
}

// calibrate runs the calibration workload once and records its duration,
// keeping its allocations out of the loop's.
func (res *loopResult) calibrate() {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.calibration = append(res.calibration, calibrate())
	runtime.ReadMemStats(&after)
	res.calibrationAlloc += after.TotalAlloc - before.TotalAlloc
}

func (res *loopResult) record(in *instance, sys *r1cs.System, rep *core.Report, err error, d time.Duration, golden map[string]goldenVerdict) {
	res.attempted++
	res.busy += d
	res.verdictMS = append(res.verdictMS, float64(d.Nanoseconds())/1e6)
	verdict := "error"
	if err == nil {
		verdict = rep.Verdict.String()
	}
	res.verdicts[in.name] = verdict
	decided, failure := check(in, sys, rep, err)
	if decided {
		res.decided++
	}
	if failure != "" {
		res.failures = append(res.failures, in.name+": "+failure)
	}
	if g, ok := golden[in.name]; ok && err == nil {
		if diff := g.diff(sys, rep); diff != "" {
			res.goldenDiffs[in.name] = diff
		}
	}
}

// analyze hands one instance's input to the analyzer, exactly as a user of
// the library would: Circom source through circom.Compile, binary .r1cs and
// .sym bytes through r1cs.ParseBinaryWithSym, then core.AnalyzeContext.
// Front-end errors and panics come back as errors.
func analyze(w *workload, in *instance, cfg *core.Config) (sys *r1cs.System, rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if sys, err = frontEnd(w, in); err != nil {
		return nil, nil, err
	}
	return sys, core.AnalyzeContext(context.Background(), sys, cfg), nil
}

func frontEnd(w *workload, in *instance) (*r1cs.System, error) {
	if in.source == "" {
		sys, err := r1cs.ParseBinaryWithSym(in.r1cs, in.sym)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		return sys, nil
	}
	prog, err := circom.Compile(in.source, &circom.CompileOptions{Library: w.library})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return prog.System, nil
}

// check judges one report from outside the analyzer. It returns whether
// the report is decided (safe or unsafe) and, for a wrong or unusable
// report, why. Unusable: a compile or parse error, a panic, a degraded
// report, or an unsafe verdict whose witness pair does not hold up when
// re-checked against the system. Wrong: a verdict that contradicts the
// instance's label. An unknown verdict is neither decided nor failed.
func check(in *instance, sys *r1cs.System, rep *core.Report, err error) (decided bool, failure string) {
	if err != nil {
		return false, err.Error()
	}
	if rep.Degraded != core.DegradedNone {
		return false, fmt.Sprintf("degraded report (%s): %s", rep.Degraded, rep.Reason)
	}
	switch rep.Verdict {
	case core.VerdictSafe:
		if in.expect == expectUnsafe {
			return false, "safe verdict on an instance labelled unsafe"
		}
		return true, ""
	case core.VerdictUnsafe:
		if in.expect != expectUnsafe {
			return false, "unsafe verdict on an instance labelled safe"
		}
		if msg := checkCounterexample(sys, rep.Counter); msg != "" {
			return false, msg
		}
		return true, ""
	}
	return false, ""
}

// checkCounterexample re-checks an Unsafe witness pair: both witnesses
// satisfy every constraint, they agree on the inputs, and they differ on
// the reported output.
func checkCounterexample(sys *r1cs.System, ce *core.CounterExample) string {
	switch {
	case ce == nil:
		return "unsafe verdict without a counterexample"
	case ce.Signal <= 0 || ce.Signal >= sys.NumSignals() || sys.Signal(ce.Signal).Kind != r1cs.KindOutput:
		return fmt.Sprintf("counterexample names signal %d, which is not an output", ce.Signal)
	case len(ce.W1) != sys.NumSignals() || len(ce.W2) != sys.NumSignals():
		return "counterexample witnesses have the wrong length"
	}
	if err := sys.CheckWitness(ce.W1); err != nil {
		return fmt.Sprintf("first witness fails: %v", err)
	}
	if err := sys.CheckWitness(ce.W2); err != nil {
		return fmt.Sprintf("second witness fails: %v", err)
	}
	if !r1cs.AgreeOn(ce.W1, ce.W2, sys.Inputs()) {
		return "witnesses disagree on the inputs"
	}
	if ce.W1[ce.Signal] == ce.W2[ce.Signal] {
		return fmt.Sprintf("witnesses agree on the reported output %s", sys.Name(ce.Signal))
	}
	return ""
}
