package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/core"
)

// tiny runs a workload at a size small enough for a unit test: one pass
// over its first few instances, no warm-up, one set-up.
func tiny(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	limits := map[string]int{wlSuiteStatic: 4, wlSuiteSolver: 2, wlCorpus: 6}
	res, err := run(options{
		workload:   workload,
		seed:       7,
		trace:      trace,
		goldenPath: "../testdata/golden_verdicts.json",
		limit:      limits[workload],
		setups:     1,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func emitted(res *result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload tiny, plain and traced, and checks
// that the outputs are correct and that exactly the metrics BENCHMARK.json
// declares are emitted, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := tiny(t, wl, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%v", wl, trace, res.Correct, res.Attempted, res.failures)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := emitted(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted metrics\n%v\nBENCHMARK.json declares\n%v", wl, trace, got, want)
			}
			if len(res.goldenDiffs) != 0 {
				t.Errorf("%s: golden diffs %v", wl, res.goldenDiffs)
			}
		}
	}
}

// TestSameSeedSameResults runs each workload twice with one seed: the
// instance lists, verdicts and exact counts must be identical.
func TestSameSeedSameResults(t *testing.T) {
	counts := []string{"circom.constraints", "smt.queries", "smt.steps", "sa.findings"}
	for _, wl := range workloadNames {
		a, b := tiny(t, wl, true), tiny(t, wl, true)
		if !reflect.DeepEqual(a.instances, b.instances) {
			t.Errorf("%s: instance lists differ: %v vs %v", wl, a.instances, b.instances)
		}
		if !reflect.DeepEqual(a.timed.verdicts, b.timed.verdicts) {
			t.Errorf("%s: verdicts differ: %v vs %v", wl, a.timed.verdicts, b.timed.verdicts)
		}
		for _, c := range counts {
			if a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s: %s differs: %v vs %v", wl, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
	}
}

func TestCorpusSeedIsBaseSeed(t *testing.T) {
	p, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := setup(p, wlCorpus, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, in := range w.instances {
		got = append(got, in.name)
	}
	want := []string{"gen/safe-40", "gen/unsafe-40", "gen/safe-41", "gen/unsafe-41"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("corpus draw %v, want %v", got, want)
	}
}

// TestCheckRejectsBadReports feeds check reports that a broken analyzer
// could produce and expects each to be counted as a failure.
func TestCheckRejectsBadReports(t *testing.T) {
	in, _ := bench.ByName(bench.Suite(), "IsZeroBuggy()")
	prog, err := in.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sys := prog.System
	rep := core.Analyze(sys, &core.Config{Workers: 1, Seed: 1})
	if rep.Verdict != core.VerdictUnsafe {
		t.Fatalf("IsZeroBuggy verdict %v, want unsafe", rep.Verdict)
	}
	unsafe := &instance{name: in.Name, expect: expectUnsafe}
	if decided, failure := check(unsafe, sys, rep, nil); !decided || failure != "" {
		t.Fatalf("genuine counterexample judged decided=%v failure=%q", decided, failure)
	}
	tamper := func(f func(ce *core.CounterExample)) *core.Report {
		ce := *rep.Counter
		ce.W1, ce.W2 = ce.W1.Clone(), ce.W2.Clone()
		f(&ce)
		return &core.Report{Verdict: core.VerdictUnsafe, Counter: &ce}
	}
	cases := map[string]struct {
		in  *instance
		rep *core.Report
	}{
		"witnesses agree": {unsafe, tamper(func(ce *core.CounterExample) { ce.W2 = ce.W1 })},
		"broken witness": {unsafe, tamper(func(ce *core.CounterExample) {
			ce.W2[ce.Signal] = sys.Field().Add(ce.W2[ce.Signal], sys.Field().One())
		})},
		"inputs differ": {unsafe, tamper(func(ce *core.CounterExample) {
			id := sys.Inputs()[0]
			ce.W2[id] = sys.Field().Add(ce.W2[id], sys.Field().One())
		})},
		"no counterexample":  {unsafe, &core.Report{Verdict: core.VerdictUnsafe}},
		"label says safe":    {&instance{expect: expectSafe}, rep},
		"label says hard":    {&instance{expect: expectHard}, rep},
		"safe on unsafe":     {unsafe, &core.Report{Verdict: core.VerdictSafe}},
		"degraded":           {unsafe, &core.Report{Verdict: core.VerdictUnknown, Degraded: core.DegradedInternal}},
		"output not flagged": {unsafe, tamper(func(ce *core.CounterExample) { ce.Signal = sys.Inputs()[0] })},
	}
	for name, c := range cases {
		if _, failure := check(c.in, sys, c.rep, nil); failure == "" {
			t.Errorf("%s: not counted as a failure", name)
		}
	}
	if decided, failure := check(unsafe, sys, &core.Report{Verdict: core.VerdictUnknown}, nil); decided || failure != "" {
		t.Errorf("plain unknown judged decided=%v failure=%q, want neither", decided, failure)
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(start, end int64, children ...*span) *span {
		return &span{start: start, end: end, closed: true, children: children}
	}
	cases := map[string]struct {
		s    *span
		want int64
	}{
		"no children": {sp(0, 10), 10},
		// Grandchildren are the children's business: only direct
		// children are subtracted.
		"nested children": {sp(0, 100, sp(10, 40, sp(15, 20)), sp(50, 60)), 60},
		// Sibling query spans that ran at once under one round count once.
		"overlapping siblings": {sp(0, 100, sp(10, 50), sp(30, 70), sp(60, 65)), 40},
		"zero-length":          {sp(0, 10, sp(5, 5)), 10},
		"zero-length parent":   {sp(7, 7, sp(7, 7)), 0},
		// A child that outlives its parent only covers the part inside it.
		"child outlives parent": {sp(0, 10, sp(5, 30), sp(-5, 2)), 3},
		"child wholly outside":  {sp(0, 10, sp(20, 30)), 10},
		"child covers parent":   {sp(10, 20, sp(0, 30)), 0},
	}
	for name, c := range cases {
		if got := selfTime(c.s); got != c.want {
			t.Errorf("%s: self time %d, want %d", name, got, c.want)
		}
	}
}

func TestParseSpansBuildsTree(t *testing.T) {
	trace := []byte(`{"ev":"span_start","id":1,"parent":0,"name":"core.analyze","t_us":0}
{"ev":"span_start","id":2,"parent":1,"name":"core.query","t_us":2}
{"ev":"span_start","id":3,"parent":1,"name":"core.query","t_us":4}
{"ev":"span_end","id":2,"name":"core.query","t_us":6,"dur_us":4}
{"ev":"event","parent":1,"name":"core.cache_hit","t_us":6}
{"ev":"span_end","id":3,"name":"core.query","t_us":8,"dur_us":4}
{"ev":"span_start","id":4,"parent":1,"name":"core.final_outputs","t_us":9}
{"ev":"span_end","id":1,"name":"core.analyze","t_us":10,"dur_us":10}
{"ev":"metrics","counters":{"smt.queries":2}}
`)
	spans, err := parseSpans(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("%d closed spans, want 3 (the unclosed one dropped)", len(spans))
	}
	if got := selfTime(spans[1]); got != 4 {
		t.Errorf("core.analyze self time %d, want 4", got)
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile([]float64{5, 1, 4, 2, 3}, 0.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("median of a symmetric sample = %v, want 3", got)
	}
	if got := percentile([]float64{7, 7, 7}, 0.9); math.Abs(got-7) > 1e-12 {
		t.Errorf("p90 of a constant sample = %v, want 7", got)
	}
	if got := percentile([]float64{4}, 0.9); got != 4 {
		t.Errorf("p90 of one sample = %v, want 4", got)
	}
	// Two instances' blocks of samples, 9 fast and 1 slow per pass: the
	// p90 sits on the boundary and must not jump with the number of passes.
	blocks := func(passes int) []float64 {
		var xs []float64
		for p := 0; p < passes; p++ {
			xs = append(xs, 1, 1, 1, 1, 1, 1, 1, 1, 1, 10)
		}
		return xs
	}
	p4, p5 := percentile(blocks(40), 0.9), percentile(blocks(50), 0.9)
	if p4 <= 1 || p4 >= 10 || math.Abs(p4-p5) > 0.1*p4 {
		t.Errorf("p90 over 40 passes %v, over 50 passes %v: want a stable value between the blocks", p4, p5)
	}
	xs := []float64{3, 9, 1, 4, 7, 2, 8}
	if lo, hi := percentile(xs, 0.5), percentile(xs, 0.9); lo >= hi {
		t.Errorf("p50 %v not below p90 %v", lo, hi)
	}
}
