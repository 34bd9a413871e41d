package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"qed2/internal/core"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/sa"
	"qed2/internal/uniq"
)

// tracing is the traced run's state. It attaches an in-memory obs.Tracer
// and obs.Metrics to every analysis through Config.Obs and Config.Metrics,
// opens its own spans around the benchmark's calls into layers the program
// has no span for (circom.Compile, r1cs.ParseBinaryWithSym,
// uniq.NewWithOptions, (*sa.AbsState).Verify), and charges each call's
// allocations to its layer.
type tracing struct {
	buf         bytes.Buffer
	tr          *obs.Tracer
	m           *obs.Metrics
	alloc       map[string]*allocs
	instances   int
	constraints int64
}

type allocs struct{ bytes, mallocs uint64 }

func newTracing() *tracing {
	t := &tracing{m: obs.NewMetrics(), alloc: map[string]*allocs{}}
	t.tr = obs.New(&t.buf)
	return t
}

// measure runs f, inside a span called span when span is not empty, and
// charges its allocations to layer. It returns f's wall time alone, so the
// cost of reading the allocation counters stays out of every timing.
func (t *tracing) measure(parent *obs.Span, span, layer string, f func()) time.Duration {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s *obs.Span
	if span != "" {
		s = t.tr.Start(parent, span)
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	s.End()
	runtime.ReadMemStats(&after)
	a := t.alloc[layer]
	if a == nil {
		a = &allocs{}
		t.alloc[layer] = a
	}
	a.bytes += after.TotalAlloc - before.TotalAlloc
	a.mallocs += after.Mallocs - before.Mallocs
	return d
}

// analyze is analyze with tracing on. The returned duration covers the
// front end and the analysis only, as in the plain loop. After them it
// probes two layers on the same system that core runs internally without
// a span of their own: uniqueness propagation, and the static pass with
// its replay gate.
func (t *tracing) analyze(w *workload, in *instance, cfg *core.Config) (sys *r1cs.System, rep *core.Report, d time.Duration, err error) {
	t.instances++
	root := t.tr.Start(nil, "bench.instance", obs.KV("instance", in.name))
	defer root.End()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	layer, span := "circom", "circom.compile"
	if in.source == "" {
		layer, span = "r1cs", "r1cs.parse"
	}
	d = t.measure(root, span, layer, func() { sys, err = frontEnd(w, in) })
	if err != nil {
		return nil, nil, d, err
	}
	if in.source != "" {
		t.constraints += int64(sys.NumConstraints())
	}
	traced := *cfg
	traced.Obs, traced.ObsParent, traced.Metrics = t.tr, root, t.m
	d += t.measure(root, "", "core", func() { rep = core.AnalyzeContext(context.Background(), sys, &traced) })

	t.measure(root, "uniq.propagate", "uniq", func() { uniq.NewWithOptions(sys, uniq.Options{}) })
	var static *sa.Result
	t.measure(root, "", "sa", func() { static = sa.Analyze(sys, nil) })
	t.measure(root, "sa.verify", "sa", func() { _ = static.Abs.Verify() })
	return sys, rep, d, nil
}

// span is one closed span of the trace, in microseconds since the tracer
// started.
type span struct {
	name       string
	parent     int64
	start, end int64
	closed     bool
	children   []*span
}

// parseSpans reads the tracer's JSONL back into a span forest keyed by ID.
// Spans that never closed are dropped.
func parseSpans(data []byte) (map[int64]*span, error) {
	spans := map[int64]*span{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var ev struct {
			Ev     string `json:"ev"`
			ID     int64  `json:"id"`
			Parent int64  `json:"parent"`
			Name   string `json:"name"`
			TUS    int64  `json:"t_us"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace line %q: %w", sc.Text(), err)
		}
		switch ev.Ev {
		case "span_start":
			spans[ev.ID] = &span{name: ev.Name, parent: ev.Parent, start: ev.TUS}
		case "span_end":
			if s := spans[ev.ID]; s != nil {
				s.end, s.closed = ev.TUS, true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for id, s := range spans {
		if !s.closed {
			delete(spans, id)
		}
	}
	for _, s := range spans {
		if p := spans[s.parent]; p != nil {
			p.children = append(p.children, s)
		}
	}
	return spans, nil
}

// selfTime is a span's duration minus the part of its interval that the
// union of its children covers. Children are clipped to the parent, so
// overlapping siblings count once and a child that outlives its parent
// only removes the part inside it.
func selfTime(s *span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range s.children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), s.start
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			covered += v.hi - lo
			reach = v.hi
		}
	}
	return s.end - s.start - covered
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics turns the traced run into the per-layer metrics: times,
// allocations and counts are means per traced instance, a ratio is
// reported beside its numerator and denominator and reads 0 when the
// denominator is 0. Times are scaled to the reference speed by speed,
// the traced loop's factor. tracedIPS and untracedIPS compare the traced
// loop's throughput with the plain loop's, which is the tracing overhead.
func (t *tracing) layerMetrics(speed, tracedIPS, untracedIPS float64) (map[string]metric, error) {
	if err := t.tr.Flush(); err != nil {
		return nil, err
	}
	spans, err := parseSpans(t.buf.Bytes())
	if err != nil {
		return nil, err
	}
	totalUS := map[string]int64{}
	var coreSelfUS int64
	for _, s := range spans {
		totalUS[s.name] += s.end - s.start
		if s.name == "core.analyze" {
			coreSelfUS += selfTime(s)
		}
	}
	n := float64(max(t.instances, 1))
	ms := func(us int64) metric { return metric{speed * float64(us) / 1e3 / n, "ms"} }
	spanMS := func(name string) metric { return ms(totalUS[name]) }
	c := t.m.Counters()
	count := func(v int64) metric { return metric{float64(v) / n, "count"} }
	ratio := func(num, den int64) metric {
		if den == 0 {
			return metric{0, "ratio"}
		}
		return metric{float64(num) / float64(den), "ratio"}
	}
	mb := func(layer string) metric {
		if a := t.alloc[layer]; a != nil {
			return metric{float64(a.bytes) / 1e6 / n, "MB"}
		}
		return metric{0, "MB"}
	}
	var coreMallocs uint64
	if a := t.alloc["core"]; a != nil {
		coreMallocs = a.mallocs
	}
	nsPerStep := metric{0, "ns"}
	if steps := c["smt.steps"]; steps > 0 {
		nsPerStep.Value = speed * float64(totalUS["smt.solve"]) * 1e3 / float64(steps)
	}
	lookups := c["core.cache.hits"] + c["core.cache.misses"]
	overhead := metric{0, "ratio"}
	if tracedIPS > 0 {
		overhead.Value = untracedIPS / tracedIPS
	}
	return map[string]metric{
		"circom.compile_ms":  spanMS("circom.compile"),
		"circom.alloc_mb":    mb("circom"),
		"circom.constraints": count(t.constraints),

		"r1cs.parse_ms": spanMS("r1cs.parse"),
		"r1cs.alloc_mb": mb("r1cs"),

		"sa.analyze_ms":             spanMS("sa.analyze"),
		"sa.graph_ms":               spanMS("sa.graph"),
		"sa.absint_ms":              spanMS("sa.absint"),
		"sa.detect_ms":              spanMS("sa.detect"),
		"sa.verify_ms":              spanMS("sa.verify"),
		"sa.alloc_mb":               mb("sa"),
		"sa.outputs_discharged":     count(c["sa.outputs.discharged"]),
		"sa.findings":               count(c["sa.findings"]),
		"uniq.propagate_ms":         spanMS("uniq.propagate"),
		"uniq.alloc_mb":             mb("uniq"),
		"uniq.solve_fire_ratio":     ratio(c["uniq.rule.solve.fired"], c["uniq.rule.solve.attempts"]),
		"uniq.solve_fired":          count(c["uniq.rule.solve.fired"]),
		"uniq.solve_attempts":       count(c["uniq.rule.solve.attempts"]),
		"uniq.bits_fire_ratio":      ratio(c["uniq.rule.bits.fired"], c["uniq.rule.bits.attempts"]),
		"uniq.bits_fired":           count(c["uniq.rule.bits.fired"]),
		"uniq.bits_attempts":        count(c["uniq.rule.bits.attempts"]),
		"smt.solve_ms":              spanMS("smt.solve"),
		"smt.queries":               count(c["smt.queries"]),
		"smt.steps":                 count(c["smt.steps"]),
		"smt.ns_per_step":           nsPerStep,
		"smt.sat":                   count(c["smt.status.sat"]),
		"smt.unsat":                 count(c["smt.status.unsat"]),
		"smt.unknown":               count(c["smt.status.unknown"]),
		"smt.budget_hits":           count(c["smt.budget_hits"]),
		"smt.eliminations":          count(c["smt.eliminations"]),
		"smt.branches":              count(c["smt.branches"]),
		"smt.enumerations":          count(c["smt.enumerations"]),
		"core.analyze_ms":           spanMS("core.analyze"),
		"core.self_ms":              ms(coreSelfUS),
		"core.confirm_ms":           spanMS("core.confirm"),
		"core.confirm_ok_ratio":     ratio(c["core.confirm.ok"], c["core.confirm.attempts"]),
		"core.confirm_ok":           count(c["core.confirm.ok"]),
		"core.confirm_attempts":     count(c["core.confirm.attempts"]),
		"core.rounds":               count(c["core.rounds"]),
		"core.cache_hit_ratio":      ratio(c["core.cache.hits"], lookups),
		"core.cache_hits":           count(c["core.cache.hits"]),
		"core.cache_lookups":        count(lookups),
		"core.batch_groups":         count(c["core.batch.groups"]),
		"core.batch_fallback_ratio": ratio(c["core.batch.fallbacks"], c["core.batch.groups"]),
		"core.batch_fallbacks":      count(c["core.batch.fallbacks"]),
		"core.queries_avoided":      count(c["core.static.queries_avoided"] + c["core.static.range_queries_pruned"]),
		"core.alloc_mb":             mb("core"),
		"core.mallocs":              count(int64(coreMallocs)),

		"trace.instances":                {float64(t.instances), "count"},
		"trace.instances_per_s":          {tracedIPS, "1/s"},
		"trace.untraced_instances_per_s": {untracedIPS, "1/s"},
		"trace.overhead_ratio":           overhead,
		"trace.speed_factor":             {speed, "ratio"},
	}, nil
}
