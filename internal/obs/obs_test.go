package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// decodeLines parses a JSONL buffer into one map per line.
func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		m := map[string]any{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestTracerSpansAndEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	root := tr.Start(nil, "analyze", KV("mode", "qed2"))
	child := tr.Start(root, "query", KV("sig", 3))
	tr.Event(child, "cache_hit", KV("sig", 7))
	child.End(KV("status", "unsat"))
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, &buf)
	if len(lines) != 5 {
		t.Fatalf("got %d events, want 5:\n%s", len(lines), buf.String())
	}
	if lines[0]["ev"] != "span_start" || lines[0]["name"] != "analyze" || lines[0]["parent"] != float64(0) {
		t.Errorf("bad root start: %v", lines[0])
	}
	if lines[1]["parent"] != lines[0]["id"] {
		t.Errorf("child not parented to root: %v vs %v", lines[1], lines[0])
	}
	if lines[2]["ev"] != "event" || lines[2]["parent"] != lines[1]["id"] {
		t.Errorf("event not parented to child span: %v", lines[2])
	}
	if lines[3]["ev"] != "span_end" || lines[3]["id"] != lines[1]["id"] || lines[3]["status"] != "unsat" {
		t.Errorf("bad child end: %v", lines[3])
	}
	if _, ok := lines[3]["dur_us"]; !ok {
		t.Errorf("span_end missing dur_us: %v", lines[3])
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.Start(nil, "x", KV("k", 1))
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	s.End() // must not panic
	tr.Event(s, "e")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var m *Metrics
	c := m.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	h := m.Histogram("y")
	h.Observe(3)
	if snap := h.Snapshot(); snap.Count != 0 {
		t.Error("nil histogram recorded")
	}
	if m.Counters() != nil || m.Histograms() != nil {
		t.Error("nil metrics produced snapshots")
	}
	m.Render(&bytes.Buffer{})
}

func TestMetricsCountersAndHistograms(t *testing.T) {
	m := NewMetrics()
	if m.Counter("a") != m.Counter("a") {
		t.Error("counter lookup not stable")
	}
	m.Counter("a").Add(3)
	m.Counter("a").Inc()
	m.Counter("b").Inc()
	h := m.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	counters := m.Counters()
	if counters["a"] != 4 || counters["b"] != 1 {
		t.Errorf("counters = %v", counters)
	}
	snap := m.Histograms()["h"]
	if snap.Count != 6 || snap.Sum != 110 || snap.Min != 0 || snap.Max != 100 {
		t.Errorf("histogram snapshot = %+v", snap)
	}
	// 0→bucket 0, 1→1, 2..3→2, 4→3, 100→7.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 1, 7: 1}
	for b, n := range want {
		if snap.Buckets[b] != n {
			t.Errorf("bucket %d = %d, want %d (all: %v)", b, snap.Buckets[b], n, snap.Buckets)
		}
	}
	var out bytes.Buffer
	m.Render(&out)
	for _, want := range []string{"a", "b", "h", "count=6"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
}

func TestTracerEmitsMetricsOnClose(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	m := NewMetrics()
	m.Counter("core.cache.hits").Add(7)
	m.Histogram("smt.query.steps").Observe(42)
	tr.AttachMetrics(m)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, &buf)
	if len(lines) != 1 || lines[0]["ev"] != "metrics" {
		t.Fatalf("want one metrics event, got %v", lines)
	}
	counters := lines[0]["counters"].(map[string]any)
	if counters["core.cache.hits"] != float64(7) {
		t.Errorf("counters = %v", counters)
	}
	if _, ok := lines[0]["histograms"].(map[string]any)["smt.query.steps"]; !ok {
		t.Errorf("histograms missing: %v", lines[0])
	}
}

func TestTracerMetaRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	tr.Meta("qed2-test", KV("version", "v1.2.3"))
	sp := tr.Start(nil, "work")
	sp.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, &buf)
	if len(lines) != 3 {
		t.Fatalf("want meta, span_start and span_end lines, got %v", lines)
	}
	if lines[0]["ev"] != "meta" || lines[0]["name"] != "qed2-test" || lines[0]["version"] != "v1.2.3" {
		t.Fatalf("meta = %v", lines[0])
	}
	// Nil tracer: Meta is a no-op, like every other method.
	var nilT *Tracer
	nilT.Meta("x")
}

// TestTracerConcurrentEmit exercises the sink under the kind of contention
// the worker pools produce; run with -race.
func TestTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	m := NewMetrics()
	tr.AttachMetrics(m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := m.Counter("spans")
			for i := 0; i < 50; i++ {
				s := tr.Start(nil, "work", KV("g", g), KV("i", i))
				c.Inc()
				s.End(KV("ok", true))
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, &buf)
	if len(lines) != 8*50*2+1 {
		t.Fatalf("got %d events, want %d", len(lines), 8*50*2+1)
	}
	// Every line must be well-formed JSON (decodeLines already checked) and
	// span IDs must be unique per start event.
	seen := map[float64]bool{}
	for _, l := range lines {
		if l["ev"] == "span_start" {
			id := l["id"].(float64)
			if seen[id] {
				t.Fatalf("duplicate span id %v", id)
			}
			seen[id] = true
		}
	}
}

func TestTracerDeterministicShape(t *testing.T) {
	// Two single-goroutine runs emit the same event sequence apart from
	// timestamps — the workers=1 determinism contract.
	shape := func() string {
		var buf bytes.Buffer
		tr := New(&buf)
		root := tr.Start(nil, "a", KV("x", 1))
		tr.Start(root, "b").End(KV("n", int64(2)))
		root.End()
		tr.Close()
		var out []string
		for _, m := range decodeLines(t, &buf) {
			delete(m, "t_us")
			delete(m, "dur_us")
			b, _ := json.Marshal(m)
			out = append(out, string(b))
		}
		return strings.Join(out, "\n")
	}
	if a, b := shape(), shape(); a != b {
		t.Errorf("shapes differ:\n%s\n---\n%s", a, b)
	}
}
