package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qed2/internal/core"
)

// ckCfg is the analyzer configuration checkpoint tests stamp and resume
// under.
func ckCfg() core.Config {
	return core.Config{QuerySteps: 500, GlobalSteps: 10_000, Seed: 1}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriter(path, ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	// b carries every field the tables read, so a resumed run renders the
	// same Table 1/2/4 as the run that wrote the checkpoint.
	unsafe := core.Summary{
		Verdict: "unsafe", CEOutput: "out", CEValues: [2]string{"1", "0"}, CESignals: []string{"out", "tmp"},
		Signals: 7, Constraints: 4, UniqueSignals: 5, ByPropagation: 2, ByBitsRule: 1, BySMT: 1,
		Queries: 3, SolverSteps: 40, StaticQueriesAvoided: 1, Workers: 1, DurationMS: 0.5, Version: "v",
	}
	w.Append(InstanceRecord{Name: "a", Summary: core.Summary{Verdict: "safe", Queries: 3}})
	w.Append(InstanceRecord{Name: "b", AnalyzeMS: 2, Summary: unsafe})
	w.Append(InstanceRecord{Name: "c", Summary: core.Summary{Verdict: "compile-error", Reason: "bench: c: boom"}})
	w.Append(InstanceRecord{Name: "d", Summary: core.InternalError("boom").Summary(nil)})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCheckpoint(path, ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("loaded %d records, want 4", len(got))
	}
	if got["a"].Verdict != "safe" || got["a"].Queries != 3 {
		t.Fatalf("record a = %+v", got["a"])
	}

	res := resultFromRecord(Instance{Name: "b"}, got["b"])
	if !reflect.DeepEqual(res.Summary, unsafe) || res.AnalyzeTime != 2*time.Millisecond {
		t.Fatalf("rehydrated b = %+v, want summary %+v", res, unsafe)
	}
	if rec := instanceRecordOf(res); !reflect.DeepEqual(rec, got["b"]) {
		t.Fatalf("re-recorded b = %+v, want %+v", rec, got["b"])
	}
	res = resultFromRecord(Instance{Name: "c"}, got["c"])
	if res.CompileErr == nil || res.Summary.Verdict != "" {
		t.Fatalf("rehydrated c = %+v", res)
	}
	res = resultFromRecord(Instance{Name: "d"}, got["d"])
	if res.Summary.Verdict != "unknown" || res.Summary.Degraded != core.DegradedInternal {
		t.Fatalf("rehydrated d lost its degradation flag: %+v", res.Summary)
	}
}

// TestCheckpointHeaderWrittenOncePerFile pins the append contract: reopening
// an existing checkpoint (the -resume path) must not write a second header.
func TestCheckpointHeaderWrittenOncePerFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	for i := 0; i < 2; i++ {
		w, err := NewCheckpointWriter(path, ckCfg())
		if err != nil {
			t.Fatal(err)
		}
		w.Append(InstanceRecord{Name: string(rune('a' + i)), Summary: core.Summary{Verdict: "safe"}})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), `"config"`); n != 1 {
		t.Fatalf("checkpoint has %d header lines after two sessions, want 1:\n%s", n, b)
	}
	got, err := LoadCheckpoint(path, ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d records, want 2", len(got))
	}
}

// TestLoadCheckpointRejectsConfigMismatch: resuming under different budgets,
// seed, or mode must refuse the checkpoint instead of silently rehydrating
// records produced under another configuration.
func TestLoadCheckpointRejectsConfigMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriter(path, ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	w.Append(InstanceRecord{Name: "a", Summary: core.Summary{Verdict: "safe"}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"query steps", func(c *core.Config) { c.QuerySteps = 9_999 }},
		{"global steps", func(c *core.Config) { c.GlobalSteps = 1 }},
		{"seed", func(c *core.Config) { c.Seed = 2 }},
		{"mode", func(c *core.Config) { c.Mode = core.ModeSMTOnly }},
		{"slice radius", func(c *core.Config) { c.SliceRadius = 3 }},
		{"rule ablation", func(c *core.Config) { c.DisableBitsRule = true }},
	} {
		cfg := ckCfg()
		tc.mutate(&cfg)
		if _, err := LoadCheckpoint(path, cfg); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		} else if !strings.Contains(err.Error(), "written under config") {
			t.Errorf("%s mismatch: unhelpful error %v", tc.name, err)
		}
	}
	// Workers and Timeout do not change step-budget-decided verdicts and
	// must not be stamped — a run interrupted at -workers 8 resumes at
	// -workers 1.
	cfg := ckCfg()
	cfg.Workers = 8
	cfg.Timeout = 1
	if _, err := LoadCheckpoint(path, cfg); err != nil {
		t.Errorf("workers/timeout change rejected: %v", err)
	}
}

// TestLoadCheckpointParentFormatHeader: headers used to stamp the
// configuration before defaults were applied, so a qed2bench run (which
// leaves the slice radius at its default) wrote slice_radius 0. Such a
// checkpoint must still resume: the header normalizes to the same stamp.
func TestLoadCheckpointParentFormatHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	content := `{"config":{"mode":"qed2","slice_radius":0,"query_steps":500,"global_steps":10000,"seed":1},"version":"v0.0.0-20261017074515-e43b2c315a89 e43b2c315a89 go1.24.0"}
{"name":"Num2Bits(1)","category":"Bitify","analyze_ms":0.122587,"verdict":"safe","ce_values":["",""],"signals":3,"constraints":2,"unique_signals":3,"by_propagation":1,"by_bits_rule":0,"by_smt":0,"queries":0,"solver_steps":0,"cache_hits":0,"workers":1,"duration_ms":0.117,"version":"v0.0.0-20261017074515-e43b2c315a89 e43b2c315a89 go1.24.0"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path, ckCfg())
	if err != nil {
		t.Fatalf("parent-format checkpoint refused: %v", err)
	}
	if rec := got["Num2Bits(1)"]; rec.Verdict != "safe" || rec.Signals != 3 {
		t.Fatalf("rehydrated record = %+v", rec)
	}
	// A fresh header is written in canonical form, radius included.
	fresh := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriter(fresh, ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"config":{"mode":"qed2","slice_radius":2,"query_steps":500,"global_steps":10000,"seed":1},`
	if !strings.HasPrefix(string(b), want) {
		t.Fatalf("fresh header %s, want prefix %s", b, want)
	}
}

func TestLoadCheckpointRejectsMissingHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	content := `{"name":"a","verdict":"safe"}
{"name":"b","verdict":"unsafe"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path, ckCfg())
	if err == nil {
		t.Fatal("headerless checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "no config header") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestLoadCheckpointRejectsCorruptVerdict: a record whose verdict string is
// valid JSON but not a verdict ("Safe", "safe ") must fail loading instead
// of silently rehydrating as unknown.
func TestLoadCheckpointRejectsCorruptVerdict(t *testing.T) {
	for _, bad := range []string{"Safe", "safe ", "", "undecided"} {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		w, err := NewCheckpointWriter(path, ckCfg())
		if err != nil {
			t.Fatal(err)
		}
		w.Append(InstanceRecord{Name: "a", Summary: core.Summary{Verdict: bad}})
		w.Append(InstanceRecord{Name: "b", Summary: core.Summary{Verdict: "safe"}})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path, ckCfg()); err == nil {
			t.Errorf("verdict %q accepted", bad)
		}
	}
}

func TestLoadCheckpointTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriter(path, ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	w.Append(InstanceRecord{Name: "a", Summary: core.Summary{Verdict: "safe"}})
	w.Append(InstanceRecord{Name: "b", Summary: core.Summary{Verdict: "unsafe"}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"name":"c","verd`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path, ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d records from torn checkpoint, want 2", len(got))
	}
	if _, ok := got["c"]; ok {
		t.Fatal("torn final record was not discarded")
	}
}

func TestLoadCheckpointMissingFileIsEmpty(t *testing.T) {
	got, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.jsonl"), ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("missing checkpoint loaded %d records", len(got))
	}
}

func TestLoadCheckpointRejectsGarbageMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriter(path, ckCfg())
	if err != nil {
		t.Fatal(err)
	}
	w.Append(InstanceRecord{Name: "a", Summary: core.Summary{Verdict: "safe"}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n" + `{"name":"b","verdict":"unsafe"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, ckCfg()); err == nil {
		t.Fatal("mid-file garbage accepted")
	}
}
