package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
)

func safeReport(tag string) *core.Summary {
	return &core.Summary{Verdict: "safe", Reason: tag, Signals: 3, Constraints: 2}
}

func digestN(n byte) string {
	return strings.Repeat("0", 62) + strings.ToLower(string([]byte{hexDigit(n >> 4), hexDigit(n & 15)}))
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}

func TestStoreLRUEvictsOldest(t *testing.T) {
	m := obs.NewMetrics()
	s, err := Open(Options{Capacity: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		if err := s.Put(digestN(i), safeReport("r")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(digestN(1)); ok {
		t.Fatal("oldest entry survived beyond capacity")
	}
	for i := byte(2); i <= 3; i++ {
		if _, ok := s.Get(digestN(i)); !ok {
			t.Fatalf("entry %d evicted early", i)
		}
	}
	c := m.Counters()
	if c["service.store.evictions"] != 1 || c["service.store.hits"] != 2 || c["service.store.misses"] != 1 {
		t.Fatalf("counters = %v", c)
	}
	// Touching 2 then inserting must evict 3, not 2.
	s.Get(digestN(2))
	s.Put(digestN(4), safeReport("r"))
	if _, ok := s.Get(digestN(2)); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if _, ok := s.Get(digestN(3)); ok {
		t.Fatal("least-recently-used entry survived")
	}
}

func TestStoreRejectsUncacheableReports(t *testing.T) {
	m := obs.NewMetrics()
	s, err := Open(Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	uncacheable := []*core.Summary{
		nil,
		{Verdict: "unknown", Reason: "analysis budget exhausted"},
		{Verdict: "unknown", Reason: "canceled", Degraded: "canceled"},
		{Verdict: "unknown", Reason: "internal error: boom", Degraded: "internal-error"},
		// Defensive: a decided verdict with a (contract-violating) degraded
		// flag must still be refused.
		{Verdict: "safe", Degraded: "canceled"},
	}
	for i, rep := range uncacheable {
		if err := s.Put(digestN(byte(i+1)), rep); !errors.Is(err, ErrUncacheable) {
			t.Errorf("report %d: Put = %v, want ErrUncacheable", i, err)
		}
		if _, ok := s.Get(digestN(byte(i + 1))); ok {
			t.Errorf("report %d: uncacheable report served back", i)
		}
	}
	if got := m.Counters()["service.store.rejected_puts"]; got != int64(len(uncacheable)) {
		t.Fatalf("rejected_puts = %d, want %d", got, len(uncacheable))
	}
	if err := s.Put(digestN(200), &core.Summary{Verdict: "unsafe", CEOutput: "out"}); err != nil {
		t.Fatalf("decided unsafe verdict refused: %v", err)
	}
}

func TestStoreDiskTierRoundTripAndStamp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Stamp: `{"seed":1}`})
	if err != nil {
		t.Fatal(err)
	}
	want := safeReport("persisted")
	if err := s.Put(digestN(9), want); err != nil {
		t.Fatal(err)
	}
	// A second store over the same dir and stamp serves the report from disk.
	m := obs.NewMetrics()
	s2, err := Open(Options{Dir: dir, Stamp: `{"seed":1}`, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(digestN(9))
	if !ok || got.Reason != "persisted" {
		t.Fatalf("disk round trip failed: %+v ok=%v", got, ok)
	}
	if c := m.Counters(); c["service.store.disk_hits"] != 1 {
		t.Fatalf("counters = %v", c)
	}
	// A mismatched stamp is refused wholesale.
	if _, err := Open(Options{Dir: dir, Stamp: `{"seed":2}`}); err == nil {
		t.Fatal("mismatched stamp accepted")
	}
}

func TestStoreDiskHygieneOnReadPath(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Stamp: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// A bare (unenveloped) report planted directly in the disk tier fails
	// envelope verification and must be treated as absent — and moved to
	// quarantine rather than re-verified on every read.
	planted := filepath.Join(dir, digestN(7)+".json")
	if err := os.WriteFile(planted, []byte(`{"verdict":"unknown","degraded":"canceled"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(digestN(7)); ok {
		t.Fatal("unverifiable report served from disk")
	}
	if _, err := os.Stat(planted); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unverifiable entry left in place: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".corrupt", digestN(7)+".json")); err != nil {
		t.Fatalf("unverifiable entry not quarantined: %v", err)
	}
	// A torn write (file truncated mid-entry) likewise reads as a miss.
	if err := os.WriteFile(planted, []byte(`{"format":2,"sha256":"ab`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(digestN(7)); ok {
		t.Fatal("torn report file served from disk")
	}
}

// TestStoreCorruptEntryScrubbedToMiss is the acceptance check for store
// integrity: flipping bytes of a disk entry turns the next Get into a miss
// with the damaged file quarantined — never a served lie, never a fatal
// error — and a fresh Put heals the digest.
func TestStoreCorruptEntryScrubbedToMiss(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics()
	s, err := Open(Options{Dir: dir, Stamp: "x", Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(digestN(9), safeReport("good")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, digestN(9)+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the report payload (past the envelope preamble).
	mut := append([]byte(nil), b...)
	mut[len(mut)/2] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	// A second store over the same dir reads from disk (its memory tier is
	// empty): the flipped entry must verify-fail into a miss.
	s2, err := Open(Options{Dir: dir, Stamp: "x", Metrics: obs.NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := s2.Get(digestN(9)); ok {
		t.Fatalf("corrupt entry served: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, ".corrupt", digestN(9)+".json")); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	// The digest heals on the next Put + Get cycle.
	if err := s2.Put(digestN(9), safeReport("healed")); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Dir: dir, Stamp: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := s3.Get(digestN(9)); !ok || rep.Reason != "healed" {
		t.Fatalf("healed entry not served: %+v ok=%v", rep, ok)
	}
}

// TestStoreStartupScrub verifies the Open-time integrity pass: corrupt
// entries are quarantined, orphaned temp files swept, valid entries
// retained, and the counts surfaced through LastScrub.
func TestStoreStartupScrub(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Stamp: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(digestN(1), safeReport("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(digestN(2), safeReport("b")); err != nil {
		t.Fatal(err)
	}
	// Corrupt entry 2, plant an orphaned temp file and a foreign file.
	path2 := filepath.Join(dir, digestN(2)+".json")
	b, _ := os.ReadFile(path2)
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path2, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-orphan.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := obs.NewMetrics()
	s2, err := Open(Options{Dir: dir, Stamp: "x", Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := s2.LastScrub()
	if !ok {
		t.Fatal("no scrub recorded after Open with a disk tier")
	}
	if rep.Scanned != 2 || rep.Valid != 1 || rep.Corrupt != 1 || rep.TempRemoved != 1 || rep.Foreign != 1 || rep.Err != "" {
		t.Fatalf("scrub = %+v", rep)
	}
	if c := m.Counters(); c["service.store.corrupt_quarantined"] != 1 || c["service.store.scrub_repaired"] != 1 {
		t.Fatalf("counters = %v", c)
	}
	if _, ok := s2.Get(digestN(1)); !ok {
		t.Fatal("valid entry lost to scrub")
	}
	if _, ok := s2.Get(digestN(2)); ok {
		t.Fatal("quarantined entry still served")
	}
	if _, err := os.Stat(filepath.Join(dir, "put-orphan.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan temp file survived the scrub")
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("foreign file removed by the scrub")
	}
}

// TestStoreRefusesOldEntryFormat: a disk tier stamped with the pre-checksum
// entry format is refused wholesale at Open (its entries cannot be
// verified), with a message telling the operator what to do.
func TestStoreRefusesOldEntryFormat(t *testing.T) {
	dir := t.TempDir()
	stamp := `{"format":1,"stamp":"x"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "store_stamp.json"), []byte(stamp), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Stamp: "x"})
	if err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("old-format tier accepted: %v", err)
	}
}

// TestStoreCorruptFaultInjection: the store.corrupt chaos site flips a byte
// of what diskGet read, driving the genuine verification-failure path.
func TestStoreCorruptFaultInjection(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Stamp: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(digestN(3), safeReport("r")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "store.corrupt", Kind: faultinject.KindError, Every: 1},
	}})
	defer faultinject.Disable()
	// Fresh store: memory tier empty, so the Get goes to disk and the
	// injected bit flip must degrade it to a miss.
	s2, err := Open(Options{Dir: dir, Stamp: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(digestN(3)); ok {
		t.Fatal("injected corruption did not degrade to a miss")
	}
}

func TestStoreFaultInjectionDegradesToMiss(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(digestN(5), safeReport("r")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "service.store.get", Kind: faultinject.KindError, Every: 1},
		{Site: "service.store.put", Kind: faultinject.KindError, Every: 1},
	}})
	defer faultinject.Disable()
	if _, ok := s.Get(digestN(5)); ok {
		t.Fatal("injected get fault did not degrade to a miss")
	}
	if err := s.Put(digestN(6), safeReport("r")); err == nil {
		t.Fatal("injected put fault not surfaced")
	}
	faultinject.Disable()
	if _, ok := s.Get(digestN(5)); !ok {
		t.Fatal("entry lost after fault injection disabled")
	}
	if _, ok := s.Get(digestN(6)); ok {
		t.Fatal("fault-poisoned put was applied")
	}
}

func TestSummaryCacheableSplit(t *testing.T) {
	rep := &core.Report{Verdict: core.VerdictSafe}
	rep.Stats.SignalsTotal = 4
	rep.Stats.Duration = 1500 * time.Microsecond
	sr := rep.Summary(nil)
	if !Cacheable(&sr) || sr.Verdict != "safe" || sr.Signals != 4 || sr.DurationMS != 1.5 {
		t.Fatalf("Summary(safe) = %+v", sr)
	}
	if sr.Version == "" {
		t.Fatal("report not version-stamped")
	}
	deg := (&core.Report{Verdict: core.VerdictUnknown, Reason: "canceled", Degraded: core.DegradedCanceled}).Summary(nil)
	if Cacheable(&deg) {
		t.Fatal("degraded report marked cacheable")
	}
}

// TestStoreServesParentFormatEntry: a format-2 entry written by a build
// whose report carried no by_propagation/by_bits_rule/by_smt/workers fields
// still verifies (the checksum covers the raw report bytes, not a
// re-encoding), survives the startup scrub, and is served with every field
// it did carry.
func TestStoreServesParentFormatEntry(t *testing.T) {
	dir := t.TempDir()
	const stamp = `{"mode":"qed2","seed":1}`
	payload := `{"format":2,"stamp":` + strconv.Quote(stamp) + `,"version":"(devel) go1.22.0"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "store_stamp.json"), []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	entry := `{
  "format": 2,
  "sha256": "687d2b61c998708ea1b52340ba3e7d889681f2d5825d6b29404f3b468f8aa11a",
  "report": {
    "verdict": "unsafe",
    "ce_output": "main.out",
    "ce_values": [
      "1",
      "0"
    ],
    "ce_signals": [
      "main.inv",
      "main.out"
    ],
    "signals": 5,
    "constraints": 2,
    "unique_signals": 3,
    "queries": 1,
    "solver_steps": 12,
    "cache_hits": 0,
    "duration_ms": 0.52,
    "version": "(devel) go1.22.0"
  }
}
`
	if err := os.WriteFile(filepath.Join(dir, digestN(42)+".json"), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Stamp: stamp})
	if err != nil {
		t.Fatal(err)
	}
	if sc, _ := s.LastScrub(); sc.Scanned != 1 || sc.Valid != 1 || sc.Corrupt != 0 {
		t.Fatalf("scrub of a parent-format entry = %+v", sc)
	}
	got, ok := s.Get(digestN(42))
	want := core.Summary{
		Verdict: "unsafe", CEOutput: "main.out", CEValues: [2]string{"1", "0"},
		CESignals: []string{"main.inv", "main.out"}, Signals: 5, Constraints: 2,
		UniqueSignals: 3, Queries: 1, SolverSteps: 12, DurationMS: 0.52, Version: "(devel) go1.22.0",
	}
	if !ok || !reflect.DeepEqual(*got, want) {
		t.Fatalf("parent-format entry served as %+v ok=%v, want %+v", got, ok, want)
	}
}
