// Package store is the content-addressed report store of the qed2d analysis
// service: it maps a circuit's canonical digest (r1cs.(*System).Digest) to
// the cached report of a previous analysis, so re-submissions of the same
// circuit — the dominant traffic pattern for circomlib-derived templates —
// cost a hash lookup instead of a solver run.
//
// Keying and soundness. The digest covers the canonical form of the whole
// system (constraint-order independent, metadata-sensitive), and a store is
// opened under a configuration stamp: reports produced under different
// budgets, seed or mode are never mixed, exactly like the bench checkpoint
// header (DESIGN.md §11). Within one stamp, analysis is deterministic, so a
// cache hit returns byte-for-byte the report a fresh run would produce —
// caching can change latency, never verdicts (DESIGN.md §14).
//
// Verdict hygiene. Only decided, non-degraded reports are cacheable: every
// Unknown — whether degraded (canceled, internal-error), resource-limited
// or a genuine budget outcome — is re-analyzed on resubmission. This is the
// whole-report analogue of the solver memo-cache cacheable split
// (core/scheduler.go): a report that merely records "we gave up" must not
// be replayed as if it were a proof.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"qed2/internal/buildinfo"
	"qed2/internal/core"
	"qed2/internal/faultinject"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
)

// Report is the serializable summary of one analysis, the unit the store
// caches and the jobs API returns. It carries the verdict, the
// counterexample rendered in the same shape the bench golden gate pins
// (output name, witnessed values, differing-signal names in ID order), and
// an effort summary.
type Report struct {
	Verdict  string `json:"verdict"`
	Reason   string `json:"reason,omitempty"`
	Degraded string `json:"degraded,omitempty"`
	// CEOutput/CEValues/CESignals summarize the counterexample of an unsafe
	// verdict: the differing output with its two witnessed values, and the
	// names of every signal on which the witness pair disagrees (ID order).
	CEOutput  string    `json:"ce_output,omitempty"`
	CEValues  [2]string `json:"ce_values,omitempty"`
	CESignals []string  `json:"ce_signals,omitempty"`
	// Circuit shape and analysis effort.
	Signals       int     `json:"signals"`
	Constraints   int     `json:"constraints"`
	UniqueSignals int     `json:"unique_signals"`
	Queries       int     `json:"queries"`
	SolverSteps   int64   `json:"solver_steps"`
	CacheHits     int     `json:"cache_hits"`
	DurationMS    float64 `json:"duration_ms"`
	// Version stamps the build that produced the report (informational).
	Version string `json:"version,omitempty"`
}

// FromCore summarizes a core report against its system (needed to name the
// counterexample signals).
func FromCore(rep *core.Report, sys *r1cs.System) *Report {
	out := &Report{
		Verdict:       rep.Verdict.String(),
		Reason:        rep.Reason,
		Degraded:      string(rep.Degraded),
		Signals:       rep.Stats.SignalsTotal,
		Constraints:   rep.Stats.Constraints,
		UniqueSignals: rep.Stats.UniqueTotal,
		Queries:       rep.Stats.Queries,
		SolverSteps:   rep.Stats.SolverSteps,
		CacheHits:     rep.Stats.CacheHits,
		DurationMS:    float64(rep.Stats.Duration.Microseconds()) / 1000,
		Version:       buildinfo.Get().String(),
	}
	if ce := rep.Counter; ce != nil {
		f := sys.Field()
		out.CEOutput = sys.Name(ce.Signal)
		out.CEValues = [2]string{f.String(ce.W1[ce.Signal]), f.String(ce.W2[ce.Signal])}
		for id := 1; id < sys.NumSignals(); id++ {
			if ce.W1[id] != ce.W2[id] {
				out.CESignals = append(out.CESignals, sys.Name(id))
			}
		}
	}
	return out
}

// Cacheable reports whether a report may be served from the store: only
// decided verdicts (safe/unsafe) that are not degraded. Every flavor of
// Unknown re-analyzes.
func Cacheable(r *Report) bool {
	if r == nil || r.Degraded != "" {
		return false
	}
	return r.Verdict == core.VerdictSafe.String() || r.Verdict == core.VerdictUnsafe.String()
}

// ErrUncacheable is returned by Put for reports Cacheable rejects.
var ErrUncacheable = errors.New("store: report is not cacheable (undecided or degraded)")

// Options configures Open.
type Options struct {
	// Capacity bounds the in-memory LRU tier (default 1024 entries).
	Capacity int
	// Dir, when non-empty, enables the on-disk tier: one JSON file per
	// digest, surviving restarts. Created if missing.
	Dir string
	// Stamp pins the analyzer configuration the cached reports are valid
	// for (the service uses the JSON of its checkpoint config). A disk tier
	// written under a different stamp is refused at Open, like a mismatched
	// bench checkpoint header.
	Stamp string
	// Metrics, when non-nil, receives the service.store.* counters.
	Metrics *obs.Metrics
}

// Store is the two-tier content-addressed report cache. Safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // digest -> lru element
	lru     *list.List               // front = most recently used
	dir     string

	scrubMu   sync.Mutex
	lastScrub *ScrubReport

	hits, misses, puts     *obs.Counter
	evictions, diskHits    *obs.Counter
	rejectedPuts, putFails *obs.Counter
	corruptQuarantined     *obs.Counter
	scrubRepaired          *obs.Counter
}

type entry struct {
	digest string
	rep    *Report
}

// stampFile is the disk-tier stamp marker inside Options.Dir.
const stampFile = "store_stamp.json"

// corruptDir is the quarantine sidecar directory inside Options.Dir:
// entries that fail checksum or shape verification are moved here (for
// postmortem inspection) instead of being served or left to fail every
// future read.
const corruptDir = ".corrupt"

// diskFormat is the on-disk entry format version. Format 2 wraps the report
// in a checksummed envelope; a stamp file recorded under an older format is
// refused wholesale at Open (entries written without checksums cannot be
// verified, so they cannot be trusted either).
const diskFormat = 2

// stampPayload is the JSON stored in stampFile: the configuration stamp
// plus the entry format version and producing build.
type stampPayload struct {
	Format  int    `json:"format"`
	Stamp   string `json:"stamp"`
	Version string `json:"version,omitempty"`
}

// diskEnvelope is the format-2 on-disk entry: the report JSON plus a
// SHA-256 over its compact form (whitespace-insensitive, so re-indentation
// by the envelope encoder does not perturb it). A torn write, a flipped
// bit, or a hand-edited file fails verification and is treated as a miss
// (and quarantined), never served and never fatal.
type diskEnvelope struct {
	Format int             `json:"format"`
	SHA256 string          `json:"sha256"`
	Report json.RawMessage `json:"report"`
}

// reportChecksum hashes the compact form of a report's JSON.
func reportChecksum(raw json.RawMessage) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Open creates a store. With a Dir, the disk tier's stamp is verified
// (written on first use): reports cached under a different analyzer
// configuration are refused wholesale rather than filtered per entry, and a
// startup scrub walks every entry, quarantining the ones that fail checksum
// verification and sweeping orphaned temp files, so the tier a daemon
// starts serving from is known-good (see Scrub).
func Open(opts Options) (*Store, error) {
	s := &Store{
		cap:                opts.Capacity,
		entries:            map[string]*list.Element{},
		lru:                list.New(),
		dir:                opts.Dir,
		hits:               opts.Metrics.Counter("service.store.hits"),
		misses:             opts.Metrics.Counter("service.store.misses"),
		puts:               opts.Metrics.Counter("service.store.puts"),
		evictions:          opts.Metrics.Counter("service.store.evictions"),
		diskHits:           opts.Metrics.Counter("service.store.disk_hits"),
		rejectedPuts:       opts.Metrics.Counter("service.store.rejected_puts"),
		putFails:           opts.Metrics.Counter("service.store.put_failures"),
		corruptQuarantined: opts.Metrics.Counter("service.store.corrupt_quarantined"),
		scrubRepaired:      opts.Metrics.Counter("service.store.scrub_repaired"),
	}
	if s.cap <= 0 {
		s.cap = 1024
	}
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", s.dir, err)
	}
	path := filepath.Join(s.dir, stampFile)
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		payload, merr := json.Marshal(stampPayload{Format: diskFormat, Stamp: opts.Stamp, Version: buildinfo.Get().String()})
		if merr == nil {
			merr = os.WriteFile(path, append(payload, '\n'), 0o644)
		}
		if merr != nil {
			return nil, fmt.Errorf("store: writing stamp %s: %w", path, merr)
		}
	case err != nil:
		return nil, fmt.Errorf("store: reading stamp %s: %w", path, err)
	default:
		var have stampPayload
		if err := json.Unmarshal(b, &have); err != nil {
			return nil, fmt.Errorf("store: corrupt stamp %s: %w — delete the store directory to rebuild it", path, err)
		}
		if have.Stamp != opts.Stamp {
			return nil, fmt.Errorf("store: %s was written under config stamp %s but this run uses %s — point -store-dir elsewhere or delete it", s.dir, have.Stamp, opts.Stamp)
		}
		if have.Format != diskFormat {
			return nil, fmt.Errorf("store: %s uses entry format %d but this build writes format %d (checksummed envelopes) — delete the store directory to rebuild it", s.dir, have.Format, diskFormat)
		}
	}
	s.Scrub()
	return s, nil
}

// Get looks a digest up, memory tier first, then disk. ok is false on a
// miss — including when fault injection (site service.store.get) poisons
// the lookup: a store fault degrades to a re-analysis, never to a wrong or
// missing verdict.
func (s *Store) Get(digest string) (*Report, bool) {
	if faultinject.Enabled() {
		if f := faultinject.Check("service.store.get"); f.Err != "" || f.Deadline {
			s.misses.Inc()
			return nil, false
		}
	}
	s.mu.Lock()
	if el, ok := s.entries[digest]; ok {
		s.lru.MoveToFront(el)
		rep := el.Value.(*entry).rep
		s.mu.Unlock()
		s.hits.Inc()
		return rep, true
	}
	s.mu.Unlock()
	if rep, ok := s.diskGet(digest); ok {
		s.installMemory(digest, rep)
		s.diskHits.Inc()
		s.hits.Inc()
		return rep, true
	}
	s.misses.Inc()
	return nil, false
}

func (s *Store) diskGet(digest string) (*Report, bool) {
	if s.dir == "" || !validDigest(digest) {
		return nil, false
	}
	path := filepath.Join(s.dir, digest+".json")
	rep, err := s.loadEntry(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, false
	case err != nil:
		// Verification failure: the entry is structurally unsound (torn
		// write that predates the fsync hardening, bit rot, hand edit). A
		// corrupt entry is a miss, never an error — and it is moved aside so
		// the next read of this digest goes straight to re-analysis instead
		// of re-verifying a file known to be bad.
		s.quarantineCorrupt(path)
		return nil, false
	}
	// Hygiene is enforced on the read path too: a degraded or undecided
	// report on disk (written by a buggy older build) is treated as absent,
	// mirroring the Put-side Cacheable gate. The entry is well-formed, so it
	// is left in place, not quarantined.
	if !Cacheable(rep) {
		return nil, false
	}
	return rep, true
}

// loadEntry reads and verifies one disk-tier entry: envelope shape, format,
// checksum over the raw report bytes, and report decodability. The
// store.corrupt fault-injection site flips a byte of what was read, driving
// the real verification failure path rather than simulating its outcome.
func (s *Store) loadEntry(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if faultinject.Enabled() {
		if f := faultinject.Check("store.corrupt"); (f.Err != "" || f.Deadline) && len(b) > 0 {
			b[len(b)/2] ^= 0xff
		}
	}
	var env diskEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("store: %s: undecodable envelope: %w", path, err)
	}
	if env.Format != diskFormat {
		return nil, fmt.Errorf("store: %s: entry format %d, want %d", path, env.Format, diskFormat)
	}
	got, err := reportChecksum(env.Report)
	if err != nil {
		return nil, fmt.Errorf("store: %s: unhashable report: %w", path, err)
	}
	if got != env.SHA256 {
		return nil, fmt.Errorf("store: %s: checksum mismatch (%s != %s)", path, got, env.SHA256)
	}
	rep := &Report{}
	if err := json.Unmarshal(env.Report, rep); err != nil {
		return nil, fmt.Errorf("store: %s: undecodable report: %w", path, err)
	}
	return rep, nil
}

// quarantineCorrupt moves a verification-failed entry into the .corrupt/
// sidecar directory (best effort — if even the move fails, the file is
// removed so it cannot keep failing every read).
func (s *Store) quarantineCorrupt(path string) {
	dst := filepath.Join(s.dir, corruptDir, filepath.Base(path))
	if err := os.MkdirAll(filepath.Join(s.dir, corruptDir), 0o755); err == nil {
		err = os.Rename(path, dst)
		if err == nil {
			s.corruptQuarantined.Inc()
			return
		}
	}
	if os.Remove(path) == nil {
		s.corruptQuarantined.Inc()
	}
}

// Put caches a report under a digest. Uncacheable reports (any Unknown, or
// a set Degraded flag) are refused with ErrUncacheable — the cache-verdict
// hygiene gate. Disk-tier write failures are reported but leave the memory
// tier updated.
func (s *Store) Put(digest string, rep *Report) error {
	if !Cacheable(rep) {
		s.rejectedPuts.Inc()
		return ErrUncacheable
	}
	if faultinject.Enabled() {
		if f := faultinject.Check("service.store.put"); f.Err != "" || f.Deadline {
			s.putFails.Inc()
			return fmt.Errorf("store: injected fault: %s", f.Err)
		}
	}
	s.installMemory(digest, rep)
	s.puts.Inc()
	if s.dir == "" {
		return nil
	}
	if !validDigest(digest) {
		return fmt.Errorf("store: refusing to write non-hex digest %q to disk", digest)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		s.putFails.Inc()
		return fmt.Errorf("store: marshaling report: %w", err)
	}
	sum, err := reportChecksum(raw)
	if err != nil {
		s.putFails.Inc()
		return fmt.Errorf("store: hashing report: %w", err)
	}
	b, err := json.MarshalIndent(diskEnvelope{
		Format: diskFormat,
		SHA256: sum,
		Report: raw,
	}, "", "  ")
	if err != nil {
		s.putFails.Inc()
		return fmt.Errorf("store: marshaling envelope: %w", err)
	}
	// Even if a hostile filesystem skips the fsyncs of the durable publish,
	// the checksum turns a torn entry into a quarantined miss rather than a
	// served lie.
	final := filepath.Join(s.dir, digest+".json")
	if err := WriteFileDurable(final, "put-*.tmp", append(b, '\n')); err != nil {
		s.putFails.Inc()
		return fmt.Errorf("store: writing %s: %w", final, err)
	}
	return nil
}

// WriteFileDurable publishes data at path atomically and durably: it is
// written to a temp file in path's directory (named after pattern, as in
// os.CreateTemp), fsynced, renamed over path, and the directory is fsynced
// after the rename. Neither a concurrent reader nor a process restarted
// after a machine crash can then observe a torn, empty or vanished file.
// The temp file is removed on any failure.
func WriteFileDurable(path, pattern string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		return syncDir(dir)
	}
	os.Remove(tmp.Name())
	return err
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Store) installMemory(digest string, rep *Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[digest]; ok {
		el.Value.(*entry).rep = rep
		s.lru.MoveToFront(el)
		return
	}
	s.entries[digest] = s.lru.PushFront(&entry{digest: digest, rep: rep})
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry).digest)
		s.evictions.Inc()
	}
}

// Len returns the number of entries in the memory tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// ScrubReport summarizes one integrity pass over the disk tier.
type ScrubReport struct {
	// Scanned counts the entry files examined; Valid the ones that passed
	// checksum verification; Corrupt the ones quarantined to .corrupt/.
	Scanned int `json:"scanned"`
	Valid   int `json:"valid"`
	Corrupt int `json:"corrupt"`
	// TempRemoved counts orphaned put-*.tmp files swept (a Put interrupted
	// before its rename).
	TempRemoved int `json:"temp_removed"`
	// Foreign counts files that are neither entries, temp files, nor the
	// stamp marker; they are left untouched.
	Foreign int `json:"foreign"`
	// Err is the walk-level failure, if any (per-entry corruption is not an
	// error — it is the condition the scrub exists to absorb). A non-empty
	// Err flips /readyz to not-ready: the tier's health is unknown.
	Err string `json:"error,omitempty"`
}

// Scrub walks the disk tier, verifying every entry's checksum envelope:
// corrupt entries are quarantined to the .corrupt/ sidecar, orphaned temp
// files are removed, and the resulting counts are retained for LastScrub
// (surfaced by qed2d's /healthz). Open runs one scrub at startup so the
// index a daemon serves from only contains verified entries; it may also be
// called on a live store — concurrent Gets racing a quarantine simply miss.
// A store without a disk tier scrubs vacuously.
func (s *Store) Scrub() ScrubReport {
	var rep ScrubReport
	defer func() {
		s.scrubMu.Lock()
		s.lastScrub = &rep
		s.scrubMu.Unlock()
	}()
	if s.dir == "" {
		return rep
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		switch {
		case name == stampFile:
		case strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp"):
			if os.Remove(path) == nil {
				rep.TempRemoved++
			}
		case strings.HasSuffix(name, ".json") && validDigest(strings.TrimSuffix(name, ".json")):
			rep.Scanned++
			if _, err := s.loadEntry(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				s.quarantineCorrupt(path)
				s.scrubRepaired.Inc()
				rep.Corrupt++
			} else if err == nil {
				rep.Valid++
			}
		default:
			rep.Foreign++
		}
	}
	return rep
}

// LastScrub returns the most recent scrub summary (ok=false before any
// scrub ran, i.e. on a memory-only store opened without a Dir).
func (s *Store) LastScrub() (ScrubReport, bool) {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if s.lastScrub == nil {
		return ScrubReport{}, false
	}
	return *s.lastScrub, true
}

// validDigest accepts exactly the lowercase-hex SHA-256 shape Digest
// produces, keeping attacker-shaped digests out of file paths.
func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
