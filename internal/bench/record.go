package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"qed2/internal/core"
)

// RunRecord is the machine-readable record of one qed2bench invocation,
// written by the -json flag. It captures enough to diff two runs of the
// evaluation: the exact configuration, one timed section per suite run and
// per rendered table/figure, and the aggregate solver effort behind each.
type RunRecord struct {
	// Timestamp is the wall-clock start of the invocation (RFC 3339).
	Timestamp time.Time `json:"timestamp"`
	// SuiteSize is the number of instances in the evaluation suite.
	SuiteSize int `json:"suite_size"`
	// InstanceWorkers is the -workers flag after defaulting (instances
	// analyzed concurrently).
	InstanceWorkers int `json:"instance_workers"`
	// Config is the analyzer configuration of the full run, in its wire
	// form: budgets, timeout, seed and the -query-workers flag (slice
	// queries within one analysis) as Workers.
	Config core.Config `json:"config"`
	// Sections holds one entry per suite run ("run:full", ...) and per
	// rendered artifact ("table2", "fig1", ...), in execution order.
	Sections []SectionRecord `json:"sections"`
	// Counters is the final snapshot of the observability registry
	// (uniq.*, smt.*, core.* — see DESIGN §10), when one was attached.
	Counters map[string]int64 `json:"counters,omitempty"`
	// TotalWallMS is the end-to-end wall clock of the invocation.
	TotalWallMS float64 `json:"total_wall_ms"`
}

// SectionRecord times one phase of the invocation and summarizes the result
// set it produced or rendered. Run sections carry the cost of analysis;
// table/figure sections only the (cheap) rendering, with the tally
// identifying which result set they consumed.
type SectionRecord struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	// Verdict tally over the section's result set.
	Instances     int `json:"instances"`
	Solved        int `json:"solved"`
	Safe          int `json:"safe"`
	Unsafe        int `json:"unsafe"`
	Unknown       int `json:"unknown"`
	CompileErrors int `json:"compile_errors"`
	// Aggregate solver effort over the result set.
	Queries     int   `json:"queries"`
	SolverSteps int64 `json:"solver_steps"`
	// AnalyzeMS is the summed per-instance analysis wall clock (can exceed
	// WallMS of a run section when instances execute in parallel).
	AnalyzeMS float64 `json:"analyze_ms"`
	// Results holds one record per instance. Populated only for "run:*"
	// sections — table/figure sections re-render a result set an earlier
	// run section already itemized.
	Results []InstanceRecord `json:"results,omitempty"`
}

// InstanceRecord is the per-instance row of a run section and the line
// format of a -checkpoint file: the instance, its analysis wall clock, and
// its Summary (verdict, counterexample signal set — what the golden gate
// diffs — circuit shape and effort). A compile error is recorded as the
// pseudo-verdict "compile-error" with the error as its reason.
type InstanceRecord struct {
	Name      string  `json:"name"`
	Category  string  `json:"category"`
	AnalyzeMS float64 `json:"analyze_ms"`
	core.Summary
}

// instanceRecordOf records one result.
func instanceRecordOf(r Result) InstanceRecord {
	ir := InstanceRecord{
		Name:      r.Instance.Name,
		Category:  r.Instance.Category,
		AnalyzeMS: float64(r.AnalyzeTime) / float64(time.Millisecond),
		Summary:   r.Summary,
	}
	if r.CompileErr != nil {
		ir.Summary = core.Summary{Verdict: "compile-error", Reason: r.CompileErr.Error()}
	}
	return ir
}

// NewRunRecord starts a record for an invocation over suiteSize instances.
// The recorded configuration has the analyzer's defaults applied but keeps
// cfg's Workers and Timeout as given.
func NewRunRecord(suiteSize, instanceWorkers int, cfg core.Config) *RunRecord {
	c := cfg.Canonical()
	c.Workers, c.Timeout = cfg.Workers, cfg.Timeout
	return &RunRecord{
		Timestamp:       time.Now().UTC(),
		SuiteSize:       suiteSize,
		InstanceWorkers: instanceWorkers,
		Config:          c,
	}
}

// AddSection appends a timed section summarizing results.
func (rec *RunRecord) AddSection(name string, d time.Duration, results []Result) {
	s := SectionRecord{Name: name, WallMS: float64(d) / float64(time.Millisecond)}
	t := TallyOf(results)
	s.Instances = t.Total
	s.Solved = t.Solved()
	s.Safe, s.Unsafe, s.Unknown, s.CompileErrors = t.Safe, t.Unsafe, t.Unknown, t.CompileErrors
	for _, r := range results {
		s.AnalyzeMS += float64(r.AnalyzeTime) / float64(time.Millisecond)
		s.Queries += r.Summary.Queries
		s.SolverSteps += r.Summary.SolverSteps
	}
	if strings.HasPrefix(name, "run:") {
		s.Results = make([]InstanceRecord, 0, len(results))
		for _, r := range results {
			s.Results = append(s.Results, instanceRecordOf(r))
		}
	}
	rec.Sections = append(rec.Sections, s)
}

// Finish stamps the total wall clock and renders the record as indented
// JSON ready to write to the -json file.
func (rec *RunRecord) Finish(total time.Duration) ([]byte, error) {
	rec.TotalWallMS = float64(total) / float64(time.Millisecond)
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Section returns the first section with the given name, or nil.
func (rec *RunRecord) Section(name string) *SectionRecord {
	for i := range rec.Sections {
		if rec.Sections[i].Name == name {
			return &rec.Sections[i]
		}
	}
	return nil
}

// LoadRunRecord reads a -json run record back from disk.
func LoadRunRecord(path string) (*RunRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &RunRecord{}
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, fmt.Errorf("bench: parsing run record %s: %w", path, err)
	}
	return rec, nil
}

// CompareBaseline is the bench-regression guard: it compares the summed
// per-instance analysis time of the "run:full" section of a fresh record
// against a baseline record and returns an error when the fresh run is
// more than maxSlowdown times slower. It deliberately compares only the
// analysis-time total (not wall clock, which depends on worker count, and
// not per-instance timings, which are too noisy on shared runners).
func CompareBaseline(baseline, fresh *RunRecord, maxSlowdown float64) error {
	base := baseline.Section("run:full")
	cur := fresh.Section("run:full")
	if base == nil || cur == nil {
		return fmt.Errorf("bench: baseline comparison needs a run:full section in both records (baseline: %v, fresh: %v)", base != nil, cur != nil)
	}
	if base.AnalyzeMS <= 0 {
		return fmt.Errorf("bench: baseline run:full has non-positive analyze_ms %.1f", base.AnalyzeMS)
	}
	ratio := cur.AnalyzeMS / base.AnalyzeMS
	if ratio > maxSlowdown {
		return fmt.Errorf("bench: analysis time regression: %.0f ms vs baseline %.0f ms (%.2fx > %.2fx allowed)",
			cur.AnalyzeMS, base.AnalyzeMS, ratio, maxSlowdown)
	}
	return nil
}
