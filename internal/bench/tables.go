package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// textTable renders rows with aligned columns.
type textTable struct {
	header []string
	rows   [][]string
}

func (t *textTable) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *textTable) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// workersNote renders the query-worker configuration of a result set for
// table captions, so regenerated tables record the parallelism they were
// measured under. Empty when no instance of the set compiled.
func workersNote(results []Result) string {
	for _, r := range results {
		if r.CompileErr == nil {
			return fmt.Sprintf(" (query workers: %d)", r.Summary.Workers)
		}
	}
	return ""
}

// groupByCategory partitions results by instance category, preserving suite
// category order.
func groupByCategory(results []Result) ([]string, map[string][]Result) {
	var order []string
	groups := map[string][]Result{}
	for _, r := range results {
		c := r.Instance.Category
		if _, ok := groups[c]; !ok {
			order = append(order, c)
		}
		groups[c] = append(groups[c], r)
	}
	return order, groups
}

// Table1 regenerates the benchmark-statistics table: per category, the
// number of circuits and the signal/constraint size distribution.
func Table1(results []Result) string {
	t := &textTable{header: []string{
		"Category", "Circuits", "Signals(avg)", "Signals(max)", "Constraints(avg)", "Constraints(max)",
	}}
	order, groups := groupByCategory(results)
	totalT := &Tally{}
	var allSig, allCon, maxSig, maxCon int
	for _, cat := range order {
		rs := groups[cat]
		var sig, con, mxs, mxc int
		for _, r := range rs {
			sig += r.Summary.Signals
			con += r.Summary.Constraints
			if r.Summary.Signals > mxs {
				mxs = r.Summary.Signals
			}
			if r.Summary.Constraints > mxc {
				mxc = r.Summary.Constraints
			}
			totalT.Add(r)
		}
		allSig += sig
		allCon += con
		if mxs > maxSig {
			maxSig = mxs
		}
		if mxc > maxCon {
			maxCon = mxc
		}
		n := len(rs)
		t.add(cat, fmt.Sprint(n),
			fmt.Sprintf("%.1f", float64(sig)/float64(n)), fmt.Sprint(mxs),
			fmt.Sprintf("%.1f", float64(con)/float64(n)), fmt.Sprint(mxc))
	}
	n := len(results)
	t.add("TOTAL", fmt.Sprint(n),
		fmt.Sprintf("%.1f", float64(allSig)/float64(n)), fmt.Sprint(maxSig),
		fmt.Sprintf("%.1f", float64(allCon)/float64(n)), fmt.Sprint(maxCon))
	return "Table 1: benchmark statistics\n\n" + t.String()
}

// Table2 regenerates the main results table: per-category verdicts and
// solve rate for the full QED² configuration. The abstract commits to a
// 70% overall solve rate on the authors' corpus; see EXPERIMENTS.md for the
// paper-vs-measured discussion.
func Table2(results []Result) string {
	t := &textTable{header: []string{
		"Category", "N", "Safe", "Unsafe", "Unknown", "Solved%", "AvgTime(ms)", "Queries",
	}}
	order, groups := groupByCategory(results)
	var tot Tally
	var totTime time.Duration
	var totQ int
	for _, cat := range order {
		rs := groups[cat]
		var ct Tally
		var dt time.Duration
		var q int
		for _, r := range rs {
			ct.Add(r)
			dt += r.AnalyzeTime
			q += r.Summary.Queries
		}
		tot.Total += ct.Total
		tot.Safe += ct.Safe
		tot.Unsafe += ct.Unsafe
		tot.Unknown += ct.Unknown
		totTime += dt
		totQ += q
		t.add(cat, fmt.Sprint(ct.Total), fmt.Sprint(ct.Safe), fmt.Sprint(ct.Unsafe),
			fmt.Sprint(ct.Unknown), fmt.Sprintf("%.1f", ct.SolvedPct()),
			ms(dt/time.Duration(len(rs))), fmt.Sprint(q))
	}
	t.add("TOTAL", fmt.Sprint(tot.Total), fmt.Sprint(tot.Safe), fmt.Sprint(tot.Unsafe),
		fmt.Sprint(tot.Unknown), fmt.Sprintf("%.1f", tot.SolvedPct()),
		ms(totTime/time.Duration(max(1, tot.Total))), fmt.Sprint(totQ))
	return "Table 2: main results (full QED² configuration)" + workersNote(results) + "\n\n" + t.String()
}

// Table3 regenerates the tool-comparison table across configurations
// (QED² vs the propagation-only and monolithic-SMT baselines).
func Table3(byMode map[string][]Result, order []string) string {
	t := &textTable{header: []string{
		"Configuration", "Safe", "Unsafe", "Unknown", "Solved", "Solved%", "TotalTime(s)",
	}}
	note := ""
	for _, mode := range order {
		if note == "" {
			note = workersNote(byMode[mode])
		}
		rs := byMode[mode]
		tal := TallyOf(rs)
		var dt time.Duration
		for _, r := range rs {
			dt += r.AnalyzeTime
		}
		t.add(mode, fmt.Sprint(tal.Safe), fmt.Sprint(tal.Unsafe), fmt.Sprint(tal.Unknown),
			fmt.Sprintf("%d/%d", tal.Solved(), tal.Total),
			fmt.Sprintf("%.1f", tal.SolvedPct()),
			fmt.Sprintf("%.2f", dt.Seconds()))
	}
	return "Table 3: comparison against baselines" + note + "\n\n" + t.String()
}

// Table4 regenerates the previously-unknown-vulnerabilities table: the
// flagged circuits of the vulnerability set with their checked witness
// pairs.
func Table4(results []Result) string {
	t := &textTable{header: []string{
		"#", "Circuit", "Category", "Verdict", "Output", "Witness1", "Witness2",
	}}
	i := 0
	for _, r := range results {
		if !r.Instance.Vuln {
			continue
		}
		i++
		verdict, output, v1, v2 := "-", "-", "-", "-"
		if r.CompileErr == nil {
			verdict = r.Summary.Verdict
		}
		if s := r.Summary; s.CEOutput != "" {
			output, v1, v2 = s.CEOutput, s.CEValues[0], s.CEValues[1]
		}
		t.add(fmt.Sprint(i), r.Instance.Name, r.Instance.Category, verdict, output, v1, v2)
	}
	return "Table 4: previously-unknown vulnerabilities (checked witness pairs)\n\n" + t.String()
}

// Figure1 regenerates the cactus plot: for each configuration, the
// cumulative time to solve the k-th easiest instance. Printed as one
// series per configuration.
func Figure1(byMode map[string][]Result, order []string) string {
	var b strings.Builder
	b.WriteString("Figure 1: cactus plot — instances solved vs cumulative time\n")
	b.WriteString("(series: solved-count, cumulative-seconds)\n\n")
	for _, mode := range order {
		rs := byMode[mode]
		var times []time.Duration
		for _, r := range rs {
			if r.Solved() {
				times = append(times, r.AnalyzeTime)
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		fmt.Fprintf(&b, "%s:", mode)
		var cum time.Duration
		step := len(times)/16 + 1
		for i, d := range times {
			cum += d
			if (i+1)%step == 0 || i == len(times)-1 {
				fmt.Fprintf(&b, " (%d, %.3fs)", i+1, cum.Seconds())
			}
		}
		fmt.Fprintf(&b, "   [solved %d/%d]\n", len(times), len(rs))
	}
	return b.String()
}

// Figure2 regenerates the attribution ablation: as the slice radius k
// varies, how many uniqueness facts come from propagation vs SMT queries,
// and how many instances are decided.
func Figure2(byRadius map[int][]Result) string {
	t := &textTable{header: []string{
		"Radius", "Solved", "Solved%", "PropFacts", "SMTFacts", "Queries", "TotalTime(s)",
	}}
	var radii []int
	for k := range byRadius {
		radii = append(radii, k)
	}
	sort.Ints(radii)
	for _, k := range radii {
		rs := byRadius[k]
		tal := TallyOf(rs)
		var prop, smtFacts, queries int
		var dt time.Duration
		for _, r := range rs {
			prop += r.Summary.ByPropagation
			smtFacts += r.Summary.BySMT
			queries += r.Summary.Queries
			dt += r.AnalyzeTime
		}
		t.add(fmt.Sprint(k), fmt.Sprintf("%d/%d", tal.Solved(), tal.Total),
			fmt.Sprintf("%.1f", tal.SolvedPct()),
			fmt.Sprint(prop), fmt.Sprint(smtFacts), fmt.Sprint(queries),
			fmt.Sprintf("%.2f", dt.Seconds()))
	}
	return "Figure 2: propagation/SMT attribution vs slice radius\n\n" + t.String()
}

// Figure3 regenerates the scalability scatter: per-instance constraint
// count against analysis time.
func Figure3(results []Result) string {
	t := &textTable{header: []string{"Circuit", "Constraints", "Signals", "Time(ms)", "Verdict"}}
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Summary.Constraints < sorted[j].Summary.Constraints
	})
	for _, r := range sorted {
		v := "error"
		if r.CompileErr == nil {
			v = r.Summary.Verdict
		}
		t.add(r.Instance.Name, fmt.Sprint(r.Summary.Constraints), fmt.Sprint(r.Summary.Signals),
			ms(r.AnalyzeTime), v)
	}
	return "Figure 3: analysis time vs circuit size (scatter data)\n\n" + t.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Figure4 regenerates the inference-rule ablation: the full rule set
// versus disabling the binary-decomposition rule versus disabling all
// propagation rules (sliced SMT only). Shows how much of the corpus each
// layer of "lightweight uniqueness inference" carries.
func Figure4(byConfig map[string][]Result, order []string) string {
	t := &textTable{header: []string{
		"Rules", "Solved", "Solved%", "PropFacts", "BitsFacts", "SMTFacts", "Queries", "TotalTime(s)",
	}}
	for _, name := range order {
		rs := byConfig[name]
		tal := TallyOf(rs)
		var prop, bits, smtFacts, queries int
		var dt time.Duration
		for _, r := range rs {
			prop += r.Summary.ByPropagation
			bits += r.Summary.ByBitsRule
			smtFacts += r.Summary.BySMT
			queries += r.Summary.Queries
			dt += r.AnalyzeTime
		}
		t.add(name, fmt.Sprintf("%d/%d", tal.Solved(), tal.Total),
			fmt.Sprintf("%.1f", tal.SolvedPct()),
			fmt.Sprint(prop), fmt.Sprint(bits), fmt.Sprint(smtFacts),
			fmt.Sprint(queries), fmt.Sprintf("%.2f", dt.Seconds()))
	}
	return "Figure 4: inference-rule ablation\n\n" + t.String()
}
