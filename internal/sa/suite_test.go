// Suite-level tests live in an external test package so they can use
// internal/bench (which imports core, which imports sa) without a cycle.
package sa_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/circom"
	"qed2/internal/ff"
	"qed2/internal/r1cs"
	"qed2/internal/sa"
)

// TestMontgomeryBugExample lints the shipped buggy MontgomeryDouble circuit:
// the pass must surface the unconstrained `lamda <-- .../...` hint and its
// possibly-zero denominator, each pointing at the hint's source line.
func TestMontgomeryBugExample(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "montgomery-bug", "circuit.circom"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := circom.Compile(string(src), &circom.CompileOptions{Library: bench.Library()})
	if err != nil {
		t.Fatal(err)
	}
	res := sa.AnalyzeProgram(prog, nil)
	byDetector := map[string][]sa.Finding{}
	for _, f := range res.Findings {
		byDetector[f.Detector] = append(byDetector[f.Detector], f)
	}
	for _, want := range []string{"possibly-zero-divisor", "hinted-signal"} {
		fs := byDetector[want]
		if len(fs) == 0 {
			t.Fatalf("no %s finding; got %+v", want, res.Findings)
		}
		if fs[0].Signal != "lamda" {
			t.Errorf("%s flagged %s, want lamda", want, fs[0].Signal)
		}
		if fs[0].Loc == "" {
			t.Errorf("%s finding not source-located", want)
		}
	}
}

// TestSuiteLintDeterminism runs the static pass twice over every instance of
// the paper's benchmark suite and demands byte-identical findings — the
// determinism contract `qed2 -lint` advertises.
func TestSuiteLintDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	for _, inst := range bench.Suite() {
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		var runs [2][]byte
		for i := range runs {
			res := sa.AnalyzeProgram(prog, nil)
			b, err := json.Marshal(res.Findings)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = b
		}
		if string(runs[0]) != string(runs[1]) {
			t.Errorf("%s: findings differ across runs", inst.Name)
		}
	}
}

// TestSuiteSafeInstancesHaveNoUnreachableOutputs checks the reachability
// detector against ground truth: on instances the paper's analysis proves
// safe, no output may be flagged unreachable (such a flag would be a
// guaranteed false positive, since safe means every output is unique).
func TestSuiteSafeInstancesHaveNoUnreachableOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	for _, inst := range bench.Suite() {
		if inst.Expect != bench.ExpectSafe {
			continue
		}
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		res := sa.Analyze(prog.System, nil)
		if len(res.UnreachableOutputs) != 0 {
			t.Errorf("%s: safe instance has unreachable outputs %v", inst.Name, res.UnreachableOutputs)
		}
	}
}

// TestSuiteAnalyzeProgramFactsMatchAnalyze checks that the two entry points
// share one fact computation: on every suite instance, the facts
// AnalyzeProgram returns next to its findings equal Analyze's, field by
// field (abstract state included).
func TestSuiteAnalyzeProgramFactsMatchAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	for _, inst := range bench.Suite() {
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		facts := sa.Analyze(prog.System, nil)
		lint := sa.AnalyzeProgram(prog, nil)
		if !reflect.DeepEqual(facts, lint.Result) {
			t.Errorf("%s: AnalyzeProgram facts differ from Analyze's", inst.Name)
		}
	}
}

// referenceComponents labels the connected components of a system by
// breadth-first search over Constraint.Vars(), independently of the cached
// adjacency BuildGraph reads. Labels follow each component's smallest
// signal ID; the constant-one signal gets -1.
func referenceComponents(sys *r1cs.System) []int {
	sigCons := make([][]int, sys.NumSignals())
	consVars := make([][]int, sys.NumConstraints())
	for ci := range consVars {
		for _, v := range sys.Constraint(ci).Vars() {
			if v == r1cs.OneID {
				continue
			}
			consVars[ci] = append(consVars[ci], v)
			sigCons[v] = append(sigCons[v], ci)
		}
	}
	comp := make([]int, sys.NumSignals())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for id := 1; id < sys.NumSignals(); id++ {
		if comp[id] >= 0 {
			continue
		}
		comp[id] = next
		queue := []int{id}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, ci := range sigCons[v] {
				for _, w := range consVars[ci] {
					if comp[w] < 0 {
						comp[w] = next
						queue = append(queue, w)
					}
				}
			}
		}
		next++
	}
	return comp
}

// TestComponentsMatchReference compares BuildGraph's components, and the
// I/O facts derived from them, with referenceComponents on every suite
// instance and the corpus slice the findings gate pins.
func TestComponentsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	corpus, err := bench.LoadCorpus(filepath.Join("..", "..", "testdata", "corpus", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	insts := append(bench.Suite(), corpus[:bench.FindingsCorpusSlice]...)
	for _, inst := range insts {
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		sys := prog.System
		ref := referenceComponents(sys)
		g := sa.BuildGraph(sys)
		hasInput, hasOutput := map[int]bool{}, map[int]bool{}
		for id := 1; id < sys.NumSignals(); id++ {
			switch sys.Signal(id).Kind {
			case r1cs.KindInput:
				hasInput[ref[id]] = true
			case r1cs.KindOutput:
				hasOutput[ref[id]] = true
			}
		}
		var pruned []int
		for id := 0; id < sys.NumSignals(); id++ {
			if got := g.ComponentOf(id); got != ref[id] {
				t.Fatalf("%s: ComponentOf(%s) = %d, reference %d", inst.Name, sys.Name(id), got, ref[id])
			}
			if got, want := g.ComponentHasInput(id), ref[id] >= 0 && hasInput[ref[id]]; got != want {
				t.Fatalf("%s: ComponentHasInput(%s) = %v, reference %v", inst.Name, sys.Name(id), got, want)
			}
			if ref[id] >= 0 && !hasOutput[ref[id]] {
				pruned = append(pruned, id)
			}
		}
		if got := g.SignalsWithoutOutputComponent(); !reflect.DeepEqual(got, pruned) {
			t.Fatalf("%s: SignalsWithoutOutputComponent = %v, reference %v", inst.Name, got, pruned)
		}
	}
}

// updateFacts rewrites testdata/static_facts.golden from the current pass:
//
//	go test -run TestStaticFactsDigest ./internal/sa/ -args -update-facts
var updateFacts = flag.Bool("update-facts", false, "rewrite testdata/static_facts.golden")

// factsDigest hashes one instance's static facts: per signal its constant,
// boolean, determined, interval and nonzero facts, then
// every recorded conflict. Values are rendered as big.Int decimal strings
// so the digest does not depend on the machine word size.
func factsDigest(sys *r1cs.System, st *sa.AbsState) string {
	h := sha256.New()
	f := sys.Field()
	for id := 0; id < sys.NumSignals(); id++ {
		fmt.Fprintf(h, "%d", id)
		if v, ok := st.Const(id); ok {
			fmt.Fprintf(h, " const=%s", f.Signed(v))
		}
		if st.Bool(id) {
			fmt.Fprint(h, " bool")
		}
		if st.Determined(id) {
			fmt.Fprint(h, " det")
		}
		if iv := st.Interval(id); iv != nil {
			fmt.Fprintf(h, " ival=[%s,%s]", iv.Lo, iv.Hi)
		}
		if st.Nonzero(id) {
			fmt.Fprint(h, " nonzero")
		}
		fmt.Fprintln(h)
	}
	for _, c := range st.Conflicts() {
		fmt.Fprintf(h, "conflict %d %d %s\n", c.Constraint, c.Signal, c.Msg)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestStaticFactsDigest pins every fact the abstract interpretation derives
// on the suite and the whole pinned corpus, one digest per instance. A
// change to the range rules that is meant to derive the same facts must
// leave every line of testdata/static_facts.golden unchanged.
func TestStaticFactsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	corpus, err := bench.LoadCorpus(filepath.Join("..", "..", "testdata", "corpus", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, inst := range append(bench.Suite(), corpus...) {
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		res := sa.Analyze(prog.System, nil)
		fmt.Fprintf(&got, "%s %s\n", factsDigest(prog.System, res.Abs), inst.Name)
	}
	path := filepath.Join("testdata", "static_facts.golden")
	if *updateFacts {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digests, golden file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("facts moved: got %q, golden %q", gotLines[i], wantLines[i])
		}
	}
}

// TestNum2Bits254SumExtentIsPMinusOne pins why overflow-prone-sum stays
// silent on Num2Bits(254), although its bits alias. The detector sums, over
// the range-bounded terms of a linear constraint, each term's signed value
// span, and fires at a total ≥ p. Bit 253's coefficient 2^253 exceeds
// (p−1)/2, so its signed value is 2^253 − p < 0, and the spans add up to
// (2^253 − 1) + (p − 2^253) = p − 1: one below the threshold. The sum never
// wraps around p, yet the bits still alias: all-zero bits and the bits of p
// both give the integer sum 0. A span below p therefore does not make a
// bit decomposition unique when a coefficient's signed value is negative.
func TestNum2Bits254SumExtentIsPMinusOne(t *testing.T) {
	inst, ok := bench.ByName(bench.Suite(), "Num2Bits(254)")
	if !ok {
		t.Fatal("Num2Bits(254) not in suite")
	}
	prog, err := inst.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sys := prog.System
	f := sys.Field()
	p := f.Modulus()
	lint := sa.AnalyzeProgram(prog, nil)
	for _, fd := range lint.Findings {
		if fd.Detector == "overflow-prone-sum" {
			t.Fatalf("overflow-prone-sum fired: %v", fd)
		}
	}

	// The sum constraint is the one linear constraint over all 254 bits.
	sum := -1
	for ci := 0; ci < sys.NumConstraints(); ci++ {
		if q := sys.Constraint(ci).Quad(); q.IsLinear() && q.Lin().NumTerms() > 254 {
			sum = ci
		}
	}
	if sum < 0 {
		t.Fatal("no linear constraint over the 254 bits")
	}
	// extent recomputes the detector's bounded signed span. aliased is the
	// signed sum of the bit terms at the bits of p: bit i is the term whose
	// coefficient is 2^i as a field element.
	extent, aliased := new(big.Int), new(big.Int)
	bits := 0
	sys.Constraint(sum).Quad().Lin().VisitTerms(func(v int, coeff ff.Element) {
		iv := lint.Abs.Interval(v)
		if iv == nil || iv.IsSingleton() {
			return
		}
		c := f.Signed(coeff)
		extent.Add(extent, new(big.Int).Mul(new(big.Int).Abs(c), new(big.Int).Sub(iv.Hi, iv.Lo)))
		if p.Bit(f.ToBig(coeff).BitLen()-1) == 1 {
			aliased.Add(aliased, c)
		}
		bits++
	})
	if bits != 254 {
		t.Fatalf("%d range-bounded terms, want the 254 bits", bits)
	}
	if want := new(big.Int).Sub(p, big.NewInt(1)); extent.Cmp(want) != 0 {
		t.Errorf("bounded signed extent = %v, want p − 1 = %v", extent, want)
	}
	if aliased.Sign() != 0 {
		t.Errorf("signed sum at the bits of p = %v, want 0, the sum at all-zero bits", aliased)
	}
}
