// Suite-level tests live in an external test package so they can use
// internal/bench (which imports core, which imports sa) without a cycle.
package sa_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/circom"
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
