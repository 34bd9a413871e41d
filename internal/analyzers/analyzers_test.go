package analyzers

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) (*token.FileSet, []Diagnostic, func(string) []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, nil, func(importPath string) []Diagnostic {
		return CheckFile(importPath, fset, f)
	}
}

func TestNoBigFlagsImport(t *testing.T) {
	_, _, check := parse(t, `package ff
import "math/big"
var x big.Int
`)
	diags := check("qed2/internal/ff")
	if len(diags) != 1 || diags[0].Check != "nobig" {
		t.Fatalf("diags = %+v, want one nobig", diags)
	}
	if diags[0].Pos.Line != 2 {
		t.Errorf("position = %v, want line 2", diags[0].Pos)
	}
}

func TestNoBigRespectsDirective(t *testing.T) {
	_, _, check := parse(t, `package ff
import "math/big" //qed2:allow-mathbig — conversion layer
var x big.Int
`)
	if diags := check("qed2/internal/ff"); len(diags) != 0 {
		t.Fatalf("directive ignored: %+v", diags)
	}
}

func TestNoBigScopedToHotPackages(t *testing.T) {
	_, _, check := parse(t, `package sa
import "math/big"
var x big.Int
`)
	if diags := check("qed2/internal/sa"); len(diags) != 0 {
		t.Fatalf("nobig fired outside its package set: %+v", diags)
	}
}

func TestNoBigIgnoresOtherImports(t *testing.T) {
	_, _, check := parse(t, `package ff
import (
	"fmt"
	"math/bits"
)
var _ = fmt.Sprint(bits.UintSize)
`)
	if diags := check("qed2/internal/ff"); len(diags) != 0 {
		t.Fatalf("unexpected diags: %+v", diags)
	}
}

func TestCtxLoopFlagsUnpolledLoop(t *testing.T) {
	_, _, check := parse(t, `package smt
func f() {
	for {
		g()
	}
}
func g() {}
`)
	diags := check("qed2/internal/smt")
	if len(diags) != 1 || diags[0].Check != "ctxloop" {
		t.Fatalf("diags = %+v, want one ctxloop", diags)
	}
}

func TestCtxLoopAcceptsPolledLoops(t *testing.T) {
	for _, body := range []string{
		"if s.ctx.Err() != nil { return }",
		"if s.step > s.maxSteps { return }",
		"if outOfBudget() { return }",
		"select { case <-done: return; default: }",
		"if deadlineExceeded { return }",
	} {
		_, _, check := parse(t, `package smt
var s struct{ ctx interface{ Err() error }; step, maxSteps int }
var deadlineExceeded bool
var done chan struct{}
func outOfBudget() bool { return false }
func f() {
	for {
		`+body+`
	}
}
`)
		if diags := check("qed2/internal/smt"); len(diags) != 0 {
			t.Errorf("body %q flagged: %+v", body, diags)
		}
	}
}

func TestCtxLoopIgnoresConditionalLoops(t *testing.T) {
	_, _, check := parse(t, `package core
func f(n int) {
	for i := 0; i < n; i++ {
		g()
	}
	for n > 0 {
		n--
	}
}
func g() {}
`)
	if diags := check("qed2/internal/core"); len(diags) != 0 {
		t.Fatalf("bounded loops flagged: %+v", diags)
	}
}

func TestCtxLoopRespectsDirective(t *testing.T) {
	for _, src := range []string{
		// Directive on the preceding line.
		`package smt
func f() {
	//qed2:allow-unpolled-loop
	for {
		g()
	}
}
func g() {}
`,
		// Directive on the loop's own line.
		`package smt
func f() {
	for { //qed2:allow-unpolled-loop
		g()
	}
}
func g() {}
`,
	} {
		_, _, check := parse(t, src)
		if diags := check("qed2/internal/smt"); len(diags) != 0 {
			t.Errorf("directive ignored: %+v", diags)
		}
	}
}

func TestRangeFactFlagsDirectWrite(t *testing.T) {
	_, _, check := parse(t, `package sa
func (st *AbsState) ruleBogus(id int) bool {
	st.isBool[id] = true
	st.nonzero[id] = true
	return true
}
`)
	diags := check("qed2/internal/sa")
	if len(diags) != 2 {
		t.Fatalf("diags = %+v, want two rangefact", diags)
	}
	for _, d := range diags {
		if d.Check != "rangefact" {
			t.Errorf("check = %q, want rangefact", d.Check)
		}
	}
	if diags[0].Pos.Line != 3 || diags[1].Pos.Line != 4 {
		t.Errorf("positions = %v, %v; want lines 3 and 4", diags[0].Pos, diags[1].Pos)
	}
}

func TestRangeFactAllowsRecorders(t *testing.T) {
	_, _, check := parse(t, `package sa
func (st *AbsState) recordBool(id int) bool {
	st.isBool[id] = true
	return true
}
func (st *AbsState) setConst(id int, v int) bool {
	st.isConst[id] = true
	st.constVal[id] = v
	return true
}
func (st *AbsState) recordNonzero(id int) {
	st.nonzero[id] = true
}
`)
	if diags := check("qed2/internal/sa"); len(diags) != 0 {
		t.Fatalf("recorders flagged: %+v", diags)
	}
}

func TestRangeFactIgnoresNonFactArrays(t *testing.T) {
	// scanGen is bookkeeping, not a fact array; reads of fact arrays and
	// writes to locals must also pass.
	_, _, check := parse(t, `package sa
func (st *AbsState) visit(ci int) bool {
	st.scanGen[ci] = st.constGen
	seen := map[int]bool{}
	seen[ci] = st.isBool[ci]
	return seen[ci]
}
`)
	if diags := check("qed2/internal/sa"); len(diags) != 0 {
		t.Fatalf("non-fact writes flagged: %+v", diags)
	}
}

func TestRangeFactScopedToSA(t *testing.T) {
	_, _, check := parse(t, `package other
func f(st *AbsState, id int) {
	st.isBool[id] = true
}
`)
	if diags := check("qed2/internal/other"); len(diags) != 0 {
		t.Fatalf("rangefact fired outside internal/sa: %+v", diags)
	}
}

func TestRangeFactRespectsDirective(t *testing.T) {
	_, _, check := parse(t, `package sa
func (st *AbsState) ruleSpecial(id int) {
	//qed2:allow-rangefact — documented invariant: no bookkeeping applies here
	st.nonzero[id] = true
	st.isBool[id] = true //qed2:allow-rangefact
}
`)
	if diags := check("qed2/internal/sa"); len(diags) != 0 {
		t.Fatalf("directive ignored: %+v", diags)
	}
}

func TestRangeFactFlagsWritesInClosures(t *testing.T) {
	_, _, check := parse(t, `package sa
func (st *AbsState) ruleClosure(ids []int) {
	walk(func(id int) {
		st.constVal[id] = 0
	})
}
func walk(f func(int)) {}
`)
	diags := check("qed2/internal/sa")
	if len(diags) != 1 || diags[0].Check != "rangefact" {
		t.Fatalf("diags = %+v, want one rangefact inside the closure", diags)
	}
}

func TestChecksSkipTestFiles(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x_test.go", `package ff
import "math/big"
var x big.Int
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if diags := CheckFile("qed2/internal/ff", fset, f); len(diags) != 0 {
		t.Fatalf("test file flagged: %+v", diags)
	}
}

// TestRepoIsVetClean runs the checks over the actual checked packages, so a
// plain `go test ./...` catches violations even before the CI vettool step.
func TestRepoIsVetClean(t *testing.T) {
	dirs := map[string]string{
		"qed2/internal/ff":   filepath.Join("..", "ff"),
		"qed2/internal/poly": filepath.Join("..", "poly"),
		"qed2/internal/smt":  filepath.Join("..", "smt"),
		"qed2/internal/core": filepath.Join("..", "core"),
		"qed2/internal/sa":   filepath.Join("..", "sa"),
	}
	for importPath, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, d := range CheckFile(importPath, fset, f) {
				t.Errorf("%s: [%s] %s", d.Pos, d.Check, d.Message)
			}
		}
	}
}
