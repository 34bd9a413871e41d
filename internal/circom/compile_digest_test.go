package circom_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/circom"
)

// updateCompile rewrites the compile-output golden files from the current
// front-end:
//
//	go test -run 'TestCompileOutputDigest|TestCompileSnippets' ./internal/circom/ -args -update
var updateCompile = flag.Bool("update", false, "rewrite testdata/compile_digest.golden and testdata/compile_snippets.golden")

// programDigest hashes everything a compiled program carries: the binary
// .r1cs and .sym encodings, the text form (which adds source locations and
// constraint tags), every witness assignment and check with its rendered
// expression, the log lines, and the input/output name tables.
func programDigest(p *circom.Program) string {
	h := sha256.New()
	section := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	section(p.System.MarshalBinary())
	section(p.System.MarshalSym())
	section([]byte(p.System.MarshalText()))
	for _, c := range p.System.Constraints() {
		fmt.Fprintf(h, "def %d\n", c.Def)
	}
	for _, a := range p.Assignments {
		fmt.Fprintf(h, "assign %d %v %s %s\n", a.Target, a.Constrained, a.Pos, a.Expr)
	}
	for _, c := range p.Checks {
		fmt.Fprintf(h, "check %s %q %s\n", c.Pos, c.Msg, c.Expr)
	}
	for _, l := range p.Logs {
		fmt.Fprintf(h, "log %q\n", l)
	}
	for _, n := range p.SortedInputNames() {
		fmt.Fprintf(h, "in %s %d\n", n, p.InputNames[n])
	}
	for _, n := range p.SortedOutputNames() {
		fmt.Fprintf(h, "out %s %d\n", n, p.OutputNames[n])
	}
	fmt.Fprintf(h, "main %s\n", p.MainTemplate)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkGolden compares got with the golden file line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateCompile {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d lines, golden file %s has %d", len(gotLines)-1, name, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("compile output moved:\n got    %s\n golden %s", gotLines[i], wantLines[i])
		}
	}
}

// TestCompileOutputDigest pins the compiled output of every suite instance
// built from Circom source, plus the montgomery-bug example: one digest per
// circuit. A front-end change that is meant to compile the same circuits
// the same way must leave testdata/compile_digest.golden unchanged.
func TestCompileOutputDigest(t *testing.T) {
	var got strings.Builder
	for _, in := range circomSuite() {
		p, err := in.Compile()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", programDigest(p), in.Name)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "montgomery-bug", "circuit.circom"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := circom.Compile(string(src), &circom.CompileOptions{Library: bench.Library()})
	if err != nil {
		t.Fatalf("montgomery-bug: %v", err)
	}
	fmt.Fprintf(&got, "%s examples/montgomery-bug\n", programDigest(p))
	checkGolden(t, "compile_digest.golden", got.String())
}

// snippetPrelude wraps each snippet body: inputs x, y and a[2], output o,
// and the functions and templates the bodies call.
const snippetPrelude = `function f(n) { return n + 1; }
function pair() { return [1, 2]; }
function rec(n) { return rec(n); }
function divz(n) { var t = 1/0; return n; }
template Sub() { signal input i; signal output q; q <== i; }
template P(n) { signal input i; signal output q; q <== i * n; }
template T() {
    signal input x;
    signal input y;
    signal input a[2];
    signal output o;
    %s
}
component main = T();
`

// compileSnippets are edge cases and invalid programs for the expression
// evaluator, grouped by the position the expression sits in: var
// initialisers and updates, <==, ===, <--, assert, log, and the positions
// that need a compile-time constant.
var compileSnippets = []struct{ name, body string }{
	{"var/accumulate", `var lc = 0; for (var i = 0; i < 2; i++) { lc += a[i] * (i + 1); } o <== lc;`},
	{"var/fold-before-signal", `var t = 1/0 + x; o <== x;`},
	{"var/signal-before-fold", `var t = x + 1/0; o <-- t; o === x;`},
	{"var/undefined-after-signal", `var t = x + zz; o <== x;`},
	{"var/non-quadratic-in-constraint", `var t = x*x*y; o <== t;`},
	{"var/non-quadratic-in-hint", `var t = x*x*y; o <-- t; o === x;`},
	{"var/signal-into-array", `var v[2]; v[0] = x; o <== x;`},
	{"var/array-after-signal", `var arr[2] = [1, 2]; var t = x + arr; o <== x;`},
	{"var/array-before-signal", `var arr[2] = [1, 2]; var t = arr + x; o <== x;`},
	{"var/index-signal-var", `var t = x; var u = t[0]; o <== x;`},
	{"var/signal-array-unindexed", `var t = a + 1; o <== x;`},
	{"var/call-times-signal", `var t = f(2) * x; o <== t;`},
	{"var/string", `var t = "s"; o <== x;`},
	{"var/ternary-signal-cond", `var t = x ? y : 1; o <-- t; o === x;`},
	{"var/dead-branch-div", `var k = 0; var t = x ? 1/k : 0; o <-- t; o === x;`},
	{"var/short-circuit", `var t = 0 && x; o <== x + t;`},
	{"var/compound-symbolic", `var t = x; t *= y; t += 1; t -= x; o <== t;`},
	{"var/compound-div-zero", `var i = 1; i /= 0; o <== x;`},
	{"var/compound-array-rhs", `var arr[2] = [1, 2]; var t = x; t += arr; o <== x;`},
	{"var/compound-bitand-hint", `var t = x; t &= 1; o <-- t; o === x;`},
	{"var/compound-bitand-constraint", `var t = x; t &= 1; o <== t;`},
	{"var/incdec", `var i = 0; i++; i++; i--; o <== x * i;`},
	{"var/incdec-signal", `x++; o <== x;`},
	{"var/incdec-symbolic", `var t = x; t++; t--; t++; o <== t;`},
	{"var/incdec-component", `component c = Sub(); c++; o <== x;`},

	{"con/product3", `o <== x*x*y;`},
	{"con/sum-of-quads", `o <== x*x + y*y;`},
	{"con/div-by-signal", `o <== 1/x;`},
	{"con/div-by-zero", `o <== x/0;`},
	{"con/pow3", `o <== x**3;`},
	{"con/pow2", `o <== x**2;`},
	{"con/signal-exponent", `o <== 2**x;`},
	{"con/ternary-signal-cond", `o <== x ? 1 : 0;`},
	{"con/ternary-const-cond", `o <== 1 ? x : y;`},
	{"con/bitand", `o <== x & 1;`},
	{"con/not", `o <== !x;`},
	{"con/neg", `o <== -x + 3;`},
	{"con/array-var", `var arr[2] = [1, 2]; o <== arr;`},
	{"con/array-call", `o <== pair();`},
	{"con/array-literal", `o <== [1, 2];`},
	{"con/string", `o <== "s";`},
	{"con/signal-array", `o <== a;`},
	{"con/component", `component c = Sub(); o <== c;`},
	{"con/non-quadratic-then-undefined", `o <== x*x*y + zz;`},
	{"con/short-circuit-undefined", `o <== 0 && zz;`},
	{"con/short-circuit-dead-div", `o <== x + (0 && 1/0);`},
	{"con/const", `o <== 3 * 2 + x;`},
	{"con/call", `o <== f(2) * x;`},

	{"eq/cubic", `o <-- x; o*o*o === x;`},
	{"eq/const-false", `o <== x; 1 === 2;`},
	{"eq/quad-minus-quad", `o <== x; x*x === y*y;`},
	{"eq/ternary-signal-cond", `o <== x; o === (x ? 1 : 0);`},
	{"eq/const-true", `o <== x; 2 === 2;`},

	{"hint/dead-branch-div", `var k = 0; o <-- x ? 1/k : 0; o * (o - 1) === 0;`},
	{"hint/div-by-zero", `o <-- 1/0; o === x;`},
	{"hint/array-var", `var arr[2] = [1, 2]; o <-- arr; o === x;`},
	{"hint/array-call", `o <-- pair(); o === x;`},
	{"hint/array-literal", `o <-- [1, 2]; o === x;`},
	{"hint/string", `o <-- "s"; o === x;`},
	{"hint/bits", `o <-- (x >> 1) & 1; o * (o - 1) === 0;`},
	{"hint/component", `component c = Sub(); o <-- c; o === x;`},
	{"hint/short-circuit", `o <-- 0 && x; o === 0;`},
	{"hint/call", `o <-- f(1) / x; o * x === 2;`},
	{"hint/signal-array", `o <-- a; o === x;`},

	{"assert/signal", `o <== x; assert(x != 7);`},
	{"assert/const-false", `o <== x; assert(1 == 2);`},
	{"assert/fold-before-signal", `o <== x; assert(1/0 == x);`},
	{"assert/signal-before-fold", `o <== x; assert(x == 1/0);`},
	{"assert/array", `var arr[2] = [1, 2]; o <== x; assert(arr);`},
	{"assert/undefined-after-signal", `o <== x; assert(x == zz);`},
	{"assert/call", `o <== x; assert(f(5) * x != 7);`},

	{"log/signal", `o <== x; log("x is", x);`},
	{"log/const", `var arr[2] = [1, 2]; o <== x; log("n", 3, arr, -1);`},
	{"log/fold", `o <== x; log(1/0);`},
	{"log/undefined", `o <== x; log(zz);`},
	{"log/signal-expr", `o <== x; log(x + 1);`},

	{"const/if-signal", `if (x) { } o <== x;`},
	{"const/if-signal-array", `if (a) { } o <== x;`},
	{"const/if-signal-then-undefined", `if (x + zz) { } o <== x;`},
	{"const/dims-signal", `var v[x]; o <== x;`},
	{"const/while-signal", `while (x) { } o <== x;`},
	{"const/fn-arg-signal", `var t = f(x); o <== x;`},
	{"const/index-signal", `var arr[2] = [1, 2]; var t = arr[x]; o <== x;`},
	{"const/fn-recursion", `var t = rec(1); o <== x;`},
	{"const/fn-fold", `var t = divz(1); o <== x;`},
	{"const/template-arg-signal", `component c = P(x); c.i <== x; o <== c.q;`},
	{"const/ternary-skips-dead", `var t = 1 ? 2 : zz; o <== x * t;`},
	{"const/array-literal-signal", `var v[2] = [x, 1]; o <== x;`},
}

// TestCompileSnippets pins, for every snippet, either the digest of its
// compiled program or its compile error, in testdata/compile_snippets.golden.
func TestCompileSnippets(t *testing.T) {
	seen := map[string]bool{}
	var lines []string
	for _, s := range compileSnippets {
		if seen[s.name] {
			t.Fatalf("duplicate snippet %q", s.name)
		}
		seen[s.name] = true
		p, err := circom.Compile(fmt.Sprintf(snippetPrelude, s.body), nil)
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s error %q", s.name, err.Error()))
			continue
		}
		lines = append(lines, fmt.Sprintf("%s ok %s", s.name, programDigest(p)))
	}
	sort.Strings(lines)
	checkGolden(t, "compile_snippets.golden", strings.Join(lines, "\n")+"\n")
}
