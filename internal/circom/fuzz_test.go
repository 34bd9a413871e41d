package circom

import (
	"strings"
	"testing"
)

// FuzzLex checks the lexer never panics and always terminates, producing
// either a token stream ending in EOF or a positioned error.
func FuzzLex(f *testing.F) {
	seeds := []string{
		"",
		"template T() { signal input a; }",
		"a <== b ** 2 ** 3;",
		`log("esc \" \n")`,
		"/* unterminated",
		"0x",
		"\"\\q\"",
		"x <-- (in >> i) & 1;",
		"\x00\xff",
		strings.Repeat("((((", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("token stream does not end in EOF: %v", toks)
		}
	})
}

// FuzzParse checks the parser never panics on arbitrary input.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"template T() { signal input a; signal output b; b <== a; } component main = T();",
		"component main = T(1, 2);",
		"function f(x) { return x; }",
		"template T(n) { for (var i = 0; i < n; i++) { } }",
		"template T() { if (1) { } else if (0) { } else { } }",
		"template T() { var a[2] = [1, 2]; }",
		"include \"x\"; pragma circom 2.0.0;",
		"template T() { c.in[0] <== a ? b : c; }",
		"template T() { a ==> b; b --> c; a === b; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseFile(src) // must not panic
	})
}

// FuzzCompile checks the whole front-end (with tight budgets) never panics
// on arbitrary source. The budgets make every resource path reachable:
// the constraint-budget seed below overflows MaxConstraints inside a loop,
// exercising the error return that used to be a control-flow panic.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"template T() { signal input a; signal output b; b <== a*a; } component main = T();",
		"template T(n) { signal input a[n]; signal output b; b <== a[0]; } component main = T(3);",
		"template T() { signal output b; b <== 1/0; } component main = T();",
		"template T() { signal input a; signal output b; b <-- 1/a; b*a === 1; } component main = T();",
		"function f(x){ return f(x); } template T() { signal input a; signal output b; b <== a*f(1); } component main = T();",
		"template T() { signal input a; signal output b; var i = 0; while (1) i++; b <== a; } component main = T();",
		// Constraint-budget overflow: 5000 constraints against MaxConstraints 4096.
		"template T() { signal input a; signal output b[5000]; for (var i = 0; i < 5000; i++) { b[i] <== a*a; } } component main = T();",
		// Signal-budget overflow.
		"template T() { signal input a[5000]; signal output b; b <== a[0]; } component main = T();",
		// Signal-dependent var accumulation.
		"template T(n) { signal input x[n]; signal output o; var lc = 0; var e = 1; for (var i = 0; i < n; i++) { lc += x[i] * e; e = e + e; } o <== lc; } component main = T(4);",
		// A failing fold in a branch of a signal-dependent ?: stays residual.
		"template T() { signal input s; signal output o; var k = 0; o <-- s ? 1/k : 0; o * s === 0; } component main = T();",
		// log of a signal prints <signal>.
		"template T() { signal input x; signal output o; log(\"x is\", x, x + 1); o <== x; } component main = T();",
		// assert on a signal expression becomes a witness-time check.
		"template T() { signal input x; signal output o; assert(x * 2 != 7); o <== x; } component main = T();",
		// s++ on a signal is rejected.
		"template T() { signal input s; signal output o; s++; o <== s; } component main = T();",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		opts := &CompileOptions{MaxSteps: 50_000, MaxSignals: 4096, MaxConstraints: 4096, MaxDepth: 32}
		prog, err := Compile(src, opts)
		if err != nil || prog == nil {
			return
		}
		// Any program that compiles must at least attempt witness
		// generation without panicking.
		_, _ = prog.GenerateWitness(nil)
	})
}
