// Package analyzers holds the project's custom vet checks, enforced in CI
// via `go vet -vettool=$(go env GOPATH)/bin/qed2vet` (see cmd/qed2vet).
//
// The checks are purely syntactic — they need only a parsed file, no type
// information — which keeps cmd/qed2vet dependency-free: it speaks the
// go vet unitchecker protocol with nothing but the standard library.
//
// Three checks are implemented:
//
//   - nobig: the solver hot path (ff, poly, smt) must not import math/big.
//     Heap-allocating bignums on the propagation/solving path is the exact
//     regression the fixed-limb ff.Element refactor removed; cold conversion
//     layers that genuinely need big.Int opt out with a file-level
//     `//qed2:allow-mathbig` comment.
//
//   - ctxloop: condition-less `for {}` loops in solver code (smt, core) must
//     poll some cancellation or budget signal — an identifier mentioning
//     ctx/done/step/budget/deadline/halt/cancel — somewhere in the body.
//     The fault-tolerance design guarantees analyses are cancelable; a loop
//     that cannot observe cancellation silently breaks that guarantee. A
//     deliberate exception is annotated `//qed2:allow-unpolled-loop` on the
//     loop's line or the line above.
//
//   - rangefact: inside qed2/internal/sa, the abstract-domain fact arrays on
//     AbsState (isConst, isBool, constVal, nonzero) may only be written by
//     the recording helpers (setConst and the record* methods). Those
//     helpers are where the soundness discipline lives — generation bumps
//     and conflict checks.
//     A rule function that pokes a fact array directly bypasses all of it
//     and silently corrupts Verify/Stats. A deliberate exception is
//     annotated `//qed2:allow-rangefact` on the assignment's line or the
//     line above.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// NoBigPackages are the import paths where the nobig check applies.
var NoBigPackages = map[string]bool{
	"qed2/internal/ff":   true,
	"qed2/internal/poly": true,
	"qed2/internal/smt":  true,
}

// CtxLoopPackages are the import paths where the ctxloop check applies.
var CtxLoopPackages = map[string]bool{
	"qed2/internal/smt":  true,
	"qed2/internal/core": true,
}

// RangeFactPackage is the import path where the rangefact check applies.
const RangeFactPackage = "qed2/internal/sa"

// rangeFactArrays are the AbsState per-signal fact arrays guarded by the
// rangefact check.
var rangeFactArrays = map[string]bool{
	"isConst":  true,
	"isBool":   true,
	"constVal": true,
	"nonzero":  true,
}

// Directives recognized in comments.
const (
	AllowMathBig      = "qed2:allow-mathbig"
	AllowUnpolledLoop = "qed2:allow-unpolled-loop"
	AllowRangeFact    = "qed2:allow-rangefact"
)

// pollTokens are the substrings (case-insensitive) that mark a loop body as
// observing cancellation or a budget.
var pollTokens = []string{"ctx", "done", "step", "budget", "deadline", "halt", "cancel"}

// Diagnostic is one finding, positioned for "file:line:col: message" output.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// Needed reports whether any check applies to the package, letting the vet
// driver skip parsing packages it has nothing to say about.
func Needed(importPath string) bool {
	return NoBigPackages[importPath] || CtxLoopPackages[importPath] || importPath == RangeFactPackage
}

// CheckFile runs every applicable check on one parsed file (which must have
// been parsed with comments). Test files are exempt: the checks guard
// production hot paths, and tests legitimately use big.Int as a reference
// implementation.
func CheckFile(importPath string, fset *token.FileSet, f *ast.File) []Diagnostic {
	name := fset.Position(f.Pos()).Filename
	if strings.HasSuffix(name, "_test.go") {
		return nil
	}
	var diags []Diagnostic
	if NoBigPackages[importPath] {
		diags = append(diags, checkNoBig(fset, f)...)
	}
	if CtxLoopPackages[importPath] {
		diags = append(diags, checkCtxLoop(fset, f)...)
	}
	if importPath == RangeFactPackage {
		diags = append(diags, checkRangeFact(fset, f)...)
	}
	return diags
}

// checkNoBig flags math/big imports unless the file carries a file-level
// allow directive (the directive names the whole file as a sanctioned
// conversion layer, so one comment covers every use).
func checkNoBig(fset *token.FileSet, f *ast.File) []Diagnostic {
	if hasDirective(f, AllowMathBig) {
		return nil
	}
	var diags []Diagnostic
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != "math/big" {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   fset.Position(imp.Pos()),
			Check: "nobig",
			Message: "math/big is forbidden on the solver hot path (use ff.Element); " +
				"mark a deliberate conversion layer with //" + AllowMathBig,
		})
	}
	return diags
}

// checkCtxLoop flags condition-less for-loops whose bodies reference no
// cancellation/budget identifier.
func checkCtxLoop(fset *token.FileSet, f *ast.File) []Diagnostic {
	allowed := directiveLines(fset, f, AllowUnpolledLoop)
	var diags []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		pos := fset.Position(loop.For)
		if allowed[pos.Line] || allowed[pos.Line-1] {
			return true
		}
		if bodyPolls(loop.Body) {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos:   pos,
			Check: "ctxloop",
			Message: fmt.Sprintf("infinite for-loop never polls cancellation or a step budget "+
				"(no identifier mentioning %s); poll one or annotate //%s",
				strings.Join(pollTokens, "/"), AllowUnpolledLoop),
		})
		return true
	})
	return diags
}

// rangeFactRecorder reports whether a function is one of the sanctioned
// AbsState recording helpers.
func rangeFactRecorder(name string) bool {
	return name == "setConst" || strings.HasPrefix(name, "record")
}

// checkRangeFact flags direct writes to AbsState fact arrays outside the
// recording helpers: assignments (including compound ones) whose left-hand
// side indexes a selector field named after a guarded array, e.g.
// `st.isBool[id] = true` inside a rule function.
func checkRangeFact(fset *token.FileSet, f *ast.File) []Diagnostic {
	allowed := directiveLines(fset, f, AllowRangeFact)
	var diags []Diagnostic
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || rangeFactRecorder(fn.Name.Name) {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			// Writes inside a nested function literal are still writes in
			// this (non-recorder) function; keep walking into everything.
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range assign.Lhs {
				field, ok := indexedFactArray(lhs)
				if !ok {
					continue
				}
				pos := fset.Position(lhs.Pos())
				if allowed[pos.Line] || allowed[pos.Line-1] {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:   pos,
					Check: "rangefact",
					Message: fmt.Sprintf("direct write to AbsState fact array %q outside the recording helpers "+
						"bypasses generation/conflict bookkeeping; call the record* helper "+
						"(or annotate //%s)", field, AllowRangeFact),
				})
			}
			return true
		})
	}
	return diags
}

// indexedFactArray matches `<expr>.<factArray>[<index>]` and returns the
// array's field name.
func indexedFactArray(e ast.Expr) (string, bool) {
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return "", false
	}
	sel, ok := idx.X.(*ast.SelectorExpr)
	if !ok || !rangeFactArrays[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

// bodyPolls reports whether any identifier in the loop body mentions a poll
// token (case-insensitive substring), including selector fields like
// a.ctx or s.stepBudget.
func bodyPolls(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		lower := strings.ToLower(id.Name)
		for _, tok := range pollTokens {
			if strings.Contains(lower, tok) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hasDirective reports whether any comment in the file contains the
// directive.
func hasDirective(f *ast.File, directive string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, directive) {
				return true
			}
		}
	}
	return false
}

// directiveLines returns the set of lines carrying the directive.
func directiveLines(fset *token.FileSet, f *ast.File, directive string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, directive) {
				lines[fset.Position(c.Pos()).Line] = true
				// A multi-line comment covers every line it spans.
				lines[fset.Position(c.End()).Line] = true
			}
		}
	}
	return lines
}
