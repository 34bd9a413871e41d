package circom

import (
	"errors"
	"math/big"

	"qed2/internal/poly"
)

// errSignalInConst marks a compile-time evaluation that encountered a
// signal; callers use it to distinguish "not a constant" from hard errors.
var errSignalInConst = errors.New("expression depends on a signal")

// symRes is a signal-dependent value stored in a var, mirroring circom's
// semantics where variables may accumulate symbolic expressions over
// signals (e.g. `lc += out[i] * e2`). sym is the constraint-side view and
// is nil when the expression exceeds degree 2 or uses non-arithmetic
// operators; wx is the witness-side residual expression and is always set.
type symRes struct {
	sym *symVal
	wx  WExpr
}

// evalValue evaluates an expression to a var-storable value: a constant
// (scalar or array) when signal-free, otherwise a symRes capturing both the
// symbolic and witness views.
func (e *env) evalValue(x Expr) (cval, error) {
	v, err := e.evalConst(x)
	if err == nil {
		return v, nil
	}
	if !isSignalErr(err) {
		return nil, err
	}
	if e.isFn {
		return nil, err // functions are signal-free
	}
	wx, werr := e.buildWExpr(x)
	if werr != nil {
		return nil, werr
	}
	sym, serr := e.evalSym(x)
	if serr != nil {
		sym = nil // usable only in witness position; constraint use re-errors
	}
	return &symRes{sym: sym, wx: wx}, nil
}

// liftScalar views any scalar value through the (symbolic, witness) pair.
func (e *env) liftScalar(v cval, pos Pos) (*symVal, WExpr, error) {
	switch x := v.(type) {
	case *big.Int:
		return symConst(e.c.f, x), &WConst{V: new(big.Int).Set(x)}, nil
	case *symRes:
		return x.sym, x.wx, nil
	case *arrVal:
		return nil, nil, errAt(pos, "array used as scalar")
	default:
		return nil, nil, errAt(pos, "internal: bad value %T", v)
	}
}

// --- compile-time (constant) evaluation -------------------------------------------

// evalConst evaluates an expression in the compile-time domain (variables,
// parameters, function calls). Signals are rejected with errSignalInConst.
func (e *env) evalConst(x Expr) (cval, error) {
	switch ex := x.(type) {
	case *NumberLit:
		return e.c.f.Reduce(ex.Val), nil
	case *StringLit:
		return nil, errAt(ex.Pos, "string literal outside log()")
	case *Ident, *IndexExpr, *MemberExpr:
		r, err := e.resolveRef(x)
		if err != nil {
			return nil, err
		}
		return e.readConstRef(&r)
	case *CallExpr:
		return e.callFunction(ex)
	case *UnaryExpr:
		v, err := e.evalConstScalar(ex.X)
		if err != nil {
			return nil, err
		}
		out, err := applyUn(e.c.f, ex.Op, v)
		if err != nil {
			return nil, errAt(ex.Pos, "%v", err)
		}
		return out, nil
	case *BinaryExpr:
		l, err := e.evalConstScalar(ex.L)
		if err != nil {
			return nil, err
		}
		// Short-circuit booleans.
		switch ex.Op {
		case TokAndAnd:
			if !truthy(l) {
				return boolElt(false), nil
			}
			r, err := e.evalConstScalar(ex.R)
			if err != nil {
				return nil, err
			}
			return boolElt(truthy(r)), nil
		case TokOrOr:
			if truthy(l) {
				return boolElt(true), nil
			}
			r, err := e.evalConstScalar(ex.R)
			if err != nil {
				return nil, err
			}
			return boolElt(truthy(r)), nil
		}
		r, err := e.evalConstScalar(ex.R)
		if err != nil {
			return nil, err
		}
		out, err := applyBin(e.c.f, ex.Op, l, r)
		if err != nil {
			return nil, errAt(ex.Pos, "%v", err)
		}
		return out, nil
	case *CondExpr:
		c, err := e.evalConstScalar(ex.C)
		if err != nil {
			return nil, err
		}
		if truthy(c) {
			return e.evalConst(ex.T)
		}
		return e.evalConst(ex.F)
	case *ArrayLit:
		return e.evalArrayLit(ex)
	default:
		return nil, errAt(x.exprPos(), "internal: unknown expression %T", x)
	}
}

// readConstRef reads a resolved reference as a compile-time value.
func (e *env) readConstRef(r *ref) (cval, error) {
	switch r.kind {
	case refSig:
		return nil, &Error{Pos: r.pos, Msg: errSignalInConst.Error()}
	case refComp:
		return nil, errAt(r.pos, "component used as value")
	}
	switch v := r.cell.val.(type) {
	case *big.Int:
		if len(r.idx) != 0 {
			return nil, errAt(r.pos, "indexing a scalar variable")
		}
		return v, nil
	case *symRes:
		return nil, &Error{Pos: r.pos, Msg: errSignalInConst.Error()}
	case *arrVal:
		if len(r.idx) == len(v.dims) {
			return v.elems[flattenIndex(v.dims, r.idx)], nil
		}
		// Partial read: a sub-array (used to pass array slices to functions).
		sub := v.dims[len(r.idx):]
		stride := dimsProduct(sub)
		base := 0
		for i, k := range r.idx {
			base = base*v.dims[i] + k
		}
		base *= stride
		out := &arrVal{dims: append([]int(nil), sub...), elems: make([]*big.Int, stride)}
		for i := 0; i < stride; i++ {
			out.elems[i] = new(big.Int).Set(v.elems[base+i])
		}
		return out, nil
	default:
		return nil, errAt(r.pos, "internal: bad var value %T", r.cell.val)
	}
}

// isSignalErr reports whether err is (or wraps) errSignalInConst.
func isSignalErr(err error) bool {
	if errors.Is(err, errSignalInConst) {
		return true
	}
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Msg == errSignalInConst.Error()
	}
	return false
}

// evalConstScalar evaluates to a scalar field element.
func (e *env) evalConstScalar(x Expr) (*big.Int, error) {
	v, err := e.evalConst(x)
	if err != nil {
		return nil, err
	}
	s, ok := v.(*big.Int)
	if !ok {
		return nil, errAt(x.exprPos(), "expected scalar, got array")
	}
	return s, nil
}

func (e *env) evalArrayLit(lit *ArrayLit) (cval, error) {
	if len(lit.Elems) == 0 {
		return nil, errAt(lit.Pos, "empty array literal")
	}
	vals := make([]cval, len(lit.Elems))
	for i, el := range lit.Elems {
		v, err := e.evalConst(el)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	switch first := vals[0].(type) {
	case *big.Int:
		out := &arrVal{dims: []int{len(vals)}, elems: make([]*big.Int, len(vals))}
		for i, v := range vals {
			s, ok := v.(*big.Int)
			if !ok {
				return nil, errAt(lit.Pos, "mixed scalar/array elements in array literal")
			}
			out.elems[i] = e.c.f.Reduce(s)
		}
		return out, nil
	case *arrVal:
		inner := first.dims
		out := &arrVal{dims: append([]int{len(vals)}, inner...)}
		for i, v := range vals {
			a, ok := v.(*arrVal)
			if !ok || dimsProduct(a.dims) != dimsProduct(inner) {
				return nil, errAt(lit.Pos, "ragged array literal at element %d", i)
			}
			out.elems = append(out.elems, a.clone().elems...)
		}
		return out, nil
	default:
		return nil, errAt(lit.Pos, "internal: bad array literal element %T", vals[0])
	}
}

// callFunction executes a compile-time function.
func (e *env) callFunction(call *CallExpr) (cval, error) {
	fn, ok := e.c.functions[call.Name]
	if !ok {
		if _, isTemplate := e.c.templates[call.Name]; isTemplate {
			return nil, errAt(call.Pos, "template %q called as function (instantiate it with `component`)", call.Name)
		}
		return nil, errAt(call.Pos, "unknown function %q", call.Name)
	}
	if len(call.Args) != len(fn.Params) {
		return nil, errAt(call.Pos, "function %s expects %d arguments, got %d", call.Name, len(fn.Params), len(call.Args))
	}
	e.c.depth++
	defer func() { e.c.depth-- }()
	if e.c.depth > e.c.opts.MaxDepth {
		return nil, errAt(call.Pos, "call nesting exceeds %d (unbounded recursion?)", e.c.opts.MaxDepth)
	}
	fe := &env{c: e.c, scopes: []map[string]any{{}}, isFn: true}
	for i, p := range fn.Params {
		v, err := e.evalConst(call.Args[i])
		if err != nil {
			return nil, err
		}
		if err := fe.declare(p, &varCell{val: cloneCval(v)}, call.Pos); err != nil {
			return nil, err
		}
	}
	if err := fe.execBlock(fn.Body); err != nil {
		return nil, err
	}
	if !fe.done {
		return nil, errAt(fn.Pos, "function %s finished without returning a value", fn.Name)
	}
	return fe.retVal, nil
}

// --- symbolic evaluation (constraint emission) --------------------------------------

// evalSym evaluates an expression in the symbolic domain over signals,
// enforcing Circom's "at most quadratic" discipline.
func (e *env) evalSym(x Expr) (*symVal, error) {
	switch ex := x.(type) {
	case *NumberLit:
		return symConst(e.c.f, ex.Val), nil
	case *Ident, *IndexExpr, *MemberExpr:
		r, err := e.resolveRef(x)
		if err != nil {
			return nil, err
		}
		if r.kind == refSig {
			id, err := r.scalarSignal()
			if err != nil {
				return nil, err
			}
			return symLin(e.c.f, poly.Var(e.c.f, id)), nil
		}
		if r.kind == refVar && len(r.idx) == 0 {
			if sr, ok := r.cell.val.(*symRes); ok {
				if sr.sym == nil {
					return nil, errAt(x.exprPos(), "variable holds a non-quadratic signal expression; it cannot appear in a constraint")
				}
				return sr.sym, nil
			}
		}
		v, err := e.readConstRef(&r)
		if err != nil {
			return nil, err
		}
		s, ok := v.(*big.Int)
		if !ok {
			return nil, errAt(x.exprPos(), "array used as scalar in constraint expression")
		}
		return symConst(e.c.f, s), nil
	case *CallExpr:
		v, err := e.callFunction(ex)
		if err != nil {
			return nil, err
		}
		s, ok := v.(*big.Int)
		if !ok {
			return nil, errAt(ex.Pos, "function returning array used as scalar")
		}
		return symConst(e.c.f, s), nil
	case *UnaryExpr:
		v, err := e.evalSym(ex.X)
		if err != nil {
			return nil, err
		}
		if ex.Op == TokMinus {
			return symNeg(v), nil
		}
		c, ok := v.isConst()
		if !ok {
			return nil, errAt(ex.Pos, "operator %q on a signal-dependent value is not quadratic", ex.Op.String())
		}
		out, err := applyUn(e.c.f, ex.Op, c)
		if err != nil {
			return nil, errAt(ex.Pos, "%v", err)
		}
		return symConst(e.c.f, out), nil
	case *BinaryExpr:
		l, err := e.evalSym(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := e.evalSym(ex.R)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case TokPlus:
			out, err := symAdd(l, r)
			if err != nil {
				return nil, errAt(ex.Pos, "%v", err)
			}
			return out, nil
		case TokMinus:
			out, err := symSub(l, r)
			if err != nil {
				return nil, errAt(ex.Pos, "%v", err)
			}
			return out, nil
		case TokStar:
			out, err := symMul(l, r)
			if err != nil {
				return nil, errAt(ex.Pos, "%v", err)
			}
			return out, nil
		case TokSlash:
			out, err := symDiv(l, r)
			if err != nil {
				return nil, errAt(ex.Pos, "%v", err)
			}
			return out, nil
		case TokPow:
			return e.symPow(ex, l, r)
		default:
			lc, lok := l.isConst()
			rc, rok := r.isConst()
			if !lok || !rok {
				return nil, errAt(ex.Pos, "operator %q on signal-dependent values is not allowed in constraints", ex.Op.String())
			}
			out, err := applyBin(e.c.f, ex.Op, lc, rc)
			if err != nil {
				return nil, errAt(ex.Pos, "%v", err)
			}
			return symConst(e.c.f, out), nil
		}
	case *CondExpr:
		c, err := e.evalConstScalar(ex.C)
		if err != nil {
			if isSignalErr(err) {
				return nil, errAt(ex.Pos, "ternary condition in a constraint must be signal-free")
			}
			return nil, err
		}
		if truthy(c) {
			return e.evalSym(ex.T)
		}
		return e.evalSym(ex.F)
	case *ArrayLit:
		return nil, errAt(ex.Pos, "array literal in constraint expression")
	default:
		return nil, errAt(x.exprPos(), "internal: unknown expression %T", x)
	}
}

// symPow handles ** in constraint expressions: the exponent must be a
// constant; small exponents on linear bases unfold into products.
func (e *env) symPow(ex *BinaryExpr, base, exp *symVal) (*symVal, error) {
	ec, ok := exp.isConst()
	if !ok {
		return nil, errAt(ex.Pos, "exponent must be signal-free")
	}
	if bc, ok := base.isConst(); ok {
		return symConst(e.c.f, e.c.f.ExpBig(bc, ec)), nil
	}
	if !ec.IsInt64() {
		return nil, errAt(ex.Pos, "signal raised to a huge exponent is not quadratic")
	}
	switch ec.Int64() {
	case 0:
		return symConst(e.c.f, big.NewInt(1)), nil
	case 1:
		return base, nil
	case 2:
		out, err := symMul(base, base)
		if err != nil {
			return nil, errAt(ex.Pos, "%v", err)
		}
		return out, nil
	default:
		return nil, errAt(ex.Pos, "signal raised to power %v exceeds degree 2; introduce intermediate signals", ec)
	}
}

// --- witness-expression construction -------------------------------------------------

// buildWExpr partially evaluates an expression for witness generation:
// compile-time parts are folded to constants, signal references remain
// symbolic, and every Circom operator (including division, comparisons and
// bit operations on signals) is preserved as a residual node.
func (e *env) buildWExpr(x Expr) (WExpr, error) {
	switch ex := x.(type) {
	case *NumberLit:
		return &WConst{V: e.c.f.Reduce(ex.Val)}, nil
	case *Ident, *IndexExpr, *MemberExpr:
		r, err := e.resolveRef(x)
		if err != nil {
			return nil, err
		}
		if r.kind == refSig {
			id, err := r.scalarSignal()
			if err != nil {
				return nil, err
			}
			return &WSig{ID: id}, nil
		}
		if r.kind == refVar && len(r.idx) == 0 {
			if sr, ok := r.cell.val.(*symRes); ok {
				return sr.wx, nil
			}
		}
		v, err := e.readConstRef(&r)
		if err != nil {
			return nil, err
		}
		s, ok := v.(*big.Int)
		if !ok {
			return nil, errAt(x.exprPos(), "array used as scalar")
		}
		return &WConst{V: new(big.Int).Set(s)}, nil
	case *CallExpr:
		v, err := e.callFunction(ex)
		if err != nil {
			return nil, err
		}
		s, ok := v.(*big.Int)
		if !ok {
			return nil, errAt(ex.Pos, "function returning array used as scalar")
		}
		return &WConst{V: s}, nil
	case *UnaryExpr:
		xw, err := e.buildWExpr(ex.X)
		if err != nil {
			return nil, err
		}
		if c, ok := xw.(*WConst); ok {
			if v, err := applyUn(e.c.f, ex.Op, c.V); err == nil {
				return &WConst{V: v}, nil
			}
		}
		return &WUn{Op: ex.Op, X: xw}, nil
	case *BinaryExpr:
		l, err := e.buildWExpr(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := e.buildWExpr(ex.R)
		if err != nil {
			return nil, err
		}
		lc, lok := l.(*WConst)
		rc, rok := r.(*WConst)
		if lok && rok {
			// Fold when the operation succeeds; a failing fold (e.g. 1/0 in
			// a dead conditional branch) stays residual so only actual
			// execution can fail.
			if v, err := applyBin(e.c.f, ex.Op, lc.V, rc.V); err == nil {
				return &WConst{V: v}, nil
			}
		}
		return &WBin{Op: ex.Op, L: l, R: r}, nil
	case *CondExpr:
		c, err := e.buildWExpr(ex.C)
		if err != nil {
			return nil, err
		}
		if cc, ok := c.(*WConst); ok {
			if truthy(cc.V) {
				return e.buildWExpr(ex.T)
			}
			return e.buildWExpr(ex.F)
		}
		t, err := e.buildWExpr(ex.T)
		if err != nil {
			return nil, err
		}
		f, err := e.buildWExpr(ex.F)
		if err != nil {
			return nil, err
		}
		return &WCond{C: c, T: t, F: f}, nil
	case *ArrayLit:
		return nil, errAt(ex.Pos, "array literal cannot be assigned to a signal")
	case *StringLit:
		return nil, errAt(ex.Pos, "string literal cannot be assigned to a signal")
	default:
		return nil, errAt(x.exprPos(), "internal: unknown expression %T", x)
	}
}
