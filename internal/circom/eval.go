package circom

import (
	"math/big"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// symRes is a signal-dependent value as a variable holds it, mirroring
// circom, where a var may accumulate an expression over signals (e.g.
// `lc += out[i] * e2`): its witness view wx, always set, and its
// at-most-quadratic constraint view sym, nil when there is none.
type symRes struct {
	wx  WExpr
	sym *symVal
}

// lazyErr says why a value has no constraint view. Only <== and === read
// it, so witness and var expressions pay no fmt.Sprintf for each of their
// non-quadratic steps: why holds the message's parts, and render builds
// the error. why is a rendered *Error, a cause error, a unaryOp or a
// binaryOp operator, or a fixed message string; none of these boxes
// allocates.
type lazyErr struct {
	pos Pos
	why any
}

// unaryOp and binaryOp name the operator of a non-quadratic step.
type (
	unaryOp  TokKind
	binaryOp TokKind
)

// render returns the error.
func (l *lazyErr) render() *Error {
	switch w := l.why.(type) {
	case *Error:
		return w
	case error:
		return errAt(l.pos, "%v", w)
	case unaryOp:
		return errAt(l.pos, "operator %q on a signal-dependent value is not quadratic", TokKind(w))
	case binaryOp:
		return errAt(l.pos, "operator %q on signal-dependent values is not allowed in constraints", TokKind(w))
	}
	return &Error{Pos: l.pos, Msg: l.why.(string)}
}

// value is what eval returns. c is the compile-time value, a *big.Int or an
// *arrVal. When c is nil the expression reads a signal or one of its
// constant folds failed, and the value carries three views: the embedded
// witness and constraint views, symErr saying why there is no constraint
// view (set whenever sym is nil), and the error a constant-only evaluation
// raises (constErr). eval returns it by value, so no node of an expression
// boxes its result on the heap.
type value struct {
	c cval
	symRes
	symErr lazyErr
	// foldErr is the first constant fold that failed, left to right; it is
	// nil when the first obstacle to a constant is the signal read at sigPos.
	foldErr *Error
	sigPos  Pos
}

func constVal(c cval) value { return value{c: c} }

// constErr is the error a constant-only evaluation of a non-constant value
// raises: the first signal read or failed fold, in left-to-right,
// short-circuit order.
func (v *value) constErr() error {
	if v.foldErr != nil {
		return v.foldErr
	}
	return errAt(v.sigPos, "expression depends on a signal")
}

// stored is v as a variable holds it.
func (v *value) stored() cval {
	if v.c != nil {
		return v.c
	}
	s := v.symRes
	return &s
}

// symView is the constraint view of a scalar value.
func (v *value) symView(f *ff.Field) (*symVal, error) {
	switch {
	case v.c != nil:
		return symConst(f, v.c.(*big.Int)), nil
	case v.sym == nil:
		return nil, v.symErr.render()
	}
	return v.sym, nil
}

// wxView is the witness view of a scalar value.
func (v *value) wxView() WExpr {
	if v.c != nil {
		return &WConst{V: v.c.(*big.Int)}
	}
	return v.wx
}

// folded is the value of a fold that failed with err: a residual node wx,
// whose constant and constraint views both fail with err.
func folded(wx WExpr, err *Error) value {
	return value{symRes: symRes{wx: wx}, symErr: lazyErr{why: err}, foldErr: err}
}

// eval is the one expression evaluator. It walks the expression once:
// each reference is resolved once and each function call runs once. A
// signal-free expression whose folds all succeed gives its compile-time
// value, a *big.Int or an *arrVal; anything else gives a value with three
// views, which the statement positions read. && and || short-circuit on a
// constant left operand, and ?: on a constant condition evaluates only the
// branch it takes. An error is one that every view shares, such as an
// unresolvable reference, a failed function call, or an array where a
// scalar is needed.
func (e *env) eval(x Expr) (value, error) {
	switch ex := x.(type) {
	case *NumberLit:
		return constVal(e.c.f.Reduce(ex.Val)), nil
	case *StringLit:
		return value{}, errAt(ex.Pos, "string literal outside log()")
	case *Ident, *IndexExpr, *MemberExpr:
		r, err := e.resolveRef(x)
		if err != nil {
			return value{}, err
		}
		return e.readRef(&r)
	case *CallExpr:
		v, err := e.callFunction(ex)
		return constVal(v), err
	case *UnaryExpr:
		v, err := e.evalScalar(ex.X)
		if err != nil {
			return value{}, err
		}
		return e.unop(ex.Op, &v, ex.Pos), nil
	case *BinaryExpr:
		l, err := e.evalScalar(ex.L)
		if err != nil {
			return value{}, err
		}
		if lc, ok := l.c.(*big.Int); ok {
			switch {
			case ex.Op == TokAndAnd && !truthy(lc):
				return constVal(boolElt(false)), nil
			case ex.Op == TokOrOr && truthy(lc):
				return constVal(boolElt(true)), nil
			}
		}
		r, err := e.evalScalar(ex.R)
		if err != nil {
			return value{}, err
		}
		return e.binop(ex.Op, &l, &r, ex.Pos), nil
	case *CondExpr:
		c, err := e.evalScalar(ex.C)
		if err != nil {
			return value{}, err
		}
		if c.c != nil {
			if truthy(c.c.(*big.Int)) {
				return e.eval(ex.T)
			}
			return e.eval(ex.F)
		}
		t, err := e.evalScalar(ex.T)
		if err != nil {
			return value{}, err
		}
		f, err := e.evalScalar(ex.F)
		if err != nil {
			return value{}, err
		}
		symErr := lazyErr{pos: ex.Pos, why: "ternary condition in a constraint must be signal-free"}
		if c.foldErr != nil {
			symErr.why = c.foldErr
		}
		return value{symRes: symRes{wx: &WCond{C: c.wx, T: t.wxView(), F: f.wxView()}}, symErr: symErr, foldErr: c.foldErr, sigPos: c.sigPos}, nil
	case *ArrayLit:
		v, err := e.evalArrayLit(ex)
		return constVal(v), err
	default:
		return value{}, errAt(x.exprPos(), "internal: unknown expression %T", x)
	}
}

// evalScalar evaluates an operand that must be a scalar.
func (e *env) evalScalar(x Expr) (value, error) {
	v, err := e.eval(x)
	if _, ok := v.c.(*arrVal); ok {
		return value{}, errAt(x.exprPos(), "expected scalar, got array")
	}
	return v, err
}

// constant evaluates an expression that must be a compile-time constant:
// dims, conditions, indices, arguments, return values and array-literal
// elements.
func (e *env) constant(x Expr) (cval, error) {
	v, err := e.eval(x)
	if err == nil && v.c == nil {
		return nil, v.constErr()
	}
	return v.c, err
}

// constScalar evaluates an expression that must be a scalar constant.
func (e *env) constScalar(x Expr) (*big.Int, error) {
	v, err := e.evalScalar(x)
	if err != nil {
		return nil, err
	}
	if v.c == nil {
		return nil, v.constErr()
	}
	return v.c.(*big.Int), nil
}

// settled admits a value into a var, assert or log position: it rejects a
// value whose constant view failed on a fold rather than on a signal, and,
// in a function body, which reads no signals, any value that is not a
// constant.
func (e *env) settled(v value, err error) (value, error) {
	if err == nil && v.c == nil && (v.foldErr != nil || e.isFn) {
		return value{}, v.constErr()
	}
	return v, err
}

// constraintValue evaluates the side of a <== or === to its quadratic value.
func (e *env) constraintValue(x Expr) (*symVal, error) {
	v, err := e.eval(x)
	if err != nil {
		return nil, err
	}
	if _, ok := v.c.(*arrVal); ok {
		return nil, errAt(x.exprPos(), "array used as scalar in constraint expression")
	}
	return v.symView(e.c.f)
}

// witnessValue evaluates the right side of a <-- to its witness expression.
func (e *env) witnessValue(x Expr) (WExpr, error) {
	v, err := e.eval(x)
	if err != nil {
		return nil, err
	}
	if _, ok := v.c.(*arrVal); ok {
		return nil, errAt(x.exprPos(), "array used as scalar")
	}
	return v.wxView(), nil
}

// readRef reads a resolved reference as a value.
func (e *env) readRef(r *ref) (value, error) {
	switch r.kind {
	case refSig:
		id, err := r.scalarSignal()
		if err != nil {
			return value{}, err
		}
		return value{symRes: symRes{wx: &WSig{ID: id}, sym: symLin(e.c.f, poly.Var(e.c.f, id))}, sigPos: r.pos}, nil
	case refComp:
		return value{}, errAt(r.pos, "component used as value")
	}
	// resolveRef rejects an index on a scalar variable.
	switch v := r.cell.val.(type) {
	case *big.Int:
		return constVal(v), nil
	case *symRes:
		out := value{symRes: *v, sigPos: r.pos}
		if v.sym == nil {
			out.symErr = lazyErr{pos: r.pos, why: "variable holds a non-quadratic signal expression; it cannot appear in a constraint"}
		}
		return out, nil
	case *arrVal:
		if len(r.idx) == len(v.dims) {
			return constVal(v.elems[flattenIndex(v.dims, r.idx)]), nil
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
		return constVal(out), nil
	default:
		return value{}, errAt(r.pos, "internal: bad var value %T", r.cell.val)
	}
}

// unop applies a unary operator to a scalar value. A fold that fails stays
// a residual node, so only witness-time execution can fail on it.
func (e *env) unop(op TokKind, v *value, pos Pos) value {
	if v.c != nil {
		c := v.c.(*big.Int)
		out, err := applyUn(e.c.f, op, c)
		if err != nil {
			return folded(&WUn{Op: op, X: &WConst{V: c}}, errAt(pos, "%v", err))
		}
		return constVal(out)
	}
	out := value{symRes: symRes{wx: &WUn{Op: op, X: v.wx}}, foldErr: v.foldErr, sigPos: v.sigPos}
	if v.sym == nil {
		out.symErr = v.symErr
		return out
	}
	if op == TokMinus {
		out.sym = symNeg(v.sym)
		return out
	}
	c, ok := v.sym.isConst()
	if !ok {
		out.symErr = lazyErr{pos: pos, why: unaryOp(op)}
		return out
	}
	k, err := applyUn(e.c.f, op, c)
	if err != nil {
		out.symErr = lazyErr{pos: pos, why: err}
		return out
	}
	out.sym = symConst(e.c.f, k)
	return out
}

// binop applies a binary operator to two scalar values; expressions and
// compound assignments share it. A fold that fails stays a residual node.
func (e *env) binop(op TokKind, l, r *value, pos Pos) value {
	lc, lok := l.c.(*big.Int)
	rc, rok := r.c.(*big.Int)
	if lok && rok {
		out, err := applyBin(e.c.f, op, lc, rc)
		if err != nil {
			// The constraint view of two constants fails the same way.
			return folded(&WBin{Op: op, L: &WConst{V: lc}, R: &WConst{V: rc}}, errAt(pos, "%v", err))
		}
		return constVal(out)
	}
	first := r
	if !lok {
		first = l
	}
	out := value{symRes: symRes{wx: &WBin{Op: op, L: l.wxView(), R: r.wxView()}}, foldErr: first.foldErr, sigPos: first.sigPos}
	switch {
	case !lok && l.sym == nil:
		out.symErr = l.symErr
	case !rok && r.sym == nil:
		out.symErr = r.symErr
	default:
		ls, _ := l.symView(e.c.f)
		rs, _ := r.symView(e.c.f)
		out.sym, out.symErr = e.symBin(op, ls, rs, pos)
	}
	return out
}

// symBin applies a binary operator in the constraint view, enforcing
// Circom's "at most quadratic" discipline.
func (e *env) symBin(op TokKind, l, r *symVal, pos Pos) (*symVal, lazyErr) {
	var out *symVal
	var err error
	switch op {
	case TokPlus:
		out, err = symAdd(l, r)
	case TokMinus:
		out, err = symSub(l, r)
	case TokStar:
		out, err = symMul(l, r)
	case TokSlash:
		out, err = symDiv(l, r)
	case TokPow:
		out, err := e.symPow(pos, l, r)
		if err != nil {
			return nil, lazyErr{why: err}
		}
		return out, lazyErr{}
	default:
		lc, lok := l.isConst()
		rc, rok := r.isConst()
		if !lok || !rok {
			return nil, lazyErr{pos: pos, why: binaryOp(op)}
		}
		k, err := applyBin(e.c.f, op, lc, rc)
		if err != nil {
			return nil, lazyErr{pos: pos, why: err}
		}
		return symConst(e.c.f, k), lazyErr{}
	}
	if err != nil {
		return nil, lazyErr{pos: pos, why: err}
	}
	return out, lazyErr{}
}

// symPow handles ** in constraint expressions: the exponent must be a
// constant; small exponents on linear bases unfold into products.
func (e *env) symPow(pos Pos, base, exp *symVal) (*symVal, *Error) {
	ec, ok := exp.isConst()
	if !ok {
		return nil, errAt(pos, "exponent must be signal-free")
	}
	if bc, ok := base.isConst(); ok {
		return symConst(e.c.f, e.c.f.ExpBig(bc, ec)), nil
	}
	if !ec.IsInt64() {
		return nil, errAt(pos, "signal raised to a huge exponent is not quadratic")
	}
	switch ec.Int64() {
	case 0:
		return symConst(e.c.f, big.NewInt(1)), nil
	case 1:
		return base, nil
	case 2:
		out, err := symMul(base, base)
		if err != nil {
			return nil, errAt(pos, "%v", err)
		}
		return out, nil
	default:
		return nil, errAt(pos, "signal raised to power %v exceeds degree 2; introduce intermediate signals", ec)
	}
}

func (e *env) evalArrayLit(lit *ArrayLit) (cval, error) {
	if len(lit.Elems) == 0 {
		return nil, errAt(lit.Pos, "empty array literal")
	}
	vals := make([]cval, len(lit.Elems))
	for i, el := range lit.Elems {
		v, err := e.constant(el)
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
		v, err := e.constant(call.Args[i])
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
