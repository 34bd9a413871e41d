package circom

import (
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"strings"
	"sync"

	"qed2/internal/faultinject"
	"qed2/internal/ff"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
)

// CompileOptions configures compilation.
type CompileOptions struct {
	// Field is the constraint field; defaults to the BN254 scalar field,
	// matching the circom compiler's default.
	Field *ff.Field
	// Library resolves include "name" directives to source text.
	Library map[string]string
	// MaxSignals bounds the number of signals (default 1 << 20).
	MaxSignals int
	// MaxConstraints bounds the number of constraints (default 1 << 21).
	MaxConstraints int
	// MaxSteps bounds compile-time statement executions (default 50M).
	MaxSteps int64
	// MaxDepth bounds template/function call nesting (default 128).
	MaxDepth int
}

func (o *CompileOptions) withDefaults() CompileOptions {
	out := CompileOptions{}
	if o != nil {
		out = *o
	}
	if out.Field == nil {
		out.Field = ff.BN254()
	}
	if out.MaxSignals == 0 {
		out.MaxSignals = 1 << 20
	}
	if out.MaxConstraints == 0 {
		out.MaxConstraints = 1 << 21
	}
	if out.MaxSteps == 0 {
		out.MaxSteps = 50_000_000
	}
	if out.MaxDepth == 0 {
		out.MaxDepth = 128
	}
	return out
}

// Compile parses src (resolving includes through opts.Library), instantiates
// the main component, and returns the compiled Program.
func Compile(src string, opts *CompileOptions) (*Program, error) {
	o := (&CompileOptions{}).withDefaults()
	if opts != nil {
		o = opts.withDefaults()
	}
	file, err := loadWithIncludes(src, o.Library)
	if err != nil {
		return nil, err
	}
	return CompileFile(file, &o)
}

// loadWithIncludes parses src and, recursively, every included file from
// the library, merging all templates and functions. Duplicate includes are
// loaded once; include cycles are tolerated for the same reason.
func loadWithIncludes(src string, library map[string]string) (*File, error) {
	root, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	loaded := map[string]bool{}
	queue := append([]string(nil), root.Includes...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if loaded[name] {
			continue
		}
		loaded[name] = true
		text, ok := library[name]
		if !ok {
			return nil, fmt.Errorf("circom: include %q not found in library", name)
		}
		inc, err := parseIncluded(text)
		if err != nil {
			return nil, fmt.Errorf("circom: in included file %q: %w", name, err)
		}
		if inc.Main != nil {
			return nil, fmt.Errorf("circom: included file %q declares a main component", name)
		}
		root.Templates = append(root.Templates, inc.Templates...)
		root.Functions = append(root.Functions, inc.Functions...)
		queue = append(queue, inc.Includes...)
	}
	return root, nil
}

// maxCachedIncludes bounds the include-parse cache. The bundled library has
// 20 files; the rest of the room is for sibling includes of user circuits.
// A process that meets more distinct include texts than this starts the
// cache over, so it re-parses but never grows without bound.
const maxCachedIncludes = 256

// includeCache holds parsed included files for the life of the process,
// keyed by their source text, so compiling many circuits against one
// library parses each library file once. Sharing one *File between
// compilations, concurrent ones included, is sound because ParseFile is a
// pure function of its text and compilation never writes to an AST node:
// loadWithIncludes appends a cached file's templates to the fresh root's
// slices, and literals are copied (Field.Reduce) before they become values.
// TestIncludeCacheMatchesFreshParse pins the read-only invariant. The root
// source is not cached: it differs for every circuit.
var includeCache struct {
	sync.Mutex
	files map[string]*File
}

// parseIncluded returns the parse of an included file, from the cache when
// the same text was parsed before. Parse errors are not cached.
func parseIncluded(text string) (*File, error) {
	includeCache.Lock()
	f, ok := includeCache.files[text]
	includeCache.Unlock()
	if ok {
		return f, nil
	}
	f, err := ParseFile(text)
	if err != nil {
		return nil, err
	}
	includeCache.Lock()
	if includeCache.files == nil || len(includeCache.files) >= maxCachedIncludes {
		includeCache.files = make(map[string]*File)
	}
	includeCache.files[text] = f
	includeCache.Unlock()
	return f, nil
}

// ResetIncludeCache empties the include-parse cache, so the next
// compilation parses every included file again. Benchmarks and tests use it
// to measure or exercise a cold cache; results never depend on it.
func ResetIncludeCache() {
	includeCache.Lock()
	includeCache.files = nil
	includeCache.Unlock()
}

// CompileFile compiles an already-parsed (and include-merged) file.
//
// The named returns feed the recover boundary: no panic may escape the
// compiler on untrusted input. A recovered *Error (position-tagged) is
// returned as-is; anything else — a genuine compiler bug — is wrapped as an
// "internal error" so the caller still gets an error, not a crash.
func CompileFile(file *File, opts *CompileOptions) (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			prog = nil
			if cerr, ok := r.(*Error); ok {
				err = cerr
				return
			}
			err = fmt.Errorf("circom: internal error: %v", r)
		}
	}()
	if faultinject.Enabled() {
		faultinject.Check("circom.compile")
	}
	o := opts.withDefaults()
	if file.Main == nil {
		return nil, errors.New("circom: no main component declared")
	}
	c := &compiler{
		opts:      o,
		f:         o.Field,
		templates: map[string]*Template{},
		functions: map[string]*Function{},
		sys:       r1cs.NewSystem(o.Field),
	}
	for _, t := range file.Templates {
		if _, dup := c.templates[t.Name]; dup {
			return nil, errAt(t.Pos, "duplicate template %q", t.Name)
		}
		c.templates[t.Name] = t
	}
	for _, fn := range file.Functions {
		if _, dup := c.functions[fn.Name]; dup {
			return nil, errAt(fn.Pos, "duplicate function %q", fn.Name)
		}
		c.functions[fn.Name] = fn
	}
	c.prog = &Program{
		System:      c.sys,
		InputNames:  map[string]int{},
		OutputNames: map[string]int{},
	}
	// Evaluate main arguments in a signal-free environment.
	topEnv := &env{c: c, scopes: []map[string]any{{}}}
	args := make([]cval, len(file.Main.Call.Args))
	for i, a := range file.Main.Call.Args {
		v, err := topEnv.constant(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	c.assignedSig = append(c.assignedSig, true) // the constant-one signal
	inst, err := c.instantiate(file.Main.Call.Name, args, "", true, file.Main.Pos)
	if err != nil {
		return nil, err
	}
	c.prog.MainTemplate = file.Main.Call.Name
	_ = inst
	// Every non-input signal must have a witness-generation rule. Each
	// offender gets its own diagnostic pointing at the declaration site,
	// rather than one aggregated location-free message.
	var unassigned []error
	for id := 1; id < c.sys.NumSignals(); id++ {
		sig := c.sys.Signal(id)
		if !c.assignedSig[id] && sig.Kind != r1cs.KindInput {
			if sig.Loc.IsZero() {
				unassigned = append(unassigned, fmt.Errorf("circom: signal %s has no assignment (<== or <--)", sig.Name))
			} else {
				unassigned = append(unassigned, fmt.Errorf("circom: %s: signal %s declared here has no assignment (<== or <--)", sig.Loc, sig.Name))
			}
		}
	}
	if len(unassigned) > 0 {
		return nil, errors.Join(unassigned...)
	}
	return c.prog, nil
}

// --- compiler state --------------------------------------------------------------

type compiler struct {
	opts      CompileOptions
	f         *ff.Field
	templates map[string]*Template
	functions map[string]*Function
	prog      *Program
	sys       *r1cs.System
	steps     int64
	depth     int
	// assignedSig[id] records that signal id has a witness assignment.
	assignedSig []bool
}

func (c *compiler) step(pos Pos) error {
	c.steps++
	if c.steps > c.opts.MaxSteps {
		return errAt(pos, "compilation step budget exceeded (%d steps): possible unbounded loop", c.opts.MaxSteps)
	}
	return nil
}

// cval is a compile-time value, *big.Int or *arrVal; a variable may also
// hold a *symRes over signals.
type cval any

// arrVal is a (possibly multi-dimensional) array of field elements, stored
// flattened row-major.
type arrVal struct {
	dims  []int
	elems []*big.Int
}

func newArr(f *ff.Field, dims []int) *arrVal {
	n := 1
	for _, d := range dims {
		n *= d
	}
	a := &arrVal{dims: dims, elems: make([]*big.Int, n)}
	for i := range a.elems {
		a.elems[i] = new(big.Int)
	}
	return a
}

func (a *arrVal) clone() *arrVal {
	out := &arrVal{dims: append([]int(nil), a.dims...), elems: make([]*big.Int, len(a.elems))}
	for i, e := range a.elems {
		out.elems[i] = new(big.Int).Set(e)
	}
	return out
}

func cloneCval(v cval) cval {
	switch x := v.(type) {
	case *big.Int:
		return new(big.Int).Set(x)
	case *arrVal:
		return x.clone()
	default:
		return v
	}
}

// dimsProduct returns the flattened length of dims.
func dimsProduct(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// flattenIndex converts a full index list into a flat offset.
func flattenIndex(dims, idx []int) int {
	off := 0
	for i, d := range dims {
		off = off*d + idx[i]
	}
	return off
}

// --- bindings -----------------------------------------------------------------

type varCell struct{ val cval }

type sigGroup struct {
	class SignalClass
	dims  []int
	ids   []int // flattened signal IDs
	name  string
}

type subInstance struct {
	tmplName string
	signals  map[string]*sigGroup
	// inputsTotal/inputsSet track subcomponent input wiring completeness.
	inputsTotal int
	inputsSet   int
}

type compGroup struct {
	dims  []int
	slots []*subInstance // nil until instantiated
	name  string
	pos   Pos
}

// env is a lexical environment for one template instantiation or function
// call.
type env struct {
	c      *compiler
	prefix string // signal name prefix, e.g. "c[2]." for subcomponents
	scopes []map[string]any
	inst   *subInstance // non-nil in template mode
	isTop  bool         // instantiating the main component
	isFn   bool         // executing a function body
	retVal cval
	done   bool // a return statement has executed
}

func (e *env) pushScope() { e.scopes = append(e.scopes, map[string]any{}) }
func (e *env) popScope()  { e.scopes = e.scopes[:len(e.scopes)-1] }

// loc converts a source position into the r1cs metadata form, naming the
// template currently being instantiated.
func (e *env) loc(pos Pos) r1cs.SourceLoc {
	tmpl := ""
	if e.inst != nil {
		tmpl = e.inst.tmplName
	}
	return r1cs.SourceLoc{Template: tmpl, Line: pos.Line, Col: pos.Col}
}

func (e *env) lookup(name string) (any, bool) {
	for i := len(e.scopes) - 1; i >= 0; i-- {
		if b, ok := e.scopes[i][name]; ok {
			return b, true
		}
	}
	return nil, false
}

func (e *env) declare(name string, b any, pos Pos) error {
	top := e.scopes[len(e.scopes)-1]
	if _, dup := top[name]; dup {
		return errAt(pos, "redeclaration of %q", name)
	}
	top[name] = b
	return nil
}

// --- template instantiation ----------------------------------------------------

func (c *compiler) instantiate(name string, args []cval, prefix string, top bool, pos Pos) (*subInstance, error) {
	tmpl, ok := c.templates[name]
	if !ok {
		return nil, errAt(pos, "unknown template %q", name)
	}
	if len(args) != len(tmpl.Params) {
		return nil, errAt(pos, "template %s expects %d parameters, got %d", name, len(tmpl.Params), len(args))
	}
	c.depth++
	defer func() { c.depth-- }()
	if c.depth > c.opts.MaxDepth {
		return nil, errAt(pos, "template nesting exceeds %d (recursive instantiation?)", c.opts.MaxDepth)
	}
	inst := &subInstance{tmplName: name, signals: map[string]*sigGroup{}}
	e := &env{c: c, prefix: prefix, scopes: []map[string]any{{}}, inst: inst, isTop: top}
	for i, p := range tmpl.Params {
		if err := e.declare(p, &varCell{val: cloneCval(args[i])}, tmpl.Pos); err != nil {
			return nil, err
		}
	}
	e.pushScope() // body scope
	if err := e.execBlock(tmpl.Body); err != nil {
		return nil, err
	}
	return inst, nil
}

// --- statement execution --------------------------------------------------------

func (e *env) execBlock(b *Block) error {
	e.pushScope()
	defer e.popScope()
	for _, s := range b.Stmts {
		if err := e.execStmt(s); err != nil {
			return err
		}
		if e.done {
			return nil
		}
	}
	return nil
}

func (e *env) execStmt(s Stmt) error {
	if err := e.c.step(s.stmtPos()); err != nil {
		return err
	}
	switch st := s.(type) {
	case *Block:
		return e.execBlock(st)
	case *VarDecl:
		return e.execVarDecl(st)
	case *SignalDecl:
		return e.execSignalDecl(st)
	case *ComponentDecl:
		return e.execComponentDecl(st)
	case *AssignStmt:
		return e.execAssign(st)
	case *ConstraintStmt:
		return e.execConstraint(st)
	case *IncDecStmt:
		op := TokPlusAssign
		if st.Op == TokDec {
			op = TokMinusAssign
		}
		r, err := e.varTarget(st.LHS, op, st.Pos)
		if err != nil {
			return err
		}
		return e.updateVar(&r, op, constVal(one), st.Pos)
	case *ForStmt:
		e.pushScope()
		defer e.popScope()
		if st.Init != nil {
			if err := e.execStmt(st.Init); err != nil {
				return err
			}
		}
		for {
			if st.Cond != nil {
				v, err := e.constScalar(st.Cond)
				if err != nil {
					return err
				}
				if !truthy(v) {
					break
				}
			}
			if err := e.execBlock(st.Body); err != nil {
				return err
			}
			if e.done {
				return nil
			}
			if st.Post != nil {
				if err := e.execStmt(st.Post); err != nil {
					return err
				}
			}
			if err := e.c.step(st.Pos); err != nil {
				return err
			}
		}
		return nil
	case *WhileStmt:
		for {
			v, err := e.constScalar(st.Cond)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
			if err := e.execBlock(st.Body); err != nil {
				return err
			}
			if e.done {
				return nil
			}
			if err := e.c.step(st.Pos); err != nil {
				return err
			}
		}
	case *IfStmt:
		v, err := e.constScalar(st.Cond)
		if err != nil {
			return err
		}
		if truthy(v) {
			return e.execBlock(st.Then)
		}
		if st.Else != nil {
			return e.execStmt(st.Else)
		}
		return nil
	case *ReturnStmt:
		if !e.isFn {
			return errAt(st.Pos, "return outside function")
		}
		v, err := e.constant(st.Value)
		if err != nil {
			return err
		}
		e.retVal = cloneCval(v)
		e.done = true
		return nil
	case *AssertStmt:
		return e.execAssert(st)
	case *LogStmt:
		return e.execLog(st)
	default:
		return errAt(s.stmtPos(), "internal: unknown statement %T", s)
	}
}

func (e *env) execVarDecl(st *VarDecl) error {
	for _, d := range st.Decls {
		dims, err := e.evalDims(d.Dims)
		if err != nil {
			return err
		}
		var val cval
		if len(dims) == 0 {
			val = new(big.Int)
		} else {
			val = newArr(e.c.f, dims)
		}
		if d.Init != nil {
			iv, err := e.settled(e.eval(d.Init))
			if err != nil {
				return err
			}
			val, err = coerceInit(iv, dims, d.Pos)
			if err != nil {
				return err
			}
		}
		if err := e.declare(d.Name, &varCell{val: val}, d.Pos); err != nil {
			return err
		}
	}
	return nil
}

// coerceInit checks that an initializer value matches the declared dims.
func coerceInit(v value, dims []int, pos Pos) (cval, error) {
	switch x := v.c.(type) {
	case nil:
		if len(dims) != 0 {
			return nil, errAt(pos, "array variable initialized with a signal-dependent scalar")
		}
		return v.stored(), nil
	case *big.Int:
		if len(dims) != 0 {
			return nil, errAt(pos, "array variable initialized with scalar")
		}
		return cloneCval(x), nil
	case *arrVal:
		if len(dims) == 0 {
			return nil, errAt(pos, "scalar variable initialized with array")
		}
		if dimsProduct(dims) != len(x.elems) {
			return nil, errAt(pos, "array initializer size mismatch: declared %v, got %d elements", dims, len(x.elems))
		}
		out := x.clone()
		out.dims = append([]int(nil), dims...)
		return out, nil
	default:
		return nil, errAt(pos, "internal: bad initializer value %T", v.c)
	}
}

func (e *env) execSignalDecl(st *SignalDecl) error {
	if e.isFn {
		return errAt(st.Pos, "signal declaration inside function")
	}
	for _, d := range st.Decls {
		dims, err := e.evalDims(d.Dims)
		if err != nil {
			return err
		}
		if _, dup := e.inst.signals[d.Name]; dup {
			return errAt(d.Pos, "redeclaration of signal %q", d.Name)
		}
		g := &sigGroup{class: st.Class, dims: dims, name: d.Name}
		n := dimsProduct(dims)
		for i := 0; i < n; i++ {
			fullName := e.prefix + d.Name + indexSuffix(dims, i)
			kind := r1cs.KindInternal
			if e.isTop {
				switch st.Class {
				case SignalInput:
					kind = r1cs.KindInput
				case SignalOutput:
					kind = r1cs.KindOutput
				}
			}
			if e.c.sys.NumSignals() >= e.c.opts.MaxSignals {
				return errAt(d.Pos, "signal budget exceeded (%d)", e.c.opts.MaxSignals)
			}
			id := e.c.sys.AddSignal(fullName, kind)
			e.c.sys.SetSignalLoc(id, e.loc(d.Pos))
			e.c.assignedSig = append(e.c.assignedSig, false)
			g.ids = append(g.ids, id)
			if e.isTop {
				rel := d.Name + indexSuffix(dims, i)
				switch st.Class {
				case SignalInput:
					e.c.prog.InputNames[rel] = id
				case SignalOutput:
					e.c.prog.OutputNames[rel] = id
				}
			}
			if st.Class == SignalInput {
				e.inst.inputsTotal++
			}
		}
		e.inst.signals[d.Name] = g
		if err := e.declare(d.Name, g, d.Pos); err != nil {
			return err
		}
	}
	return nil
}

// indexSuffix renders the multi-dimensional index of flat offset i, e.g.
// "[2][0]"; empty for scalars.
func indexSuffix(dims []int, flat int) string {
	if len(dims) == 0 {
		return ""
	}
	idx := make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		idx[i] = flat % dims[i]
		flat /= dims[i]
	}
	b := make([]byte, 0, 4*len(idx))
	for _, k := range idx {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(k), 10)
		b = append(b, ']')
	}
	return string(b)
}

func (e *env) execComponentDecl(st *ComponentDecl) error {
	if e.isFn {
		return errAt(st.Pos, "component declaration inside function")
	}
	for _, d := range st.Decls {
		dims, err := e.evalDims(d.Dims)
		if err != nil {
			return err
		}
		g := &compGroup{dims: dims, slots: make([]*subInstance, dimsProduct(dims)), name: d.Name, pos: d.Pos}
		if err := e.declare(d.Name, g, d.Pos); err != nil {
			return err
		}
		if d.Init != nil {
			if len(dims) != 0 {
				return errAt(d.Pos, "component array cannot have a direct initializer")
			}
			if err := e.instantiateInto(g, 0, d.Init, d.Pos); err != nil {
				return err
			}
		}
	}
	return nil
}

// instantiateInto fills slot flat of group g from a template call expression.
func (e *env) instantiateInto(g *compGroup, flat int, call Expr, pos Pos) error {
	ce, ok := call.(*CallExpr)
	if !ok {
		return errAt(pos, "component initializer must be a template instantiation")
	}
	if g.slots[flat] != nil {
		return errAt(pos, "component %s%s instantiated twice", g.name, indexSuffix(g.dims, flat))
	}
	args := make([]cval, len(ce.Args))
	for i, a := range ce.Args {
		v, err := e.constant(a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	childPrefix := e.prefix + g.name + indexSuffix(g.dims, flat) + "."
	inst, err := e.c.instantiate(ce.Name, args, childPrefix, false, pos)
	if err != nil {
		return err
	}
	g.slots[flat] = inst
	return nil
}

// --- references -----------------------------------------------------------------

// refKind tags resolved references.
type refKind int

const (
	refVar refKind = iota
	refSig
	refComp
)

// ref is a resolved lvalue/rvalue path.
type ref struct {
	kind refKind
	cell *varCell
	sig  *sigGroup
	comp *compGroup
	// inst is set when the signal was reached through a component member.
	inst *subInstance
	// idx are the indices applied so far (len ≤ len(dims)).
	idx []int
	pos Pos
}

// dims returns the declared dimensions of the referenced object.
func (r *ref) dims() []int {
	switch r.kind {
	case refSig:
		return r.sig.dims
	case refComp:
		return r.comp.dims
	default:
		if a, ok := r.cell.val.(*arrVal); ok {
			return a.dims
		}
		return nil
	}
}

// resolveRef returns the reference by value: it runs for every identifier
// the compiler evaluates, and a value result stays off the heap.
func (e *env) resolveRef(x Expr) (ref, error) {
	switch ex := x.(type) {
	case *Ident:
		b, ok := e.lookup(ex.Name)
		if !ok {
			return ref{}, errAt(ex.Pos, "undefined identifier %q", ex.Name)
		}
		switch bb := b.(type) {
		case *varCell:
			return ref{kind: refVar, cell: bb, pos: ex.Pos}, nil
		case *sigGroup:
			return ref{kind: refSig, sig: bb, pos: ex.Pos}, nil
		case *compGroup:
			return ref{kind: refComp, comp: bb, pos: ex.Pos}, nil
		default:
			return ref{}, errAt(ex.Pos, "internal: unknown binding %T", b)
		}
	case *IndexExpr:
		base, err := e.resolveRef(ex.X)
		if err != nil {
			return ref{}, err
		}
		iv, err := e.constScalar(ex.Idx)
		if err != nil {
			return ref{}, err
		}
		i, ok := e.c.f.SmallNonNegBig(iv)
		if !ok {
			si := e.c.f.SignedBig(iv)
			if !si.IsInt64() {
				return ref{}, errAt(ex.Pos, "array index out of range: %v", si)
			}
			i = int(si.Int64())
		}
		dims := base.dims()
		if len(base.idx) >= len(dims) {
			return ref{}, errAt(ex.Pos, "too many indices")
		}
		if i < 0 || i >= dims[len(base.idx)] {
			return ref{}, errAt(ex.Pos, "index %d out of bounds [0,%d)", i, dims[len(base.idx)])
		}
		base.idx = append(base.idx, i)
		base.pos = ex.Pos
		return base, nil
	case *MemberExpr:
		base, err := e.resolveRef(ex.X)
		if err != nil {
			return ref{}, err
		}
		if base.kind != refComp {
			return ref{}, errAt(ex.Pos, "member access on non-component")
		}
		if len(base.idx) != len(base.comp.dims) {
			return ref{}, errAt(ex.Pos, "component array %s must be fully indexed before member access", base.comp.name)
		}
		inst := base.comp.slots[flattenIndex(base.comp.dims, base.idx)]
		if inst == nil {
			return ref{}, errAt(ex.Pos, "component %s%s used before instantiation", base.comp.name, indexSuffix(base.comp.dims, flattenIndex(base.comp.dims, base.idx)))
		}
		g, ok := inst.signals[ex.Name]
		if !ok {
			return ref{}, errAt(ex.Pos, "template %s has no signal %q", inst.tmplName, ex.Name)
		}
		if g.class == SignalIntermediate {
			return ref{}, errAt(ex.Pos, "intermediate signal %q of %s is not accessible from outside", ex.Name, inst.tmplName)
		}
		return ref{kind: refSig, sig: g, inst: inst, pos: ex.Pos}, nil
	default:
		return ref{}, errAt(x.exprPos(), "expression is not addressable")
	}
}

// scalarSignal resolves a reference to a single signal ID.
func (r *ref) scalarSignal() (int, error) {
	if r.kind != refSig {
		return 0, errAt(r.pos, "expected a signal")
	}
	if len(r.idx) != len(r.sig.dims) {
		return 0, errAt(r.pos, "signal array %s requires %d indices, got %d", r.sig.name, len(r.sig.dims), len(r.idx))
	}
	return r.sig.ids[flattenIndex(r.sig.dims, r.idx)], nil
}

// --- assignments and constraints --------------------------------------------------

func (e *env) execAssign(st *AssignStmt) error {
	switch st.Op {
	case TokAssignCon, TokAssignSig:
		return e.execSignalAssign(st)
	}
	r, err := e.varTarget(st.LHS, st.Op, st.Pos)
	if err != nil {
		return err
	}
	if r.kind == refComp {
		if len(r.idx) != len(r.comp.dims) {
			return errAt(st.Pos, "component array must be fully indexed for instantiation")
		}
		return e.instantiateInto(r.comp, flattenIndex(r.comp.dims, r.idx), st.RHS, st.Pos)
	}
	rhs, err := e.settled(e.eval(st.RHS))
	if err != nil {
		return err
	}
	return e.updateVar(&r, st.Op, rhs, st.Pos)
}

// varTarget resolves the left side of a variable update. A component takes
// only a plain '=' instantiation, and a signal no update at all.
func (e *env) varTarget(lhs Expr, op TokKind, pos Pos) (ref, error) {
	r, err := e.resolveRef(lhs)
	if err != nil {
		return r, err
	}
	switch {
	case r.kind == refComp && op != TokAssign:
		return r, errAt(pos, "components only support plain '=' instantiation")
	case r.kind == refSig:
		return r, errAt(pos, "signals must be assigned with <== or <-- (not %q)", op.String())
	}
	return r, nil
}

// updateVar stores v through a variable reference (op '='), or combines it
// with the current value first (a compound op such as '+=').
func (e *env) updateVar(r *ref, op TokKind, v value, pos Pos) error {
	if op == TokAssign {
		return e.storeVar(r, v, pos)
	}
	binOp, ok := compoundOps[op]
	if !ok {
		return errAt(pos, "unsupported assignment operator %q", op.String())
	}
	if a, ok := r.cell.val.(*arrVal); ok && len(r.idx) != len(a.dims) {
		return errAt(r.pos, "partial array read where scalar expected")
	}
	cur, err := e.readRef(r)
	if err != nil {
		return err
	}
	if _, ok := v.c.(*arrVal); ok {
		return errAt(pos, "array used as scalar")
	}
	nv, err := e.settled(e.binop(binOp, &cur, &v, pos), nil)
	if err != nil {
		return err
	}
	return e.storeVar(r, nv, pos)
}

var compoundOps = map[TokKind]TokKind{
	TokPlusAssign:   TokPlus,
	TokMinusAssign:  TokMinus,
	TokStarAssign:   TokStar,
	TokSlashAssign:  TokSlash,
	TokIntDivAssign: TokIntDiv,
	TokPctAssign:    TokPercent,
	TokShlAssign:    TokShl,
	TokShrAssign:    TokShr,
	TokAndAssign:    TokBitAnd,
	TokOrAssign:     TokBitOr,
	TokXorAssign:    TokBitXor,
}

// storeVar writes a value through a variable reference; varTarget and
// resolveRef have checked that it names a variable, indexed no deeper than
// its dims.
func (e *env) storeVar(r *ref, v value, pos Pos) error {
	cur, ok := r.cell.val.(*arrVal)
	if !ok {
		switch nv := v.c.(type) {
		case *big.Int:
			r.cell.val = e.c.f.Reduce(nv)
		case nil:
			r.cell.val = v.stored()
		default:
			return errAt(pos, "cannot assign array to scalar variable")
		}
		return nil
	}
	if len(r.idx) == len(cur.dims) {
		nv, ok := v.c.(*big.Int)
		if !ok {
			if v.c == nil {
				return errAt(pos, "array variables cannot hold signal-dependent values; use a signal array")
			}
			return errAt(pos, "cannot assign array to array element")
		}
		cur.elems[flattenIndex(cur.dims, r.idx)] = e.c.f.Reduce(nv)
		return nil
	}
	if len(r.idx) == 0 {
		nv, ok := v.c.(*arrVal)
		if !ok || dimsProduct(nv.dims) != dimsProduct(cur.dims) {
			return errAt(pos, "array assignment shape mismatch")
		}
		cp := nv.clone()
		cp.dims = append([]int(nil), cur.dims...)
		r.cell.val = cp
		return nil
	}
	return errAt(pos, "partial array assignment is not supported")
}

// execSignalAssign handles `target <== expr` and `target <-- expr`.
func (e *env) execSignalAssign(st *AssignStmt) error {
	if e.isFn {
		return errAt(st.Pos, "signal assignment inside function")
	}
	r, err := e.resolveRef(st.LHS)
	if err != nil {
		return err
	}
	id, err := r.scalarSignal()
	if err != nil {
		return err
	}
	// Validate the target: local non-input signal, or sub-component input.
	if r.inst != nil {
		if r.sig.class != SignalInput {
			return errAt(st.Pos, "cannot assign to %s signal %q of sub-component", r.sig.class, r.sig.name)
		}
		r.inst.inputsSet++
	} else if r.sig.class == SignalInput {
		return errAt(st.Pos, "cannot assign to input signal %q", r.sig.name)
	}
	if e.c.assignedSig[id] {
		return errAt(st.Pos, "signal %s assigned twice", e.c.sys.Name(id))
	}
	e.c.assignedSig[id] = true

	if st.Op == TokAssignCon {
		// <== : constrain and assign.
		sym, err := e.constraintValue(st.RHS)
		if err != nil {
			return err
		}
		tag := fmt.Sprintf("%s <== @%s", e.c.sys.Name(id), st.Pos)
		if sym.lin != nil {
			if err := e.emitConstraint(
				poly.ConstInt(e.c.f, 1),
				sym.lin,
				poly.Var(e.c.f, id),
				tag, st.Pos, id,
			); err != nil {
				return err
			}
			e.c.prog.Assignments = append(e.c.prog.Assignments, Assignment{
				Target: id, Expr: &WLin{LC: sym.lin}, Constrained: true, Pos: st.Pos,
			})
		} else {
			if err := e.emitConstraint(
				sym.qa,
				sym.qb,
				poly.Var(e.c.f, id).Sub(sym.qc),
				tag, st.Pos, id,
			); err != nil {
				return err
			}
			e.c.prog.Assignments = append(e.c.prog.Assignments, Assignment{
				Target: id, Expr: &WQuad{A: sym.qa, B: sym.qb, C: sym.qc}, Constrained: true, Pos: st.Pos,
			})
		}
		return nil
	}

	// <-- : assign only. This is the dangerous operator: no constraint is
	// emitted, so the prover is free to pick any value unless separate ===
	// constraints pin it down. The hint flag survives into the R1CS so the
	// static-analysis pass can key detectors off it.
	e.c.sys.MarkHinted(id)
	wx, err := e.witnessValue(st.RHS)
	if err != nil {
		return err
	}
	e.c.prog.Assignments = append(e.c.prog.Assignments, Assignment{
		Target: id, Expr: wx, Constrained: false, Pos: st.Pos,
	})
	return nil
}

// emitConstraint appends a constraint with source metadata; def is the
// signal a `<==` assignment defined with it (0 for pure === checks).
func (e *env) emitConstraint(a, b, c *poly.LinComb, tag string, pos Pos, def int) error {
	if e.c.sys.NumConstraints() >= e.c.opts.MaxConstraints {
		return errAt(pos, "constraint budget exceeded (%d)", e.c.opts.MaxConstraints)
	}
	e.c.sys.AddConstraint(a, b, c, tag)
	ci := e.c.sys.NumConstraints() - 1
	e.c.sys.SetConstraintLoc(ci, e.loc(pos))
	if def != 0 {
		e.c.sys.SetConstraintDef(ci, def)
	}
	return nil
}

func (e *env) execConstraint(st *ConstraintStmt) error {
	if e.isFn {
		return errAt(st.Pos, "constraint inside function")
	}
	l, err := e.constraintValue(st.L)
	if err != nil {
		return err
	}
	r, err := e.constraintValue(st.R)
	if err != nil {
		return err
	}
	// l − r = 0 as A·B = C. Where one side is quadratic, qa·qb + qc, C is
	// the other side minus qc, one merge; a quadratic r enters negated.
	f := e.c.f
	var qa, qb, qc *poly.LinComb
	switch {
	case l.lin != nil && r.lin != nil:
		d := l.lin.Sub(r.lin)
		if d.IsConst() {
			if c := f.ToBig(d.Constant()); c.Sign() != 0 {
				return errAt(st.Pos, "constraint is constant-false: %v === 0 is unsatisfiable", f.SignedBig(c).String())
			}
			// Constant-true constraints are dropped, matching circom.
			return nil
		}
		qa, qb, qc = poly.ConstInt(f, 1), d, poly.NewLinComb(f)
	case r.lin != nil:
		qa, qb, qc = l.qa, l.qb, r.lin.Sub(l.qc)
	case l.lin != nil:
		qa, qb, qc = r.qa.Neg(), r.qb, r.qc.Sub(l.lin)
	default:
		return errAt(st.Pos, "constraint is not quadratic: %v", errQuadSum)
	}
	return e.emitConstraint(qa, qb, qc, fmt.Sprintf("=== @%s", st.Pos), st.Pos, 0)
}

func (e *env) execAssert(st *AssertStmt) error {
	// Compile-time assert when the condition is signal-free; otherwise a
	// witness-time check.
	v, err := e.settled(e.eval(st.Cond))
	if err != nil {
		return err
	}
	switch c := v.c.(type) {
	case *big.Int:
		if !truthy(c) {
			return errAt(st.Pos, "assertion failed")
		}
	case *arrVal:
		return errAt(st.Pos, "assert on array value")
	default:
		e.c.prog.Checks = append(e.c.prog.Checks, Check{Expr: v.wx, Pos: st.Pos, Msg: "assert"})
	}
	return nil
}

func (e *env) execLog(st *LogStmt) error {
	var parts []string
	for _, a := range st.Args {
		if s, ok := a.(*StringLit); ok {
			parts = append(parts, s.Val)
			continue
		}
		v, err := e.settled(e.eval(a))
		if err != nil {
			return err
		}
		switch x := v.c.(type) {
		case *big.Int:
			parts = append(parts, e.c.f.SignedBig(x).String())
		case *arrVal:
			parts = append(parts, fmt.Sprintf("<array[%d]>", len(x.elems)))
		default:
			parts = append(parts, "<signal>")
		}
	}
	e.c.prog.Logs = append(e.c.prog.Logs, strings.Join(parts, " "))
	return nil
}

// evalDims evaluates declaration dimensions to positive ints.
func (e *env) evalDims(dims []Expr) ([]int, error) {
	out := make([]int, 0, len(dims))
	for _, d := range dims {
		v, err := e.constScalar(d)
		if err != nil {
			return nil, err
		}
		n, ok := e.c.f.SmallNonNegBig(v)
		if !ok || n > 1<<24 {
			return nil, errAt(d.exprPos(), "array dimension out of range: %v", e.c.f.SignedBig(v))
		}
		out = append(out, n)
	}
	return out, nil
}
