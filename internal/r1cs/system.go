// Package r1cs represents arithmetic circuits as rank-1 constraint systems
// (R1CS): collections of constraints ⟨A,s⟩·⟨B,s⟩ = ⟨C,s⟩ over a signal
// vector s in a prime field, exactly the form emitted by the Circom
// compiler. It also provides the constraint–signal graph and the k-hop
// slicing operation that the QED² analysis uses to build local SMT queries,
// plus witness checking and a text serialization format.
package r1cs

import (
	"fmt"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// SignalKind classifies a circuit signal.
type SignalKind int

const (
	// KindOne is the distinguished constant-one signal (always ID 0).
	KindOne SignalKind = iota
	// KindInput marks a main-component input signal: the values the
	// verifier fixes. Uniqueness of every other signal is judged relative
	// to the inputs.
	KindInput
	// KindOutput marks a main-component output signal: the values whose
	// uniqueness defines whether the circuit is properly constrained.
	KindOutput
	// KindInternal marks intermediate witness signals.
	KindInternal
)

// String implements fmt.Stringer.
func (k SignalKind) String() string {
	switch k {
	case KindOne:
		return "one"
	case KindInput:
		return "input"
	case KindOutput:
		return "output"
	case KindInternal:
		return "internal"
	default:
		return fmt.Sprintf("SignalKind(%d)", int(k))
	}
}

// SourceLoc points into the circom source that produced a signal or a
// constraint: the template the construct was written in and its line:column
// position within the (include-merged) source of that template. The zero
// value means "no location recorded" — hand-built systems and pre-metadata
// .r1cs files simply omit it.
type SourceLoc struct {
	Template string
	Line     int
	Col      int
}

// IsZero reports whether no location was recorded.
func (l SourceLoc) IsZero() bool { return l.Template == "" && l.Line == 0 && l.Col == 0 }

// String renders "Template:line:col" ("" for the zero location).
func (l SourceLoc) String() string {
	if l.IsZero() {
		return ""
	}
	return fmt.Sprintf("%s:%d:%d", l.Template, l.Line, l.Col)
}

// Signal is a named wire of the circuit.
type Signal struct {
	ID   int
	Name string
	Kind SignalKind
	// Loc is the declaration site in the circom source, if compiled.
	Loc SourceLoc
	// Hinted records that the signal was assigned with the witness-only
	// `<--` operator: the compiler emitted a generation rule but no
	// constraint, so nothing pins the value unless separate === constraints
	// do. This is the canonical origin of under-constrained circuits and
	// the static-analysis pass keys several detectors off it.
	Hinted bool
}

// Constraint is a single rank-1 constraint ⟨A,s⟩·⟨B,s⟩ = ⟨C,s⟩.
type Constraint struct {
	A, B, C *poly.LinComb
	// Tag records provenance (template/source construct) for diagnostics.
	Tag string
	// Loc is the source position of the statement that emitted the
	// constraint, if compiled.
	Loc SourceLoc
	// Def is the signal a `<==` assignment defined with this constraint
	// (the compiler emits one constraint per <==), or 0 when the constraint
	// came from a pure === check or the origin is unknown. 0 is unambiguous
	// because the constant-one signal is never an assignment target. No
	// analysis reads it; it is kept because the text format and the
	// canonical digest carry it.
	Def int
}

// Quad returns the canonical expanded polynomial A·B − C, which is zero on
// exactly the satisfying assignments of the constraint.
func (c Constraint) Quad() *poly.Quad {
	return poly.MulLin(c.A, c.B).Sub(poly.QuadFromLin(c.C))
}

// Vars returns the set of signal IDs mentioned by the constraint (excluding
// the constant-one signal only if it does not appear), ascending.
func (c Constraint) Vars() []int { return poly.UnionVars(c.A, c.B, c.C) }

// IsLinear reports whether the constraint has an empty quadratic part
// (i.e. A or B is constant, or the product cancels).
func (c Constraint) IsLinear() bool {
	if c.A.IsConst() || c.B.IsConst() {
		return true
	}
	return c.Quad().IsLinear()
}

// String renders the constraint with x<i> variable names.
func (c Constraint) String() string {
	return fmt.Sprintf("(%s) * (%s) = (%s)", c.A, c.B, c.C)
}

// System is a complete rank-1 constraint system together with its signal
// table. Signal ID 0 is always the constant-one signal.
type System struct {
	field       *ff.Field
	signals     []Signal
	constraints []Constraint
	byName      map[string]int
	// adjacency caches, built lazily and invalidated by mutation
	sigToCons [][]int // signal → constraints mentioning it, excluding OneID
	consVars  [][]int // constraint → Constraint.Vars()
}

// NewSystem creates an empty system over the given field. The constant-one
// signal is pre-installed with ID 0.
func NewSystem(field *ff.Field) *System {
	s := &System{field: field, byName: map[string]int{}}
	s.signals = append(s.signals, Signal{ID: 0, Name: "one", Kind: KindOne})
	s.byName["one"] = 0
	return s
}

// Field returns the underlying field.
func (s *System) Field() *ff.Field { return s.field }

// OneID is the signal ID of the constant-one signal.
const OneID = 0

// AddSignal appends a new signal and returns its ID. Names must be unique;
// an empty name is auto-generated.
func (s *System) AddSignal(name string, kind SignalKind) int {
	if kind == KindOne {
		panic("r1cs: cannot add a second constant-one signal")
	}
	id := len(s.signals)
	if name == "" {
		name = fmt.Sprintf("_sig%d", id)
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("r1cs: duplicate signal name %q", name))
	}
	s.signals = append(s.signals, Signal{ID: id, Name: name, Kind: kind})
	s.byName[name] = id
	s.sigToCons, s.consVars = nil, nil
	return id
}

// AddConstraint appends ⟨a,s⟩·⟨b,s⟩ = ⟨c,s⟩.
func (s *System) AddConstraint(a, b, c *poly.LinComb, tag string) {
	for _, lc := range []*poly.LinComb{a, b, c} {
		if !lc.Field().SameField(s.field) {
			panic("r1cs: constraint over wrong field")
		}
		for _, v := range lc.Vars() {
			if v < 0 || v >= len(s.signals) {
				panic(fmt.Sprintf("r1cs: constraint references unknown signal %d", v))
			}
		}
	}
	s.constraints = append(s.constraints, Constraint{A: a, B: b, C: c, Tag: tag})
	s.sigToCons, s.consVars = nil, nil
}

// SetSignalLoc records the source location of a signal's declaration.
func (s *System) SetSignalLoc(id int, loc SourceLoc) {
	if id <= 0 || id >= len(s.signals) {
		panic(fmt.Sprintf("r1cs: SetSignalLoc on unknown signal %d", id))
	}
	s.signals[id].Loc = loc
}

// MarkHinted records that a signal was assigned with the witness-only `<--`
// operator.
func (s *System) MarkHinted(id int) {
	if id <= 0 || id >= len(s.signals) {
		panic(fmt.Sprintf("r1cs: MarkHinted on unknown signal %d", id))
	}
	s.signals[id].Hinted = true
}

// SetConstraintLoc records the source location of the i-th constraint.
func (s *System) SetConstraintLoc(i int, loc SourceLoc) {
	if i < 0 || i >= len(s.constraints) {
		panic(fmt.Sprintf("r1cs: SetConstraintLoc on unknown constraint %d", i))
	}
	s.constraints[i].Loc = loc
}

// SetConstraintDef records that the i-th constraint was emitted by a `<==`
// assignment defining signal def.
func (s *System) SetConstraintDef(i, def int) {
	if i < 0 || i >= len(s.constraints) {
		panic(fmt.Sprintf("r1cs: SetConstraintDef on unknown constraint %d", i))
	}
	if def <= 0 || def >= len(s.signals) {
		panic(fmt.Sprintf("r1cs: SetConstraintDef with unknown signal %d", def))
	}
	s.constraints[i].Def = def
}

// NumSignals returns the number of signals including the constant one.
func (s *System) NumSignals() int { return len(s.signals) }

// NumConstraints returns the number of constraints.
func (s *System) NumConstraints() int { return len(s.constraints) }

// Signal returns the signal with the given ID.
func (s *System) Signal(id int) Signal { return s.signals[id] }

// SignalByName looks a signal up by name.
func (s *System) SignalByName(name string) (Signal, bool) {
	id, ok := s.byName[name]
	if !ok {
		return Signal{}, false
	}
	return s.signals[id], true
}

// Signals returns a copy of the signal table.
func (s *System) Signals() []Signal {
	out := make([]Signal, len(s.signals))
	copy(out, s.signals)
	return out
}

// Constraint returns the i-th constraint.
func (s *System) Constraint(i int) Constraint { return s.constraints[i] }

// Constraints returns the constraint slice (callers must not mutate).
func (s *System) Constraints() []Constraint { return s.constraints }

// idsOfKind returns the IDs of all signals of kind k, ascending.
func (s *System) idsOfKind(k SignalKind) []int {
	var out []int
	for _, sig := range s.signals {
		if sig.Kind == k {
			out = append(out, sig.ID)
		}
	}
	return out
}

// Inputs returns the input signal IDs.
func (s *System) Inputs() []int { return s.idsOfKind(KindInput) }

// Outputs returns the output signal IDs.
func (s *System) Outputs() []int { return s.idsOfKind(KindOutput) }

// Internals returns the internal signal IDs.
func (s *System) Internals() []int { return s.idsOfKind(KindInternal) }

// Name returns a human-readable name for a signal ID, for diagnostics.
func (s *System) Name(id int) string {
	if id >= 0 && id < len(s.signals) {
		return s.signals[id].Name
	}
	return fmt.Sprintf("x%d", id)
}

// Stats summarizes a system for reporting.
type Stats struct {
	Signals     int
	Inputs      int
	Outputs     int
	Internals   int
	Constraints int
	Linear      int
	Nonlinear   int
}

// Stats computes summary statistics.
func (s *System) Stats() Stats {
	st := Stats{
		Signals:     len(s.signals),
		Inputs:      len(s.Inputs()),
		Outputs:     len(s.Outputs()),
		Internals:   len(s.Internals()),
		Constraints: len(s.constraints),
	}
	for i := range s.constraints {
		if s.constraints[i].IsLinear() {
			st.Linear++
		} else {
			st.Nonlinear++
		}
	}
	return st
}

// --- witnesses ---------------------------------------------------------------

// Witness is a full assignment to every signal, indexed by signal ID.
// Entry 0 must be 1. Values are ff.Element, so a witness is a single flat
// allocation and checking it is allocation-free.
type Witness []ff.Element

// NewWitness allocates a zeroed witness of the right length with the
// constant-one slot set.
func (s *System) NewWitness() Witness {
	w := make(Witness, len(s.signals))
	w[OneID] = s.field.One()
	return w
}

// Clone deep-copies a witness.
func (w Witness) Clone() Witness {
	out := make(Witness, len(w))
	copy(out, w)
	return out
}

// CheckWitness verifies that w satisfies every constraint, returning a
// descriptive error naming the first violated constraint.
func (s *System) CheckWitness(w Witness) error {
	if len(w) != len(s.signals) {
		return fmt.Errorf("r1cs: witness length %d, want %d", len(w), len(s.signals))
	}
	if !s.field.IsOne(w[OneID]) {
		return fmt.Errorf("r1cs: witness constant-one slot is %v", s.field.String(w[OneID]))
	}
	at := func(x int) ff.Element { return w[x] }
	for i := range s.constraints {
		c := &s.constraints[i]
		av := c.A.Eval(at)
		bv := c.B.Eval(at)
		cv := c.C.Eval(at)
		if s.field.Mul(av, bv) != cv {
			return &UnsatisfiedError{Index: i, Constraint: c, System: s}
		}
	}
	return nil
}

// UnsatisfiedError reports a violated constraint with provenance.
type UnsatisfiedError struct {
	Index      int
	Constraint *Constraint
	System     *System
}

// Error implements error.
func (e *UnsatisfiedError) Error() string {
	tag := e.Constraint.Tag
	if tag != "" {
		tag = " [" + tag + "]"
	}
	if !e.Constraint.Loc.IsZero() {
		tag += " at " + e.Constraint.Loc.String()
	}
	named := func(x int) string { return e.System.Name(x) }
	return fmt.Sprintf("r1cs: constraint #%d violated%s: (%s) * (%s) = (%s)",
		e.Index, tag,
		e.Constraint.A.StringNamed(named),
		e.Constraint.B.StringNamed(named),
		e.Constraint.C.StringNamed(named))
}

// AgreeOn reports whether two witnesses assign equal values to every signal
// in ids.
func AgreeOn(a, b Witness, ids []int) bool {
	for _, id := range ids {
		if a[id] != b[id] {
			return false
		}
	}
	return true
}

// FirstDifference returns the smallest signal ID in ids on which the two
// witnesses differ, or -1 if they agree on all of them.
func FirstDifference(a, b Witness, ids []int) int {
	for _, id := range ids {
		if a[id] != b[id] {
			return id
		}
	}
	return -1
}
