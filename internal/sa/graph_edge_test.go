package sa

import (
	"math/big"
	"testing"

	"qed2/internal/ff"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
)

var fldEdge = ff.MustField(big.NewInt(97))

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// A self-referential constraint (a·a = a, the signal on all three sides)
// makes a one-signal component that belongs to the output.
func TestGraphSelfReferentialConstraint(t *testing.T) {
	f := fldEdge
	s := r1cs.NewSystem(f)
	a := s.AddSignal("a", r1cs.KindOutput)
	s.AddConstraint(poly.Var(f, a), poly.Var(f, a), poly.Var(f, a), "self")
	g := BuildGraph(s)

	if g.NumComponents != 1 {
		t.Fatalf("NumComponents = %d, want 1", g.NumComponents)
	}
	if g.ComponentOf(a) != 0 {
		t.Errorf("ComponentOf(a) = %d", g.ComponentOf(a))
	}
	if n := len(s.ConstraintsOf(a)); n != 1 {
		t.Errorf("ConstraintsOf(a) has %d entries, want 1", n)
	}
	if skip := g.SignalsWithoutOutputComponent(); len(skip) != 0 {
		t.Errorf("output's own component marked skippable: %v", skip)
	}
}

// A self-referential constraint carrying <== definition metadata (the
// defined signal is also a source): the graph ignores the metadata, and the
// lone output-free component is prunable.
func TestGraphSelfReferentialDef(t *testing.T) {
	f := fldEdge
	s := r1cs.NewSystem(f)
	a := s.AddSignal("a", r1cs.KindInternal)
	s.AddConstraint(poly.Var(f, a), poly.Var(f, a), poly.Var(f, a), "selfdef")
	s.SetConstraintDef(0, a)
	g := BuildGraph(s)

	if g.NumComponents != 1 || g.ComponentOf(a) != 0 {
		t.Fatalf("NumComponents = %d, ComponentOf(a) = %d; want 1, 0", g.NumComponents, g.ComponentOf(a))
	}
	if skip := g.SignalsWithoutOutputComponent(); !containsInt(skip, a) {
		t.Errorf("a missing from SignalsWithoutOutputComponent: %v", skip)
	}
}

// Signals that appear in no constraint at all still get a component label
// — and never an input/output attribution they don't have.
func TestGraphUnconstrainedSignals(t *testing.T) {
	f := fldEdge
	s := r1cs.NewSystem(f)
	in := s.AddSignal("in", r1cs.KindInput)
	out := s.AddSignal("out", r1cs.KindOutput)
	ghost := s.AddSignal("ghost", r1cs.KindInternal)
	lonely := s.AddSignal("lonely", r1cs.KindInput)
	s.AddConstraint(poly.Var(f, in), poly.Var(f, in), poly.Var(f, out), "sq")
	g := BuildGraph(s)

	// {in,out} plus two singleton islands.
	if g.NumComponents != 3 {
		t.Fatalf("NumComponents = %d, want 3", g.NumComponents)
	}
	if g.ComponentOf(ghost) == g.ComponentOf(in) || g.ComponentOf(ghost) == g.ComponentOf(lonely) {
		t.Errorf("ghost shares a component: ghost=%d in=%d lonely=%d",
			g.ComponentOf(ghost), g.ComponentOf(in), g.ComponentOf(lonely))
	}
	if len(s.ConstraintsOf(ghost)) != 0 || len(s.ConstraintsOf(lonely)) != 0 {
		t.Errorf("unconstrained signals report constraints: ghost=%v lonely=%v",
			s.ConstraintsOf(ghost), s.ConstraintsOf(lonely))
	}
	if !g.ComponentHasInput(lonely) {
		t.Error("lonely is itself an input; its component has an input")
	}
	if g.ComponentHasInput(ghost) {
		t.Error("ghost's singleton component has no input")
	}
	skip := g.SignalsWithoutOutputComponent()
	if !containsInt(skip, ghost) || !containsInt(skip, lonely) {
		t.Errorf("islands missing from SignalsWithoutOutputComponent: %v", skip)
	}
	if containsInt(skip, in) || containsInt(skip, out) {
		t.Errorf("output component wrongly skippable: %v", skip)
	}
}

// A constraint touching one signal and the constant wire (x·x = 1) forms a
// single-signal component; the constant-one signal stays outside every
// component.
func TestGraphSingleSignalComponent(t *testing.T) {
	f := fldEdge
	s := r1cs.NewSystem(f)
	x := s.AddSignal("x", r1cs.KindInternal)
	s.AddConstraint(poly.Var(f, x), poly.Var(f, x), poly.ConstInt(f, 1), "unit")
	g := BuildGraph(s)

	if g.NumComponents != 1 {
		t.Fatalf("NumComponents = %d, want 1", g.NumComponents)
	}
	if g.ComponentOf(r1cs.OneID) != -1 {
		t.Errorf("ComponentOf(one) = %d, want -1", g.ComponentOf(r1cs.OneID))
	}
	if g.ComponentOf(x) != 0 {
		t.Errorf("ComponentOf(x) = %d, want 0", g.ComponentOf(x))
	}
}

// An empty system (constant wire only) must build without panicking and
// report zero of everything.
func TestGraphEmptySystem(t *testing.T) {
	s := r1cs.NewSystem(fldEdge)
	g := BuildGraph(s)
	if g.NumComponents != 0 {
		t.Errorf("empty system: components=%d", g.NumComponents)
	}
	if len(g.SignalsWithoutOutputComponent()) != 0 {
		t.Error("empty system reports skippable signals")
	}
}
