package bench

import (
	"reflect"
	"testing"

	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/r1cs"
)

// TestBinaryDifferentialSuite is the whole-suite differential gate for the
// binary .r1cs reader: every suite instance is compiled once, then analyzed
// both as the compiled system and as its binary+sym round trip
// (MarshalBinary/MarshalSym → ParseBinaryWithSym). The binary format drops
// source locations, constraint tags, and def attribution, so this run pins
// the design claim that those are presentation metadata only: verdicts,
// reasons, and counterexample summaries (output name, witnessed values,
// full differing-signal set) must be byte-identical instance by instance.
func TestBinaryDifferentialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential run skipped with -short")
	}
	insts := Suite()
	binInsts := make([]Instance, len(insts))
	for i, in := range insts {
		orig := in
		in.Gen = func() (*circom.Program, error) {
			prog, err := orig.Compile()
			if err != nil {
				return nil, err
			}
			sys, err := r1cs.ParseBinaryWithSym(prog.System.MarshalBinary(), prog.System.MarshalSym())
			if err != nil {
				return nil, err
			}
			return circom.ProgramFromSystem(sys, prog.MainTemplate), nil
		}
		binInsts[i] = in
	}
	cfg := core.Config{QuerySteps: 20_000, GlobalSteps: 400_000, Seed: 1, Workers: 1}
	direct := Run(insts, &RunOptions{Config: cfg})
	viaBinary := Run(binInsts, &RunOptions{Config: cfg})

	for i := range direct {
		a, b := direct[i], viaBinary[i]
		name := a.Instance.Name
		if (a.CompileErr == nil) != (b.CompileErr == nil) {
			t.Errorf("%s: compile outcome differs: %v vs %v", name, a.CompileErr, b.CompileErr)
			continue
		}
		if a.CompileErr != nil {
			continue
		}
		sa, sb := a.Summary, b.Summary
		if sa.Verdict != sb.Verdict || sa.Reason != sb.Reason {
			t.Errorf("%s: verdict differs: direct (%v, %q), via binary (%v, %q)",
				name, sa.Verdict, sa.Reason, sb.Verdict, sb.Reason)
		}
		if sa.CEOutput != sb.CEOutput || sa.CEValues != sb.CEValues || !reflect.DeepEqual(sa.CESignals, sb.CESignals) {
			t.Errorf("%s: counterexample summary differs:\ndirect     %s=%v %v\nvia binary %s=%v %v",
				name, sa.CEOutput, sa.CEValues, sa.CESignals, sb.CEOutput, sb.CEValues, sb.CESignals)
		}
	}
}

// TestBinaryRoundTripSuiteStructure is the cheap (short-mode) half of the
// differential gate: for every suite instance the binary+sym round trip
// must reproduce the exact signal table — IDs, names, kinds, hint flags —
// and constraint count, which is what makes the analysis inputs identical.
func TestBinaryRoundTripSuiteStructure(t *testing.T) {
	for _, in := range Suite() {
		prog, err := in.Compile()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		sys := prog.System
		got, err := r1cs.ParseBinaryWithSym(sys.MarshalBinary(), sys.MarshalSym())
		if err != nil {
			t.Fatalf("%s: binary round trip: %v", in.Name, err)
		}
		if got.NumSignals() != sys.NumSignals() || got.NumConstraints() != sys.NumConstraints() {
			t.Errorf("%s: shape changed: %d/%d signals, %d/%d constraints", in.Name,
				got.NumSignals(), sys.NumSignals(), got.NumConstraints(), sys.NumConstraints())
			continue
		}
		for id := 0; id < sys.NumSignals(); id++ {
			want, g := sys.Signal(id), got.Signal(id)
			if want.Name != g.Name || want.Kind != g.Kind || want.Hinted != g.Hinted {
				t.Errorf("%s: signal %d changed: got (%s,%s,hint=%v), want (%s,%s,hint=%v)",
					in.Name, id, g.Name, g.Kind, g.Hinted, want.Name, want.Kind, want.Hinted)
				break
			}
		}
	}
}
