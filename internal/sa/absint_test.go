package sa

import (
	"strings"
	"testing"
)

// Without the nonzero-sum constraint (bare Decoder shape: the sum flows into
// a free signal) the rule must not fire: all-zero and one-hot assignments
// both satisfy the guards.
func TestOneHotRequiresPinnedSum(t *testing.T) {
	prog := compile(t, `
pragma circom 2.0.0;
template Dec() {
    signal input sel;
    signal output out[3];
    signal output success;
    var lc = 0;
    for (var i = 0; i < 3; i++) {
        out[i] <-- (sel == i) ? 1 : 0;
        out[i] * (sel - i) === 0;
        lc += out[i];
    }
    lc ==> success;
    success * (success - 1) === 0;
}
component main = Dec();
`)
	sys := prog.System
	st := Interpret(sys)
	for id := 1; id < sys.NumSignals(); id++ {
		if strings.Contains(sys.Name(id), "out[") && st.Determined(id) {
			t.Errorf("%s must not be determined without a pinned sum", sys.Name(id))
		}
	}
}

// Duplicate guard constants break the pairwise-distinctness precondition:
// two summands guarded against the same selector value can trade their
// values freely.
func TestOneHotRequiresDistinctGuards(t *testing.T) {
	prog := compile(t, `
pragma circom 2.0.0;
template Dup() {
    signal input sel;
    signal output a;
    signal output b;
    a <-- 1;
    b <-- 0;
    a * (sel - 1) === 0;
    b * (sel - 1) === 0;
    a + b === 1;
}
component main = Dup();
`)
	sys := prog.System
	st := Interpret(sys)
	seen := 0
	for id := 1; id < sys.NumSignals(); id++ {
		name := sys.Name(id)
		if name != "a" && name != "b" {
			continue
		}
		seen++
		if st.Determined(id) {
			t.Errorf("%s must not be determined under duplicate guards", name)
		}
	}
	if seen != 2 {
		t.Fatalf("matched %d signals, want 2", seen)
	}
}

// Booleanness constraints are self-guards (s·(s−1) = 0 guards s against
// itself) and must not feed the one-hot rule: a sum of two free bits
// equalling 1 does not determine either bit.
func TestOneHotIgnoresSelfGuards(t *testing.T) {
	prog := compile(t, `
pragma circom 2.0.0;
template Bits() {
    signal input x;
    signal output a;
    signal output b;
    a <-- x;
    b <-- 1 - x;
    a * (a - 1) === 0;
    b * (b - 1) === 0;
    a + b === 1;
}
component main = Bits();
`)
	sys := prog.System
	st := Interpret(sys)
	seen := 0
	for id := 1; id < sys.NumSignals(); id++ {
		name := sys.Name(id)
		if name != "a" && name != "b" {
			continue
		}
		seen++
		if st.Determined(id) {
			t.Errorf("%s must not be determined from self-guards", name)
		}
	}
	if seen != 2 {
		t.Fatalf("matched %d signals, want 2", seen)
	}
}

// TestApplyConstsNoReallocation pins the satellite fix: a rescan that finds
// nothing to substitute returns the original residual pointer and performs
// no allocation.
func TestApplyConstsNoReallocation(t *testing.T) {
	prog := compile(t, `
pragma circom 2.0.0;
template Mul() {
    signal input a;
    signal input b;
    signal output c;
    c <== a * b;
}
component main = Mul();
`)
	sys := prog.System
	st := Interpret(sys)
	for ci := range st.residual {
		before := st.applyConsts(ci)
		// Force a rescan: pretend a constant fact arrived. The residual has
		// no constant variables, so the scan must fall through to the
		// original pointer.
		st.scanGen[ci] = st.constGen - 1
		if after := st.applyConsts(ci); after != before {
			t.Fatalf("constraint %d: rescan replaced the residual pointer", ci)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for ci := range st.residual {
			st.scanGen[ci] = st.constGen - 1
			st.applyConsts(ci)
		}
	})
	if allocs != 0 {
		t.Errorf("applyConsts allocates %.1f objects per no-op rescan, want 0", allocs)
	}
}

// A constraint contradicting an established range surfaces as a conflict and
// fails Verify (core must drop every hint rather than act on an unsat claim).
func TestRangeConflictFailsVerify(t *testing.T) {
	prog := compile(t, `
pragma circom 2.0.0;
template Bad() {
    signal input x;
    signal output b;
    b <-- 1;
    b * (b - 1) === 0;
    b === 5;
}
component main = Bad();
`)
	sys := prog.System
	st := Interpret(sys)
	if len(st.Conflicts()) == 0 {
		t.Fatal("no conflict recorded for b ∈ {0,1} ∧ b = 5")
	}
	if err := st.Verify(); err == nil {
		t.Error("Verify must fail when a conflict was recorded")
	}
}
