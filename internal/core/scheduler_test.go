package core

import (
	"bytes"
	"encoding/json"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"qed2/internal/faultinject"
	"qed2/internal/ff"
	"qed2/internal/obs"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
	"qed2/internal/smt"
)

// sliceQueriesByRound runs the analysis with a JSONL trace and lists the target
// signal of every slice query in each round, in dispatch order; final-stage
// queries are left out. Workers is forced to 1 so the trace is sequential.
func sliceQueriesByRound(t *testing.T, sys *r1cs.System, cfg Config) (*Report, [][]int) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.New(&buf)
	cfg.Obs, cfg.Workers = tr, 1
	r := Analyze(sys, &cfg)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var rounds [][]int
	inRound := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l struct {
			Ev   string `json:"ev"`
			Name string `json:"name"`
			Sig  int    `json:"sig"`
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch {
		case l.Name == "core.round":
			inRound = l.Ev == "span_start"
			if inRound {
				rounds = append(rounds, nil)
			}
		case l.Name == "core.query" && l.Ev == "span_start" && inRound:
			rounds[len(rounds)-1] = append(rounds[len(rounds)-1], l.Sig)
		}
	}
	return r, rounds
}

// count reports how often v occurs across the rounds.
func count(rounds [][]int, v int) int {
	n := 0
	for _, r := range rounds {
		for _, s := range r {
			if s == v {
				n++
			}
		}
	}
	return n
}

// isZeroPlusSquare is IsZero over F_97 (out becomes unique via SMT in round
// one, forcing a second round) plus a disconnected x² = c component, whose
// slice gains no unique signal after round one.
func isZeroPlusSquare() (sys *r1cs.System, out, x, inv int) {
	f97 := ff.MustField(big.NewInt(97))
	sys = r1cs.NewSystem(f97)
	in := sys.AddSignal("in", r1cs.KindInput)
	c := sys.AddSignal("c", r1cs.KindInput)
	out = sys.AddSignal("out", r1cs.KindOutput)
	x = sys.AddSignal("x", r1cs.KindOutput)
	inv = sys.AddSignal("inv", r1cs.KindInternal)
	// in·inv = 1 − out ; in·out = 0 ; x·x = c
	sys.AddConstraint(poly.Var(f97, in), poly.Var(f97, inv),
		poly.ConstInt(f97, 1).AddTerm(out, f97.NewElement(-1)), "")
	sys.AddConstraint(poly.Var(f97, in), poly.Var(f97, out), poly.NewLinComb(f97), "")
	sys.AddConstraint(poly.Var(f97, x), poly.Var(f97, x), poly.Var(f97, c), "")
	return sys, out, x, inv
}

// TestStaleSliceSolvedOnce pins the staleness check: x's slice query is
// settled (SAT) in round one and no signal of its slice becomes unique
// afterwards, so round two does not ask it again, while inv, whose slice
// gained out, is re-asked.
func TestStaleSliceSolvedOnce(t *testing.T) {
	sys, out, x, inv := isZeroPlusSquare()
	r, rounds := sliceQueriesByRound(t, sys, Config{Seed: 1})
	// x is genuinely non-unique (x and −x share c = x²).
	if r.Verdict != VerdictUnsafe || r.Counter == nil || r.Counter.Signal != x {
		t.Fatalf("verdict = %v (%s), counter = %+v", r.Verdict, r.Reason, r.Counter)
	}
	want := [][]int{{out, x, inv}, {inv}}
	if !reflect.DeepEqual(rounds, want) {
		t.Fatalf("slice queries by round = %v, want %v", rounds, want)
	}
}

// TestUnsettledSliceIsRequeried: an outcome that is resource-limited or
// quarantined says nothing about the problem, so its slice is asked again
// in the next round although no signal of it became unique.
func TestUnsettledSliceIsRequeried(t *testing.T) {
	limited := smt.Outcome{Status: smt.StatusUnknown, Reason: "step budget exhausted", ResourceLimited: true}
	for _, tc := range []struct {
		name string
		out  smt.Outcome
		want bool
	}{
		{"sat", smt.Outcome{Status: smt.StatusSat}, true},
		{"unsat", smt.Outcome{Status: smt.StatusUnsat}, true},
		{"resource-limited unknown", limited, false},
		{"deterministic unknown", smt.Outcome{Status: smt.StatusUnknown, Reason: "incomplete enumeration"}, true},
		{"quarantined unknown", smt.Outcome{Status: smt.StatusUnknown, Reason: "internal error: recovered panic"}, false},
		// A solver self-check failure is deterministic for the query
		// (whose seed derives from the target), not a quarantine product.
		{"solver self-check unknown", smt.Outcome{Status: smt.StatusUnknown, Reason: "internal: model check failed"}, true},
	} {
		if got := settled(tc.out); got != tc.want {
			t.Errorf("settled(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}

	t.Run("resource-limited", func(t *testing.T) {
		// o⁵ = a over F_4093 as a chain (o·o = t₁, t₁·o = t₂, …, t₃·o = a)
		// beside IsZero: out's query needs a few steps, o's far more than
		// the 100 granted, and nothing in the chain ever becomes unique.
		f := ff.MustField(big.NewInt(4093))
		sys := r1cs.NewSystem(f)
		in := sys.AddSignal("in", r1cs.KindInput)
		a := sys.AddSignal("a", r1cs.KindInput)
		out := sys.AddSignal("out", r1cs.KindOutput)
		o := sys.AddSignal("o", r1cs.KindOutput)
		inv := sys.AddSignal("inv", r1cs.KindInternal)
		sys.AddConstraint(poly.Var(f, in), poly.Var(f, inv),
			poly.ConstInt(f, 1).AddTerm(out, f.NewElement(-1)), "")
		sys.AddConstraint(poly.Var(f, in), poly.Var(f, out), poly.NewLinComb(f), "")
		prev := o
		for i := 1; i < 5; i++ {
			next := a
			if i < 4 {
				next = sys.AddSignal("", r1cs.KindInternal)
			}
			sys.AddConstraint(poly.Var(f, prev), poly.Var(f, o), poly.Var(f, next), "")
			prev = next
		}
		_, rounds := sliceQueriesByRound(t, sys, Config{Seed: 1, QuerySteps: 100})
		if len(rounds) < 2 || count(rounds[:1], out) != 1 || count(rounds[1:2], o) != 1 {
			t.Fatalf("slice queries by round = %v, want o (%d) re-asked in round 2 after out (%d) was proven in round 1", rounds, o, out)
		}
	})

	t.Run("quarantined", func(t *testing.T) {
		// Every second query attempt panics: in round one x's query and its
		// retry (attempts 2 and 4), so x ends quarantined.
		faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
			{Site: "core.query", Kind: faultinject.KindPanic, Every: 2},
		}})
		defer faultinject.Disable()
		sys, out, x, inv := isZeroPlusSquare()
		r, rounds := sliceQueriesByRound(t, sys, Config{Seed: 1})
		if r.Stats.QueryPanics == 0 {
			t.Fatal("no query panicked: the test premise is broken")
		}
		want := [][]int{{out, x, inv, x}, {x, inv, inv}}
		if !reflect.DeepEqual(rounds, want) {
			t.Fatalf("slice queries by round = %v, want %v (x re-asked in round 2)", rounds, want)
		}
	})
}

// TestIsomorphicDisjointSlices: two structurally identical gadgets over
// disjoint signal ranges are separate queries — staleness is tracked per
// target signal — and the counterexample is valid on its own signal range.
func TestIsomorphicDisjointSlices(t *testing.T) {
	f97 := ff.MustField(big.NewInt(97))
	sys := r1cs.NewSystem(f97)
	c := sys.AddSignal("c", r1cs.KindInput)
	d := sys.AddSignal("d", r1cs.KindInput)
	x := sys.AddSignal("x", r1cs.KindOutput)
	y := sys.AddSignal("y", r1cs.KindOutput)
	// Two disjoint, structurally identical gadgets: x² = c and y² = d.
	sys.AddConstraint(poly.Var(f97, x), poly.Var(f97, x), poly.Var(f97, c), "")
	sys.AddConstraint(poly.Var(f97, y), poly.Var(f97, y), poly.Var(f97, d), "")

	// The full analysis must flag the square gadgets (x and −x share c=x²)
	// with a counterexample that is valid on its own signal range.
	r, rounds := sliceQueriesByRound(t, sys, Config{Seed: 1})
	if len(rounds) == 0 || count(rounds[:1], x) != 1 || count(rounds[:1], y) != 1 {
		t.Fatalf("slice queries by round = %v, want both x and y asked in round 1", rounds)
	}
	if r.Verdict != VerdictUnsafe || r.Counter == nil {
		t.Fatalf("verdict = %v (%s)", r.Verdict, r.Reason)
	}
	if err := sys.CheckWitness(r.Counter.W1); err != nil {
		t.Errorf("W1 invalid: %v", err)
	}
	if err := sys.CheckWitness(r.Counter.W2); err != nil {
		t.Errorf("W2 invalid: %v", err)
	}
	if r.Counter.W1[r.Counter.Signal] == r.Counter.W2[r.Counter.Signal] {
		t.Error("counterexample witnesses agree on the flagged signal")
	}
}
