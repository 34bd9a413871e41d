package sa_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qed2/internal/ff"
	"qed2/internal/r1cs"
	"qed2/internal/sa"
)

// The small-field oracle checks -lint's facts against brute force. Systems
// are written in the r1cs text format and enumerated by solveAll, which uses
// nothing but ff arithmetic and r1cs's own constraint evaluation, so the
// oracle shares no code with the abstract interpreter.

// oracleField is one field of the oracle with its size bound: systems over
// it have at most maxSignals signals besides the constant one.
type oracleField struct {
	p          int64
	maxSignals int
	systems    int
}

var oracleFields = []oracleField{
	{p: 5, maxSignals: 5, systems: 400},
	{p: 7, maxSignals: 5, systems: 400},
	{p: 97, maxSignals: 3, systems: 100},
}

// randomOracleSystem writes a seeded random system over F_p with n signals
// (signal 1 an input, the rest outputs or internals). Its constraints mix
// the shapes the interpreter's rules look for — boolean, constant, inverse
// pair, product and bit sum — with random linear and quadratic ones.
func randomOracleSystem(rng *rand.Rand, p int64, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "r1cs v1\nprime %d\nsignal 0 one one\n", p)
	for id := 1; id <= n; id++ {
		kind := "internal"
		switch {
		case id == 1:
			kind = "input"
		case rng.Intn(3) == 0:
			kind = "output"
		}
		fmt.Fprintf(&b, "signal %d %s s%d\n", id, kind, id)
	}
	sig := func() int { return 1 + rng.Intn(n) }
	elt := func() int64 { return rng.Int63n(p) }
	nonzero := func() int64 { return 1 + rng.Int63n(p-1) }
	mod := func(v int64) int64 { return ((v % p) + p) % p }
	// lc renders konst + Σ coeff·var; pairs alternates var, coeff.
	lc := func(konst int64, pairs ...int64) string {
		terms := make([]string, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			terms = append(terms, fmt.Sprintf("%d:%d", pairs[i], mod(pairs[i+1])))
		}
		return fmt.Sprintf("[%d|%s]", mod(konst), strings.Join(terms, ","))
	}
	randLC := func() string {
		var pairs []int64
		for v := 1; v <= n; v++ {
			if rng.Intn(3) == 0 {
				pairs = append(pairs, int64(v), elt())
			}
		}
		return lc(elt(), pairs...)
	}
	constraint := func(a, bb, c string) { fmt.Fprintf(&b, "constraint %s %s %s\n", a, bb, c) }
	boolean := func(x int) { constraint(lc(0, int64(x), nonzero()), lc(-1, int64(x), 1), lc(0)) }
	for k := 1 + rng.Intn(n+1); k > 0; k-- {
		switch rng.Intn(7) {
		case 0: // x·(x − 1) = 0, scaled
			boolean(sig())
		case 1: // k·x = c
			constraint(lc(0, int64(sig()), nonzero()), lc(1), lc(elt()))
		case 2: // x·inv = c ≠ 0
			constraint(lc(0, int64(sig()), 1), lc(0, int64(sig()), 1), lc(nonzero()))
		case 3: // z = x·y
			constraint(lc(0, int64(sig()), 1), lc(0, int64(sig()), 1), lc(0, int64(sig()), 1))
		case 4: // Σ 2^i·b_i + c = s, every b_i boolean
			s := sig()
			pairs := []int64{int64(s), -1}
			w := int64(1)
			for i := rng.Intn(3); i >= 0; i-- {
				bit := sig()
				if bit == s {
					continue
				}
				boolean(bit)
				pairs = append(pairs, int64(bit), w)
				w *= 2
			}
			constraint(lc(1), lc(elt(), pairs...), lc(0))
		case 5: // a random linear constraint
			constraint(lc(1), randLC(), lc(0))
		default: // a random quadratic constraint
			constraint(randLC(), randLC(), randLC())
		}
	}
	return b.String()
}

// solveAll calls visit on every satisfying assignment of sys. It assigns
// the signals in ID order and checks each constraint as soon as its highest
// signal has a value, so an unsatisfiable prefix is cut off early.
func solveAll(sys *r1cs.System, visit func(r1cs.Witness)) {
	f := sys.Field()
	p := f.Modulus().Int64()
	n := sys.NumSignals()
	// due[k] lists the constraints whose highest signal is k.
	due := make([][]r1cs.Constraint, n)
	for _, c := range sys.Constraints() {
		top := 0
		for _, v := range c.Vars() {
			top = max(top, v)
		}
		due[top] = append(due[top], c)
	}
	w := sys.NewWitness()
	at := func(x int) ff.Element { return w[x] }
	holds := func(k int) bool {
		for _, c := range due[k] {
			if f.Mul(c.A.Eval(at), c.B.Eval(at)) != c.C.Eval(at) {
				return false
			}
		}
		return true
	}
	var assign func(k int)
	assign = func(k int) {
		if k == n {
			visit(w)
			return
		}
		for v := int64(0); v < p; v++ {
			w[k] = f.NewElement(v)
			if holds(k) {
				assign(k + 1)
			}
		}
	}
	if holds(r1cs.OneID) {
		assign(1)
	}
}

// TestLintFactsSmallFieldOracle enumerates every assignment of seeded
// random systems over F_5, F_7 and F_97 and checks -lint's facts against
// the solutions: every const, bool and nonzero fact, and every derived
// range, holds on every solution; a recorded conflict means there is no
// solution, and an unsatisfiable system whose signals are all pinned has
// one; Verify passes on every satisfiable system. Each fact kind has a
// floor, so the oracle cannot pass by deriving nothing.
func TestLintFactsSmallFieldOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20231))
	var consts, bools, nonzeros, ranges, conflicts, pinned, satisfiable int
	for _, of := range oracleFields {
		for i := 0; i < of.systems; i++ {
			text := randomOracleSystem(rng, of.p, 1+rng.Intn(of.maxSignals))
			sys, err := r1cs.ParseString(text)
			if err != nil {
				t.Fatalf("generated system does not parse: %v\n%s", err, text)
			}
			f := sys.Field()
			st := sa.Interpret(sys)
			solutions := 0
			solveAll(sys, func(w r1cs.Witness) {
				solutions++
				for id := 1; id < sys.NumSignals(); id++ {
					v := w[id]
					if c, ok := st.Const(id); ok && c != v {
						t.Fatalf("F_%d: %s = %s on a solution, but const fact says %s\n%s", of.p, sys.Name(id), f.String(v), f.String(c), text)
					}
					if st.Bool(id) && !v.IsZero() && !f.IsOne(v) {
						t.Fatalf("F_%d: %s = %s on a solution, but it is proven boolean\n%s", of.p, sys.Name(id), f.String(v), text)
					}
					if st.Nonzero(id) && v.IsZero() {
						t.Fatalf("F_%d: %s = 0 on a solution, but it is proven nonzero\n%s", of.p, sys.Name(id), text)
					}
					if iv := st.Interval(id); iv != nil && !iv.Contains(f.Signed(v)) {
						t.Fatalf("F_%d: %s = %v on a solution, outside its range %s\n%s", of.p, sys.Name(id), f.Signed(v), iv, text)
					}
				}
			})
			if len(st.Conflicts()) > 0 {
				if solutions > 0 {
					t.Fatalf("F_%d: conflict %q recorded on a system with %d solutions\n%s", of.p, st.Conflicts()[0].Msg, solutions, text)
				}
				conflicts++
			}
			if solutions == 0 {
				// With every signal pinned, some constraint reduces to a
				// nonzero constant, and that is a conflict.
				if st.NumConst() == sys.NumSignals()-1 {
					if len(st.Conflicts()) == 0 {
						t.Fatalf("F_%d: every signal is pinned and there is no solution, but no conflict was recorded\n%s", of.p, text)
					}
					pinned++
				}
				continue
			}
			satisfiable++
			if err := st.Verify(); err != nil {
				t.Fatalf("F_%d: Verify failed on a system with %d solutions: %v\n%s", of.p, solutions, err, text)
			}
			for id := 1; id < sys.NumSignals(); id++ {
				if _, ok := st.Const(id); ok {
					consts++
				}
				if st.Bool(id) {
					bools++
				}
				if st.Nonzero(id) {
					nonzeros++
				}
				if st.Interval(id) != nil {
					ranges++
				}
			}
		}
	}
	t.Logf("%d satisfiable systems: %d const, %d bool, %d nonzero and %d range facts; %d systems with a conflict, %d of them fully pinned",
		satisfiable, consts, bools, nonzeros, ranges, conflicts, pinned)
	for _, floor := range []struct {
		what     string
		got, min int
	}{
		{"satisfiable systems", satisfiable, 400},
		{"const facts", consts, 200},
		{"bool facts", bools, 150},
		{"nonzero facts", nonzeros, 250},
		{"range facts", ranges, 350},
		{"systems with a conflict", conflicts, 200},
		{"unsatisfiable fully pinned systems", pinned, 50},
	} {
		if floor.got < floor.min {
			t.Errorf("only %d %s, want at least %d", floor.got, floor.what, floor.min)
		}
	}
}
