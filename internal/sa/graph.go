package sa

import "qed2/internal/r1cs"

// Graph is the undirected constraint graph of an R1CS, reduced to what the
// pass reads from it: its connected components (two signals are adjacent
// when some constraint mentions both) and which of them contain an input or
// an output. The constant-one signal is excluded, exactly as in the slicing
// adjacency, so components never merge through it.
type Graph struct {
	sys *r1cs.System
	// comp is the component label per signal (-1 for the constant-one
	// signal). Labels follow each component's smallest signal ID.
	comp []int
	// compHasInput / compHasOutput record per-component I/O membership.
	compHasInput  []bool
	compHasOutput []bool
	// NumComponents counts components over non-constant signals.
	NumComponents int
}

// BuildGraph labels the connected components of a system from its cached
// signal → constraint adjacency (r1cs.System.ConstraintsOf).
func BuildGraph(sys *r1cs.System) *Graph {
	nSig := sys.NumSignals()
	// Union-find whose root is always the set's smallest member, so the
	// labelling pass below can number components in ascending root order.
	parent := make([]int, nSig)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// first[ci] is the first signal met on constraint ci, and every later
	// signal of ci joins its set. 0 means "none yet": the constant-one
	// signal never appears in the adjacency.
	first := make([]int, sys.NumConstraints())
	for id := 1; id < nSig; id++ {
		for _, ci := range sys.ConstraintsOf(id) {
			if first[ci] == 0 {
				first[ci] = id
				continue
			}
			ra, rb := find(first[ci]), find(id)
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	g := &Graph{sys: sys, comp: make([]int, nSig)}
	g.comp[r1cs.OneID] = -1
	for id := 1; id < nSig; id++ {
		if r := find(id); r != id {
			g.comp[id] = g.comp[r]
			continue
		}
		g.comp[id] = g.NumComponents
		g.NumComponents++
	}
	g.compHasInput = make([]bool, g.NumComponents)
	g.compHasOutput = make([]bool, g.NumComponents)
	for id := 1; id < nSig; id++ {
		switch sys.Signal(id).Kind {
		case r1cs.KindInput:
			g.compHasInput[g.comp[id]] = true
		case r1cs.KindOutput:
			g.compHasOutput[g.comp[id]] = true
		}
	}
	return g
}

// ComponentOf returns the component label of a signal.
func (g *Graph) ComponentOf(id int) int { return g.comp[id] }

// ComponentHasInput reports whether a signal's component contains at least
// one input signal.
func (g *Graph) ComponentHasInput(id int) bool {
	c := g.comp[id]
	return c >= 0 && g.compHasInput[c]
}

// SignalsWithoutOutputComponent returns, ascending, every non-constant
// signal living in a component that contains no output. Uniqueness facts
// cannot cross components (propagation and slicing are both
// component-local), so slice queries for these signals cannot influence
// any output verdict and are sound to skip.
func (g *Graph) SignalsWithoutOutputComponent() []int {
	var out []int
	for id := 1; id < g.sys.NumSignals(); id++ {
		if c := g.comp[id]; c >= 0 && !g.compHasOutput[c] {
			out = append(out, id)
		}
	}
	return out
}
