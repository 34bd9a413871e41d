package r1cs

import "sort"

// buildAdjacency constructs the signal → constraint-indices index.
// The constant-one signal is deliberately excluded from adjacency: it occurs
// in nearly every constraint and would otherwise collapse all slices into
// the whole circuit.
func (s *System) buildAdjacency() {
	if s.sigToCons != nil {
		return
	}
	adj := make([][]int, len(s.signals))
	for ci := range s.constraints {
		for _, v := range s.constraints[ci].Vars() {
			if v == OneID {
				continue
			}
			adj[v] = append(adj[v], ci)
		}
	}
	s.sigToCons = adj
}

// ConstraintsOf returns the indices of constraints mentioning signal id
// (excluding occurrences of the constant-one signal).
func (s *System) ConstraintsOf(id int) []int {
	s.buildAdjacency()
	return s.sigToCons[id]
}

// PrepareConcurrent eagerly builds the lazy adjacency index so that the
// read-only graph operations (SliceAround, ConstraintsOf) are safe to call
// from multiple goroutines. Callers that slice concurrently must invoke it
// once, before spawning workers, and must not mutate the system while
// workers run.
func (s *System) PrepareConcurrent() { s.buildAdjacency() }

// Slice is a connected fragment of the system used for local uniqueness
// queries: the constraints within a bounded graph distance of a target
// signal, together with the signals they mention.
type Slice struct {
	// Target is the signal the slice was grown around.
	Target int
	// Constraints holds indices into the parent system, ascending.
	Constraints []int
	// Signals holds the IDs of all signals mentioned by those constraints
	// (including the constant-one signal if it occurs), ascending.
	Signals []int
}

// SliceAround grows a slice of the constraint–signal graph around the target
// signal. Radius 1 takes the constraints directly mentioning the target;
// radius k+1 additionally takes all constraints sharing a signal with the
// radius-k slice. maxConstraints (if > 0) caps growth: expansion stops
// before exceeding the cap, always keeping at least the radius-1 core.
func (s *System) SliceAround(target, radius, maxConstraints int) Slice {
	s.buildAdjacency()
	inCons := map[int]bool{}
	inSig := map[int]bool{target: true}
	frontier := []int{target}
	total := 0
	for r := 0; r < radius && len(frontier) > 0; r++ {
		var added []int
		for _, sig := range frontier {
			for _, ci := range s.sigToCons[sig] {
				if inCons[ci] {
					continue
				}
				if maxConstraints > 0 && total >= maxConstraints && r > 0 {
					continue
				}
				inCons[ci] = true
				total++
				added = append(added, ci)
			}
		}
		frontier = frontier[:0]
		for _, ci := range added {
			for _, v := range s.constraints[ci].Vars() {
				if v == OneID {
					continue
				}
				if !inSig[v] {
					inSig[v] = true
					frontier = append(frontier, v)
				}
			}
		}
	}
	sl := Slice{Target: target}
	for ci := range inCons {
		sl.Constraints = append(sl.Constraints, ci)
	}
	sort.Ints(sl.Constraints)
	sigSet := map[int]bool{target: true}
	for _, ci := range sl.Constraints {
		for _, v := range s.constraints[ci].Vars() {
			sigSet[v] = true
		}
	}
	for v := range sigSet {
		sl.Signals = append(sl.Signals, v)
	}
	sort.Ints(sl.Signals)
	return sl
}
