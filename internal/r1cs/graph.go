package r1cs

import (
	"sort"
	"sync"
)

// buildAdjacency constructs the signal → constraint-indices index and
// records each constraint's variable list. The constant-one signal is
// deliberately excluded from adjacency: it occurs in nearly every
// constraint and would otherwise collapse all slices into the whole
// circuit.
func (s *System) buildAdjacency() {
	if s.sigToCons != nil {
		return
	}
	adj := make([][]int, len(s.signals))
	vars := make([][]int, len(s.constraints))
	for ci := range s.constraints {
		vars[ci] = s.constraints[ci].Vars()
		for _, v := range vars[ci] {
			if v == OneID {
				continue
			}
			adj[v] = append(adj[v], ci)
		}
	}
	s.sigToCons, s.consVars = adj, vars
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

// sliceScratch is SliceAround's reusable working memory. A constraint or
// signal is marked visited by stamping it with the current epoch, so
// starting a new slice costs one increment instead of clearing the marks.
type sliceScratch struct {
	epoch    uint32
	consMark []uint32
	sigMark  []uint32
	cons     []int // constraints taken, in visiting order
	sigs     []int // signals reached, in visiting order
}

// sliceScratchPool hands each concurrent SliceAround call its own scratch.
var sliceScratchPool = sync.Pool{New: func() any { return new(sliceScratch) }}

// begin readies the scratch for a system with nCons constraints and nSigs
// signals and returns the fresh epoch.
func (sc *sliceScratch) begin(nCons, nSigs int) uint32 {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide, so clear them
		clear(sc.consMark)
		clear(sc.sigMark)
		sc.epoch = 1
	}
	if len(sc.consMark) < nCons {
		sc.consMark = make([]uint32, nCons)
	}
	if len(sc.sigMark) < nSigs {
		sc.sigMark = make([]uint32, nSigs)
	}
	sc.cons, sc.sigs = sc.cons[:0], sc.sigs[:0]
	return sc.epoch
}

// SliceAround grows a slice of the constraint–signal graph around the target
// signal. Radius 1 takes the constraints directly mentioning the target;
// radius k+1 additionally takes all constraints sharing a signal with the
// radius-k slice. maxConstraints (if > 0) caps growth: expansion stops
// before exceeding the cap, always keeping at least the radius-1 core.
func (s *System) SliceAround(target, radius, maxConstraints int) Slice {
	s.buildAdjacency()
	sc := sliceScratchPool.Get().(*sliceScratch)
	defer sliceScratchPool.Put(sc)
	ep := sc.begin(len(s.constraints), len(s.signals))
	sc.sigMark[target] = ep
	sc.sigs = append(sc.sigs, target)
	hasOne := false
	// Each round's frontier is the run of sc.sigs the previous round added.
	frontier := 0
	for r := 0; r < radius && frontier < len(sc.sigs); r++ {
		added := len(sc.cons)
		for _, sig := range sc.sigs[frontier:] {
			for _, ci := range s.sigToCons[sig] {
				if sc.consMark[ci] == ep {
					continue
				}
				if maxConstraints > 0 && len(sc.cons) >= maxConstraints && r > 0 {
					continue
				}
				sc.consMark[ci] = ep
				sc.cons = append(sc.cons, ci)
			}
		}
		frontier = len(sc.sigs)
		for _, ci := range sc.cons[added:] {
			for _, v := range s.consVars[ci] {
				if v == OneID {
					hasOne = true
					continue
				}
				if sc.sigMark[v] != ep {
					sc.sigMark[v] = ep
					sc.sigs = append(sc.sigs, v)
				}
			}
		}
	}
	sl := Slice{Target: target}
	if len(sc.cons) > 0 {
		sl.Constraints = append([]int(nil), sc.cons...)
		sort.Ints(sl.Constraints)
	}
	sl.Signals = make([]int, 0, len(sc.sigs)+1)
	if hasOne {
		sl.Signals = append(sl.Signals, OneID)
	}
	sl.Signals = append(sl.Signals, sc.sigs...)
	sort.Ints(sl.Signals)
	return sl
}
