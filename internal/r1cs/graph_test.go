package r1cs_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/r1cs"
)

// sliceAroundMaps is the map-based SliceAround the epoch-marked version
// replaced, kept as the reference it must match slice for slice. vars(ci)
// must return s.Constraint(ci).Vars(); callers memoize it to keep the
// suite-wide comparison fast.
func sliceAroundMaps(s *r1cs.System, vars func(int) []int, target, radius, maxConstraints int) r1cs.Slice {
	inCons := map[int]bool{}
	inSig := map[int]bool{target: true}
	frontier := []int{target}
	total := 0
	for r := 0; r < radius && len(frontier) > 0; r++ {
		var added []int
		for _, sig := range frontier {
			for _, ci := range s.ConstraintsOf(sig) {
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
			for _, v := range vars(ci) {
				if v == r1cs.OneID {
					continue
				}
				if !inSig[v] {
					inSig[v] = true
					frontier = append(frontier, v)
				}
			}
		}
	}
	sl := r1cs.Slice{Target: target}
	for ci := range inCons {
		sl.Constraints = append(sl.Constraints, ci)
	}
	sort.Ints(sl.Constraints)
	sigSet := map[int]bool{target: true}
	for _, ci := range sl.Constraints {
		for _, v := range vars(ci) {
			sigSet[v] = true
		}
	}
	for v := range sigSet {
		sl.Signals = append(sl.Signals, v)
	}
	sort.Ints(sl.Signals)
	return sl
}

// suiteSystems compiles the benchmark suite, optionally only the named
// instances.
func suiteSystems(t testing.TB, names ...string) map[string]*r1cs.System {
	t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]*r1cs.System{}
	for _, inst := range bench.Suite() {
		if len(names) > 0 && !want[inst.Name] {
			continue
		}
		p, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", inst.Name, err)
		}
		out[inst.Name] = p.System
	}
	if len(out) == 0 {
		t.Fatalf("no suite instance matched %v", names)
	}
	return out
}

// TestSliceAroundMatchesReference compares SliceAround with the map-based
// reference for every signal of every suite circuit, at radii 1–3 and at
// no cap, a small cap and the analyzer's cap.
func TestSliceAroundMatchesReference(t *testing.T) {
	n := 0
	for name, sys := range suiteSystems(t) {
		consVars := make([][]int, sys.NumConstraints())
		for ci := range consVars {
			consVars[ci] = sys.Constraint(ci).Vars()
		}
		vars := func(ci int) []int { return consVars[ci] }
		for target := 0; target < sys.NumSignals(); target++ {
			for radius := 1; radius <= 3; radius++ {
				for _, maxCons := range []int{0, 5, 64} {
					got := sys.SliceAround(target, radius, maxCons)
					want := sliceAroundMaps(sys, vars, target, radius, maxCons)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: SliceAround(%d, %d, %d) = %+v, want %+v",
							name, target, radius, maxCons, got, want)
					}
					n++
				}
			}
		}
	}
	t.Logf("%d slices match", n)
}

// TestSliceAroundConcurrent slices from several goroutines at once after
// PrepareConcurrent; under -race it checks that the pooled scratch is never
// shared, and without it that every answer matches a serial run.
func TestSliceAroundConcurrent(t *testing.T) {
	for name, sys := range suiteSystems(t, "Num2Bits_strict()", "Decoder(32)") {
		sys.PrepareConcurrent()
		want := make([]r1cs.Slice, sys.NumSignals())
		for target := range want {
			want[target] = sys.SliceAround(target, 2, 64)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range want {
					target := (i + w*len(want)/4) % len(want)
					if got := sys.SliceAround(target, 2, 64); !reflect.DeepEqual(got, want[target]) {
						t.Errorf("%s: concurrent SliceAround(%d) = %+v, want %+v", name, target, got, want[target])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// BenchmarkSliceAround slices every signal of Num2Bits_strict at the
// analyzer's radius and cap, the workload of one slice-query round.
func BenchmarkSliceAround(b *testing.B) {
	sys := suiteSystems(b, "Num2Bits_strict()")["Num2Bits_strict()"]
	sys.PrepareConcurrent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for target := 1; target < sys.NumSignals(); target++ {
			sinkSlice = sys.SliceAround(target, 2, 64)
		}
	}
}

var sinkSlice r1cs.Slice
