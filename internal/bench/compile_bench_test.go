package bench

import (
	"testing"

	"qed2/internal/circom"
)

// BenchmarkCompileSuite compiles every suite instance built from Circom
// source, one pass of the suite per iteration. "cold" empties the
// include-parse cache before each instance, so every included library file
// is parsed again as it would be without the cache; "warm" keeps the cache,
// as a process compiling many circuits against one library does.
func BenchmarkCompileSuite(b *testing.B) {
	var insts []Instance
	for _, in := range Suite() {
		if in.Gen == nil {
			insts = append(insts, in)
		}
	}
	for _, tc := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, in := range insts {
					if tc.cold {
						circom.ResetIncludeCache()
					}
					p, err := in.Compile()
					if err != nil {
						b.Fatalf("%s: %v", in.Name, err)
					}
					sinkProgram = p
				}
			}
		})
	}
}

var sinkProgram *circom.Program
