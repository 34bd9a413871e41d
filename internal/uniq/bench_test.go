package uniq_test

import (
	"testing"

	"qed2/internal/bench"
	"qed2/internal/uniq"
)

// BenchmarkPropagate times uniq.New, seeding and the rules to fixpoint, on
// the circuits BenchmarkStaticPass (internal/sa) times the static pre-pass
// on.
func BenchmarkPropagate(b *testing.B) {
	for _, name := range []string{"Num2Bits_strict()", "MiMC7(91)", "BinSum(32, 2)", "Decoder(32)"} {
		inst, ok := bench.ByName(bench.Suite(), name)
		if !ok {
			b.Fatalf("%s not in suite", name)
		}
		prog, err := inst.Compile()
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkProp = uniq.New(prog.System)
			}
		})
	}
}

var sinkProp *uniq.Propagator
