package sa_test

import (
	"testing"

	"qed2/internal/bench"
	"qed2/internal/sa"
)

// BenchmarkStaticPass times the two entry points on a few suite circuits:
// "facts" is Analyze (the component graph, uniq's propagation and the
// abstract interpretation), "lint" is AnalyzeProgram (the same facts plus
// every detector). The difference is what the detectors add.
func BenchmarkStaticPass(b *testing.B) {
	for _, name := range []string{"Num2Bits_strict()", "MiMC7(91)", "BinSum(32, 2)", "Decoder(32)"} {
		inst, ok := bench.ByName(bench.Suite(), name)
		if !ok {
			b.Fatalf("%s not in suite", name)
		}
		prog, err := inst.Compile()
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		b.Run(name+"/facts", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkResult = sa.Analyze(prog.System, nil)
			}
		})
		b.Run(name+"/lint", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkLint = sa.AnalyzeProgram(prog, nil)
			}
		})
	}
}

var (
	sinkResult *sa.Result
	sinkLint   *sa.Lint
)
