package core_test

import (
	"testing"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/gen"
	"qed2/internal/r1cs"
)

// BenchmarkAnalyzeNoQuery times core.Analyze on suite circuits decided
// Safe with no SMT query: Multiplexer(4, 8), which needs R-OneHot, and
// Num2Bits(26), MiMC7(91) and BinSum(32, 2). Their whole cost is the
// zero-query path: the static pre-pass, propagation and the verdict.
func BenchmarkAnalyzeNoQuery(b *testing.B) {
	for _, name := range []string{"Multiplexer(4, 8)", "Num2Bits(26)", "MiMC7(91)", "BinSum(32, 2)"} {
		inst, ok := bench.ByName(bench.Suite(), name)
		if !ok {
			b.Fatalf("%s not in suite", name)
		}
		prog, err := inst.Compile()
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		cfg := &core.Config{Seed: 1, Workers: 1}
		if r := core.Analyze(prog.System, cfg); r.Verdict != core.VerdictSafe || r.Stats.Queries != 0 {
			b.Fatalf("%s: verdict %v with %d queries, want safe with none", name, r.Verdict, r.Stats.Queries)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkReport = core.Analyze(prog.System, cfg)
			}
		})
	}
}

var sinkReport *core.Report

// BenchmarkAnalyzeCorpus times core.Analyze on generated corpus circuits,
// the workload whose time goes into many small slice queries: seeds 1–8 of
// the safe and the unsafe profile, analyzed at the golden budgets. Each
// iteration analyzes all sixteen.
func BenchmarkAnalyzeCorpus(b *testing.B) {
	for _, profile := range []string{gen.ProfileSafe, gen.ProfileUnsafe} {
		var systems []*r1cs.System
		for seed := int64(1); seed <= 8; seed++ {
			c, err := gen.Generate(gen.Spec{Seed: seed, Profile: profile})
			if err != nil {
				b.Fatal(err)
			}
			systems = append(systems, c.System)
		}
		cfg := &core.Config{QuerySteps: 20_000, GlobalSteps: 400_000, Seed: 1, Workers: 1}
		b.Run(profile, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sys := range systems {
					sinkReport = core.Analyze(sys, cfg)
				}
			}
		})
	}
}
