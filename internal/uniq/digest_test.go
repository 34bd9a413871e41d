// The propagation digest lives in an external test package so it can use
// internal/bench (which imports core, which imports uniq) without a cycle.
package uniq_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/r1cs"
	"qed2/internal/sa"
	"qed2/internal/uniq"
)

// Regenerate the golden file after an intended change in the facts:
//
//	go test -run TestPropagationDigest ./internal/uniq/ -args -update
var update = flag.Bool("update", false, "rewrite testdata/propagation.golden")

// hashFacts writes every unique signal's provenance, ascending by ID. The
// digest injects no SMT facts, so an external fact is one of sa's
// determined signals; it is written as "static", the rule such facts had
// when core injected them, which keeps the digest lines of the instances
// R-OneHot does not touch.
func hashFacts(h hash.Hash, sys *r1cs.System, p *uniq.Propagator) {
	for id := 0; id < sys.NumSignals(); id++ {
		if src, ok := p.SourceOf(id); ok {
			rule := src.Rule
			if rule == uniq.RuleExternal {
				rule = "static"
			}
			fmt.Fprintf(h, "%d %s %d\n", id, rule, src.Constraint)
		}
	}
}

// TestPropagationDigest pins every uniqueness fact the propagator derives
// on the suite and the whole pinned corpus, one digest per instance. Each
// digest covers the rule ablations ({}, DisableSolve, DisableBits), each
// before and after sa's determined signals are injected in ascending
// order. sa's determined signals are the full rule set's facts plus sa's
// proven constants, so the injection measures what the full rule set
// knows beyond each ablation. It also checks that every signal the full
// rule set proves unique is one sa reports determined.
func TestPropagationDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	corpus, err := bench.LoadCorpus(filepath.Join("..", "..", "testdata", "corpus", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	ablations := []uniq.Options{{}, {DisableSolve: true}, {DisableBits: true}}
	var got strings.Builder
	for _, inst := range append(bench.Suite(), corpus...) {
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		sys := prog.System
		res := sa.Analyze(sys, nil)
		h := sha256.New()
		for i, opts := range ablations {
			p := uniq.NewWithOptions(sys, opts)
			if i == 0 {
				for id := 0; id < sys.NumSignals(); id++ {
					if p.IsUnique(id) && !res.Abs.Determined(id) {
						t.Errorf("%s: signal %s is unique but not determined", inst.Name, sys.Name(id))
					}
				}
			}
			fmt.Fprintf(h, "options %d\n", i)
			hashFacts(h, sys, p)
			for _, id := range res.DeterminedSignals {
				p.AddUniqueExternal(id)
			}
			fmt.Fprintln(h, "static")
			hashFacts(h, sys, p)
		}
		fmt.Fprintf(&got, "%s %s\n", hex.EncodeToString(h.Sum(nil)[:16]), inst.Name)
	}
	path := filepath.Join("testdata", "propagation.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digests, golden file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("facts moved: got %q, golden %q", gotLines[i], wantLines[i])
		}
	}
}
