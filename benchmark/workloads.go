package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"qed2/internal/bench"
	"qed2/internal/gen"
)

// workloads.json pins each workload's membership, the analysis budget and
// every exclusion, each with its reason. Membership is data on purpose: it
// is never recomputed from the analyzer, so a change that decides more
// circuits without queries cannot move them between suite-static and
// suite-solver.
//
//go:embed workloads.json
var workloadsJSON []byte

type pinned struct {
	Budget struct {
		QuerySteps  int64 `json:"query_steps"`
		GlobalSteps int64 `json:"global_steps"`
		TimeoutMS   int64 `json:"timeout_ms"`
		Seed        int64 `json:"seed"`
	} `json:"budget"`
	SuiteStatic suiteList `json:"suite-static"`
	SuiteSolver suiteList `json:"suite-solver"`
	Corpus      struct {
		Seeds    int      `json:"seeds"`
		Profiles []string `json:"profiles"`
	} `json:"corpus"`
	Excluded []struct {
		Name string `json:"name"`
	} `json:"excluded"`
}

type suiteList struct {
	Instances []string `json:"instances"`
}

// Workload names.
const (
	wlSuiteStatic = "suite-static"
	wlSuiteSolver = "suite-solver"
	wlCorpus      = "corpus"
)

var workloadNames = []string{wlSuiteStatic, wlSuiteSolver, wlCorpus}

// expectation is an instance's ground-truth label: a suite circuit's
// hand-written Instance.Expect, or a generated circuit's self-validated
// label.
type expectation int

const (
	expectSafe expectation = iota
	expectUnsafe
	// expectHard allows safe or unknown, never unsafe (bench.ExpectHard).
	expectHard
)

// instance is one input handed to the analyzer: Circom source for the suite
// workloads, snarkjs binary .r1cs and .sym bytes for the corpus.
type instance struct {
	name   string
	source string
	r1cs   []byte
	sym    []byte
	expect expectation
}

// workload is a set-up workload: its instances and the circom library
// their sources include.
type workload struct {
	instances []instance
	library   map[string]string
}

func loadPinned() (*pinned, error) {
	var p pinned
	if err := json.Unmarshal(workloadsJSON, &p); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if err := p.checkSuitePartition(); err != nil {
		return nil, err
	}
	return &p, nil
}

// checkSuitePartition insists that suite-static, suite-solver and the
// excluded suite names together cover the suite exactly once, so a suite
// instance added or renamed in the program fails here instead of silently
// joining or leaving a workload.
func (p *pinned) checkSuitePartition() error {
	seen := map[string]string{}
	add := func(list, name string) error {
		if prev, ok := seen[name]; ok {
			return fmt.Errorf("workloads.json: %s listed in both %s and %s", name, prev, list)
		}
		seen[name] = list
		return nil
	}
	for _, n := range p.SuiteStatic.Instances {
		if err := add(wlSuiteStatic, n); err != nil {
			return err
		}
	}
	for _, n := range p.SuiteSolver.Instances {
		if err := add(wlSuiteSolver, n); err != nil {
			return err
		}
	}
	suite := bench.Suite()
	inSuite := map[string]bool{}
	for _, in := range suite {
		inSuite[in.Name] = true
	}
	for _, e := range p.Excluded {
		if inSuite[e.Name] {
			if err := add("excluded", e.Name); err != nil {
				return err
			}
		}
	}
	var missing []string
	for _, in := range suite {
		if _, ok := seen[in.Name]; !ok {
			missing = append(missing, in.Name)
		}
	}
	for n := range seen {
		if !inSuite[n] {
			missing = append(missing, n+" (not in the suite)")
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workloads.json does not partition the suite: %v", missing)
	}
	return nil
}

// setup builds a workload's inputs from its seed and loads the bundled
// circomlib; its duration is what setup_s reports. limit > 0 keeps only
// the first limit instances (tests run tiny workloads this way). The seed
// matters only for the corpus, where it is the generator's base seed; the
// suite workloads use it to shuffle instance order in the timed loop.
func setup(p *pinned, name string, seed int64, limit int) (*workload, time.Duration, error) {
	t0 := time.Now()
	w := &workload{library: bench.Library()}
	switch name {
	case wlSuiteStatic, wlSuiteSolver:
		names := p.SuiteStatic.Instances
		if name == wlSuiteSolver {
			names = p.SuiteSolver.Instances
		}
		if limit > 0 && limit < len(names) {
			names = names[:limit]
		}
		suite := bench.Suite()
		for _, n := range names {
			in, ok := bench.ByName(suite, n)
			if !ok {
				return nil, 0, fmt.Errorf("workloads.json: %s is not a suite instance", n)
			}
			w.instances = append(w.instances, instance{name: n, source: in.Source(), expect: suiteExpectation(in.Expect)})
		}
	case wlCorpus:
		for i := int64(0); i < int64(p.Corpus.Seeds); i++ {
			for _, profile := range p.Corpus.Profiles {
				if limit > 0 && len(w.instances) == limit {
					break
				}
				spec := gen.Spec{Seed: seed + i, Profile: profile}
				c, err := gen.Generate(spec)
				if err != nil {
					return nil, 0, fmt.Errorf("corpus %s: %w", spec.Name(), err)
				}
				in := instance{name: c.Name, r1cs: c.System.MarshalBinary(), sym: c.System.MarshalSym(), expect: expectSafe}
				if c.Label != gen.LabelSafe {
					in.expect = expectUnsafe
				}
				w.instances = append(w.instances, in)
			}
		}
	default:
		return nil, 0, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, time.Since(t0), nil
}

func suiteExpectation(e bench.Expectation) expectation {
	switch e {
	case bench.ExpectSafe:
		return expectSafe
	case bench.ExpectUnsafe:
		return expectUnsafe
	default:
		return expectHard
	}
}
