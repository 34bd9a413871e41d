package bench

import (
	"fmt"
	"testing"

	"qed2/internal/core"
)

func goldenTestConfig() core.Config {
	return core.Config{QuerySteps: 20_000, GlobalSteps: 400_000, Seed: 1}
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in          string
		index, toto int
		ok          bool
	}{
		{"1/1", 1, 1, true},
		{"2/4", 2, 4, true},
		{"4/4", 4, 4, true},
		{"0/4", 0, 0, false},
		{"5/4", 0, 0, false},
		{"-1/4", 0, 0, false},
		{"1/0", 0, 0, false},
		{"x/4", 0, 0, false},
		{"1/x", 0, 0, false},
		{"14", 0, 0, false},
		{"", 0, 0, false},
	} {
		i, n, err := ParseShard(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseShard(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && (i != tc.index || n != tc.toto) {
			t.Errorf("ParseShard(%q) = %d/%d, want %d/%d", tc.in, i, n, tc.index, tc.toto)
		}
	}
}

// TestShardPartition checks the core sharding invariant: the n shards are
// disjoint and their union, in any order, is exactly the input list.
func TestShardPartition(t *testing.T) {
	insts := make([]Instance, 17)
	for i := range insts {
		insts[i] = Instance{Name: fmt.Sprintf("i%02d", i)}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 17, 20} {
		seen := map[string]int{}
		total := 0
		for idx := 1; idx <= n; idx++ {
			shard := ShardInstances(insts, idx, n)
			total += len(shard)
			for _, in := range shard {
				seen[in.Name]++
			}
		}
		if total != len(insts) {
			t.Errorf("n=%d: shards cover %d instances, want %d", n, total, len(insts))
		}
		for _, in := range insts {
			if seen[in.Name] != 1 {
				t.Errorf("n=%d: instance %s covered %d times", n, in.Name, seen[in.Name])
			}
		}
	}
}

// TestMergeGoldenRecombines checks that merging per-shard snapshots of a
// split result set reproduces the unsharded snapshot exactly.
func TestMergeGoldenRecombines(t *testing.T) {
	results := make([]Result, 11)
	for i := range results {
		results[i] = fakeResults()[i%3]
		results[i].Instance.Name = fmt.Sprintf("inst%02d", i)
	}
	cfg := goldenTestConfig()
	whole := GoldenFromResults(cfg, results)

	insts := make([]Instance, len(results))
	byName := map[string]Result{}
	for i, r := range results {
		insts[i] = r.Instance
		byName[r.Instance.Name] = r
	}
	var parts []*GoldenFile
	for idx := 1; idx <= 4; idx++ {
		var shardResults []Result
		for _, in := range ShardInstances(insts, idx, 4) {
			shardResults = append(shardResults, byName[in.Name])
		}
		parts = append(parts, GoldenFromResults(cfg, shardResults))
	}
	merged, err := MergeGolden(parts)
	if err != nil {
		t.Fatalf("MergeGolden: %v", err)
	}
	wantBytes, _ := whole.Marshal()
	gotBytes, _ := merged.Marshal()
	if string(wantBytes) != string(gotBytes) {
		t.Fatalf("merged snapshot differs from unsharded snapshot:\n%s\nvs\n%s", gotBytes, wantBytes)
	}
	if diffs, _ := DiffGolden(whole, merged); len(diffs) != 0 {
		t.Fatalf("DiffGolden(whole, merged) = %v", diffs)
	}
}

func TestMergeGoldenRejects(t *testing.T) {
	cfg := goldenTestConfig()
	a := GoldenFromResults(cfg, fakeResults()[:1])
	if _, err := MergeGolden(nil); err == nil {
		t.Error("empty merge accepted")
	}
	// Overlapping instance names.
	if _, err := MergeGolden([]*GoldenFile{a, a}); err == nil {
		t.Error("overlapping shards accepted")
	}
	// Config mismatch.
	cfg2 := cfg
	cfg2.Seed = 999
	b := GoldenFromResults(cfg2, fakeResults()[1:2])
	if _, err := MergeGolden([]*GoldenFile{a, b}); err == nil {
		t.Error("config mismatch accepted")
	}
}

func TestGoldenRestrict(t *testing.T) {
	g := GoldenFromResults(goldenTestConfig(), fakeResults())
	names := map[string]bool{"A(1)": true, "B()": true}
	r := g.Restrict(names)
	if len(r.Verdicts) != 2 {
		t.Fatalf("restricted to %d verdicts, want 2", len(r.Verdicts))
	}
	for _, v := range r.Verdicts {
		if !names[v.Name] {
			t.Errorf("unexpected instance %s in restricted file", v.Name)
		}
	}
	if r.Config.Stamp() != g.Config.Stamp() {
		t.Error("Restrict dropped the config")
	}
}
