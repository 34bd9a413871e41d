package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Deterministic sharding for CI: `qed2bench -shard i/n` runs every
// instance whose index in the assembled run list (suite order, then corpus
// manifest order) is congruent to i-1 mod n. The partition is a pure
// function of the instance list, so n shard invocations cover each
// instance exactly once, and because golden snapshots are keyed and sorted
// by instance name, merging the n per-shard snapshots reproduces the
// unsharded snapshot byte for byte.

// ParseShard parses an "i/n" shard selector (1-based index).
func ParseShard(s string) (index, total int, err error) {
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bench: shard %q: want i/n, e.g. 2/4", s)
	}
	index, err = strconv.Atoi(lhs)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: shard %q: bad index: %v", s, err)
	}
	total, err = strconv.Atoi(rhs)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: shard %q: bad total: %v", s, err)
	}
	if total < 1 || index < 1 || index > total {
		return 0, 0, fmt.Errorf("bench: shard %q: need 1 <= i <= n", s)
	}
	return index, total, nil
}

// ShardInstances returns the index-th of total interleaved slices of
// insts (1-based). Interleaving (index mod total) rather than chunking
// balances the expensive suite head and the cheap corpus tail across legs.
func ShardInstances(insts []Instance, index, total int) []Instance {
	var out []Instance
	for i := index - 1; i < len(insts); i += total {
		out = append(out, insts[i])
	}
	return out
}

// MergeGolden recombines per-shard golden snapshots into one. All parts
// must carry the same analyzer configuration and disjoint instance names;
// the merged file is sorted by name, making the merge of a complete shard
// set byte-identical to an unsharded snapshot of the same run list.
func MergeGolden(parts []*GoldenFile) (*GoldenFile, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("bench: merge: no shard files")
	}
	merged := &GoldenFile{Config: parts[0].Config.Canonical()}
	stamp := merged.Config.Stamp()
	seen := map[string]int{}
	for i, p := range parts {
		if got := p.Config.Stamp(); got != stamp {
			return nil, fmt.Errorf("bench: merge: shard %d config %s differs from shard 0 config %s", i, got, stamp)
		}
		for _, v := range p.Verdicts {
			if prev, dup := seen[v.Name]; dup {
				return nil, fmt.Errorf("bench: merge: instance %q appears in shards %d and %d — overlapping shard runs",
					v.Name, prev, i)
			}
			seen[v.Name] = i
			merged.Verdicts = append(merged.Verdicts, v)
		}
	}
	sort.Slice(merged.Verdicts, func(i, j int) bool {
		return merged.Verdicts[i].Name < merged.Verdicts[j].Name
	})
	return merged, nil
}

// Restrict returns a copy of g containing only the named instances, in the
// same sorted order. Gates that run a subset of the golden population (the
// service replay test, a sharded leg before merging) diff against the
// restricted file so DiffGolden's missing-instance check applies to the
// subset actually run.
func (g *GoldenFile) Restrict(names map[string]bool) *GoldenFile {
	out := &GoldenFile{Config: g.Config}
	for _, v := range g.Verdicts {
		if names[v.Name] {
			out.Verdicts = append(out.Verdicts, v)
		}
	}
	return out
}

// InstanceNames returns the name set of a run list, for Restrict.
func InstanceNames(insts []Instance) map[string]bool {
	names := make(map[string]bool, len(insts))
	for _, in := range insts {
		names[in.Name] = true
	}
	return names
}
