package sa

import (
	"fmt"
	"sort"
	"strings"
)

// The signal-tag lattice, à la Circom tags: a compact, human-oriented view
// of the abstract state. Where the interval domain carries exact per-signal
// sets, tags name the handful of shapes circuit authors reason
// in — `binary`, `maxbit(k)`, `nonzero`, `const` — and flow through the
// constraints simply because the underlying domains do. Detectors
// (overflow-prone-sum, nonzero-divisor-proved) and the lint renderers key
// on tags rather than raw intervals, so messages read like the Circom tag
// system the author already knows.

// TagKind enumerates the tag lattice's generators.
type TagKind int

// Tag kinds, ordered from most to least specific for rendering.
const (
	// TagConst marks a signal pinned to one value in every satisfying
	// assignment.
	TagConst TagKind = iota
	// TagBinary marks a signal proven ∈ {0,1}.
	TagBinary
	// TagMaxBit marks a signal proven ∈ [0, 2^K − 1].
	TagMaxBit
	// TagNonZero marks a signal proven ≠ 0 in every satisfying assignment.
	TagNonZero
)

// Tag is one lattice element attached to a signal.
type Tag struct {
	Kind TagKind
	// K is the bit bound for TagMaxBit (unused otherwise).
	K int
}

// String renders the tag in Circom tag syntax.
func (t Tag) String() string {
	switch t.Kind {
	case TagConst:
		return "const"
	case TagBinary:
		return "binary"
	case TagMaxBit:
		return fmt.Sprintf("maxbit(%d)", t.K)
	case TagNonZero:
		return "nonzero"
	default:
		return fmt.Sprintf("Tag(%d)", int(t.Kind))
	}
}

// TagsOf derives the tag set of a signal from the final abstract state, in
// canonical (Kind-ascending) order. Subsumed tags are dropped: a constant
// is not additionally tagged binary, and binary subsumes maxbit(1).
func (st *AbsState) TagsOf(id int) []Tag {
	var tags []Tag
	if st.isConst[id] {
		tags = append(tags, Tag{Kind: TagConst})
	} else if st.isBool[id] {
		tags = append(tags, Tag{Kind: TagBinary})
	} else if iv := st.ival[id]; iv != nil {
		if k, ok := iv.maxBits(); ok {
			tags = append(tags, Tag{Kind: TagMaxBit, K: k})
		}
	}
	if st.Nonzero(id) && !st.isConst[id] {
		tags = append(tags, Tag{Kind: TagNonZero})
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Kind < tags[j].Kind })
	return tags
}

// TagString renders a signal's tag set as "{binary, nonzero}" ("" when the
// signal has no tags) for finding messages.
func (st *AbsState) TagString(id int) string {
	tags := st.TagsOf(id)
	if len(tags) == 0 {
		return ""
	}
	parts := make([]string, len(tags))
	for i, t := range tags {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
