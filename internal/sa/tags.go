package sa

import (
	"fmt"
	"strings"
)

// The signal tags, à la Circom tags: a compact, human-oriented view of the
// abstract state. Tags name the shapes circuit authors reason in — `const`,
// `binary` and `nonzero`, one per stored domain — so finding messages read
// like the Circom tag system the author already knows.

// TagKind enumerates the tags.
type TagKind int

// Tag kinds, ordered from most to least specific for rendering.
const (
	// TagConst marks a signal pinned to one value in every satisfying
	// assignment.
	TagConst TagKind = iota
	// TagBinary marks a signal proven ∈ {0,1}.
	TagBinary
	// TagNonZero marks a signal proven ≠ 0 in every satisfying assignment.
	TagNonZero
)

// Tag is one tag attached to a signal.
type Tag struct {
	Kind TagKind
}

// String renders the tag in Circom tag syntax.
func (t Tag) String() string {
	switch t.Kind {
	case TagConst:
		return "const"
	case TagBinary:
		return "binary"
	case TagNonZero:
		return "nonzero"
	default:
		return fmt.Sprintf("Tag(%d)", int(t.Kind))
	}
}

// TagsOf derives the tag set of a signal from the final abstract state, in
// canonical (Kind-ascending) order. Subsumed tags are dropped: a constant
// is tagged neither binary nor nonzero.
func (st *AbsState) TagsOf(id int) []Tag {
	if st.isConst[id] {
		return []Tag{{Kind: TagConst}}
	}
	var tags []Tag
	if st.isBool[id] {
		tags = append(tags, Tag{Kind: TagBinary})
	}
	if st.nonzero[id] {
		tags = append(tags, Tag{Kind: TagNonZero})
	}
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
