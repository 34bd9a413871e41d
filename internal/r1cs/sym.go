package r1cs

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// The circom .sym companion file: one line per signal,
//
//	<label>,<wire>,<component>,<name>
//
// mapping the label space of the binary .r1cs wire2label section onto
// human names. The binary format itself carries no names, so analyzing a
// snarkjs export without the .sym file falls back to synthesized "w<label>"
// names; with it, reports and counterexamples use the source names
// (e.g. "main.out[2]").
//
// MarshalSym emits one extension beyond circom's four columns: a trailing
// ",hint" marker on signals assigned with the witness-only `<--` operator.
// Hint flags feed the static-analysis detectors, and the binary format has
// nowhere else to keep them; parsers that split on the first four commas
// (as circom's own tooling does — names cannot contain commas) are
// unaffected, and parseSym accepts files with or without the column.

// maxSymLines bounds the sym table, matching the signal cap of Parse.
const maxSymLines = maxParseSignals

// maxSymLine bounds one sym line: the table is outside input.
const maxSymLine = 1 << 22

// parseSym decodes a .sym table into label→name and label→hinted maps.
// A nil input yields nil maps (synthesized names). Lines with wire -1
// (signals optimized out of the wire space) are kept: labels, not wires,
// key the table.
func parseSym(data []byte) (names map[uint64]string, hints map[uint64]bool, err error) {
	if data == nil {
		return nil, nil, nil
	}
	names = map[uint64]string{}
	hints = map[uint64]bool{}
	// The first buffer fits the input (plus the byte that lets the scanner
	// see the end of an unterminated last line), so a small table does not
	// pay for a 64 KiB one; a longer line grows it up to maxSymLine.
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, min(len(data)+1, 1<<16)), maxSymLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		if len(names) >= maxSymLines {
			return nil, nil, fmt.Errorf("r1cs: sym line %d: too many entries (limit %d)", lineNo, maxSymLines)
		}
		parts := strings.SplitN(line, ",", 5)
		if len(parts) < 4 {
			return nil, nil, fmt.Errorf("r1cs: sym line %d: want 'label,wire,component,name', got %q", lineNo, line)
		}
		label, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("r1cs: sym line %d: bad label %q", lineNo, parts[0])
		}
		// parts[1] (wire) and parts[2] (component) are validated as
		// integers but otherwise unused: the wire2label section is
		// authoritative for the wire mapping.
		if _, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64); err != nil {
			return nil, nil, fmt.Errorf("r1cs: sym line %d: bad wire %q", lineNo, parts[1])
		}
		if _, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64); err != nil {
			return nil, nil, fmt.Errorf("r1cs: sym line %d: bad component %q", lineNo, parts[2])
		}
		name := parts[3]
		if len(parts) == 5 {
			switch parts[4] {
			case "hint":
				hints[label] = true
			default:
				return nil, nil, fmt.Errorf("r1cs: sym line %d: unknown attribute %q", lineNo, parts[4])
			}
		}
		if name == "" {
			return nil, nil, fmt.Errorf("r1cs: sym line %d: empty signal name", lineNo)
		}
		if prior, dup := names[label]; dup {
			return nil, nil, fmt.Errorf("r1cs: sym line %d: duplicate label %d (%q and %q)", lineNo, label, prior, name)
		}
		names[label] = name
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return names, hints, nil
}

// MarshalSym renders the system's name table in the circom .sym format,
// labeled to match MarshalBinary's wire2label section (label = signal ID).
// The component column is -1 (this model keeps no component tree), and
// hinted signals carry the ",hint" extension column.
func (s *System) MarshalSym() []byte {
	wires := s.binaryWireOrder()
	wireOf := make([]int, len(s.signals))
	for w, id := range wires {
		wireOf[id] = w
	}
	var b strings.Builder
	for _, sig := range s.signals {
		if sig.ID == OneID {
			continue
		}
		fmt.Fprintf(&b, "%d,%d,-1,%s", sig.ID, wireOf[sig.ID], sig.Name)
		if sig.Hinted {
			b.WriteString(",hint")
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
