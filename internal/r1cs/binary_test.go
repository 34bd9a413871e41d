package r1cs

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"slices"
	"strings"
	"testing"

	"qed2/internal/ff"
	"qed2/internal/poly"
)

// binTestSystem builds a small mixed system: interleaved input/output/
// internal declarations (so the binary wire permutation is non-trivial), a
// hinted signal, and constraints exercising constants, negatives, and
// multi-term linear combinations.
func binTestSystem(t *testing.T) *System {
	t.Helper()
	f := ff.BN254()
	sys := NewSystem(f)
	in1 := sys.AddSignal("in1", KindInput)
	out1 := sys.AddSignal("out1", KindOutput)
	inv := sys.AddSignal("inv", KindInternal)
	in2 := sys.AddSignal("in2", KindInput)
	out2 := sys.AddSignal("out2", KindOutput)
	sys.MarkHinted(inv)
	// out1 = 1 - in1*inv  (IsZero core)
	sys.AddConstraint(
		poly.Var(f, in1),
		poly.Var(f, inv),
		poly.ConstInt(f, 1).Sub(poly.Var(f, out1)),
		"iszero")
	// in1*out1 = 0
	sys.AddConstraint(poly.Var(f, in1), poly.Var(f, out1), poly.NewLinComb(f), "check")
	// out2 = 3*in1 + in2 - 7
	sys.AddConstraint(
		poly.Term(f, in1, f.NewElement(3)).AddTerm(in2, f.One()).AddConst(f.NewElement(-7)),
		poly.ConstInt(f, 1),
		poly.Var(f, out2),
		"linear")
	return sys
}

// TestBinaryRoundTripIdentity checks that MarshalBinary + MarshalSym →
// ParseBinaryWithSym reconstructs the exact signal numbering, names, kinds,
// hint flags, and constraints (metadata aside), via the canonical digest of
// a metadata-stripped twin.
func TestBinaryRoundTripIdentity(t *testing.T) {
	sys := binTestSystem(t)
	got, err := ParseBinaryWithSym(sys.MarshalBinary(), sys.MarshalSym())
	if err != nil {
		t.Fatalf("ParseBinaryWithSym: %v", err)
	}
	if got.NumSignals() != sys.NumSignals() || got.NumConstraints() != sys.NumConstraints() {
		t.Fatalf("shape mismatch: %d/%d signals, %d/%d constraints",
			got.NumSignals(), sys.NumSignals(), got.NumConstraints(), sys.NumConstraints())
	}
	for id := 0; id < sys.NumSignals(); id++ {
		want, g := sys.Signal(id), got.Signal(id)
		if want.Name != g.Name || want.Kind != g.Kind || want.Hinted != g.Hinted {
			t.Errorf("signal %d: got %+v, want name=%s kind=%s hinted=%v", id, g, want.Name, want.Kind, want.Hinted)
		}
	}
	// Binary drops tags/locations/def: compare against a stripped twin.
	stripped := stripMetadata(t, sys)
	if stripped.Digest() != got.Digest() {
		t.Fatalf("canonical digest mismatch after binary round trip:\n%s\nvs\n%s",
			stripped.CanonicalText(), got.CanonicalText())
	}
}

// stripMetadata rebuilds a system without tags, locations, and def
// attribution (what the binary format cannot carry), keeping names, kinds
// and hints.
func stripMetadata(t *testing.T, sys *System) *System {
	t.Helper()
	out := NewSystem(sys.Field())
	for id := 1; id < sys.NumSignals(); id++ {
		sig := sys.Signal(id)
		out.AddSignal(sig.Name, sig.Kind)
		if sig.Hinted {
			out.MarkHinted(id)
		}
	}
	for _, c := range sys.Constraints() {
		out.AddConstraint(c.A, c.B, c.C, "")
	}
	return out
}

// TestBinaryRoundTripWithoutSym checks the nameless path: names are
// synthesized from labels, everything structural survives.
func TestBinaryRoundTripWithoutSym(t *testing.T) {
	sys := binTestSystem(t)
	got, err := ParseBinary(sys.MarshalBinary())
	if err != nil {
		t.Fatalf("ParseBinary: %v", err)
	}
	if got.NumSignals() != sys.NumSignals() || got.NumConstraints() != sys.NumConstraints() {
		t.Fatalf("shape mismatch")
	}
	for id := 1; id < sys.NumSignals(); id++ {
		if want, g := sys.Signal(id).Kind, got.Signal(id).Kind; want != g {
			t.Errorf("signal %d: kind %s, want %s", id, g, want)
		}
	}
	if got.Signal(1).Name != "w1" {
		t.Errorf("synthesized name = %q, want w1", got.Signal(1).Name)
	}
}

// TestBinaryTextEquivalence checks that the text and binary serializations
// of the same system parse to canonically equal systems.
func TestBinaryTextEquivalence(t *testing.T) {
	sys := binTestSystem(t)
	fromText, err := ParseString(sys.MarshalText())
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	fromBin, err := ParseBinaryWithSym(sys.MarshalBinary(), sys.MarshalSym())
	if err != nil {
		t.Fatalf("ParseBinaryWithSym: %v", err)
	}
	if stripMetadata(t, fromText).Digest() != fromBin.Digest() {
		t.Fatal("text and binary parses disagree on the canonical form")
	}
}

// TestParseAutoDetects checks format autodetection on both serializations.
func TestParseAutoDetects(t *testing.T) {
	sys := binTestSystem(t)
	if s, err := ParseAuto([]byte(sys.MarshalText())); err != nil || s.NumConstraints() != sys.NumConstraints() {
		t.Fatalf("ParseAuto(text): %v", err)
	}
	if s, err := ParseAuto(sys.MarshalBinary()); err != nil || s.NumConstraints() != sys.NumConstraints() {
		t.Fatalf("ParseAuto(binary): %v", err)
	}
	if !IsBinaryR1CS(sys.MarshalBinary()) {
		t.Fatal("IsBinaryR1CS rejected a binary file")
	}
	if IsBinaryR1CS([]byte(sys.MarshalText())) {
		t.Fatal("IsBinaryR1CS accepted the text format")
	}
}

// TestBinarySmallField exercises the single-limb (n8=8) encoding path.
func TestBinarySmallField(t *testing.T) {
	f, err := ff.SmallField(97)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(f)
	in := sys.AddSignal("in", KindInput)
	out := sys.AddSignal("out", KindOutput)
	sys.AddConstraint(poly.Var(f, in), poly.Var(f, in), poly.Var(f, out), "")
	got, err := ParseBinaryWithSym(sys.MarshalBinary(), sys.MarshalSym())
	if err != nil {
		t.Fatalf("ParseBinaryWithSym: %v", err)
	}
	if got.Field().Modulus().Cmp(big.NewInt(97)) != 0 {
		t.Fatalf("modulus = %s, want 97", got.Field().Modulus())
	}
	if got.Digest() != sys.Digest() {
		t.Fatal("small-field round trip changed the canonical form")
	}
	_ = out
}

// TestBinaryForeignLabels checks the fallback for real snarkjs exports:
// labels that are not a permutation of the wire space (sparse,
// post-optimization) keep wire-order numbering and still parse.
func TestBinaryForeignLabels(t *testing.T) {
	sys := binTestSystem(t)
	data := sys.MarshalBinary()
	// Rewrite the wire2label section (last 6*8 bytes of the file, after its
	// 12-byte section header) with sparse labels 0,10,20,30,40,50, and
	// raise nLabels (header offset 76) to cover them.
	n := len(data)
	mapBody := data[n-6*8:]
	for i := 0; i < 6; i++ {
		binary.LittleEndian.PutUint64(mapBody[i*8:], uint64(i*10))
	}
	binary.LittleEndian.PutUint64(data[76:], 100)
	got, err := ParseBinary(data)
	if err != nil {
		t.Fatalf("ParseBinary with foreign labels: %v", err)
	}
	// Wire order: one, outputs (out1,out2), inputs (in1,in2), internal.
	if k := got.Signal(1).Kind; k != KindOutput {
		t.Fatalf("wire 1 kind = %s, want output", k)
	}
	if name := got.Signal(1).Name; name != "w10" {
		t.Fatalf("wire 1 name = %q, want w10 (labeled)", name)
	}
	if k := got.Signal(5).Kind; k != KindInternal {
		t.Fatalf("wire 5 kind = %s, want internal", k)
	}
}

// TestBinaryRejects exercises the hardening paths: truncations, bad magic,
// bad version, duplicate and missing sections, oversized counts, wrong
// coefficient ranges, trailing bytes.
func TestBinaryRejects(t *testing.T) {
	sys := binTestSystem(t)
	good := sys.MarshalBinary()

	mutate := func(name string, f func([]byte) []byte) (string, []byte) { return name, f(bytes.Clone(good)) }
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("r2cs\x01\x00\x00\x00")},
		{"truncated header", good[:20]},
		{"truncated mid-section", good[:len(good)-5]},
	}
	name, data := mutate("bad version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4:], 9)
		return b
	})
	cases = append(cases, struct {
		name string
		data []byte
	}{name, data})
	name, data = mutate("trailing bytes", func(b []byte) []byte { return append(b, 0xff) })
	cases = append(cases, struct {
		name string
		data []byte
	}{name, data})

	for _, tc := range cases {
		if _, err := ParseBinary(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Oversized wire count in the header (offset: 12 section dir + 12
	// section header + 4 n8 + 32 prime).
	b := bytes.Clone(good)
	binary.LittleEndian.PutUint32(b[12+12+4+32:], uint32(maxParseSignals+1))
	if _, err := ParseBinary(b); err == nil {
		t.Error("oversized wire count accepted")
	}

	// Non-prime modulus.
	b = bytes.Clone(good)
	b[12+12+4] = 0x00 // BN254 prime low byte -> even number
	if _, err := ParseBinary(b); err == nil {
		t.Error("non-prime modulus accepted")
	}

	// Duplicate section: append a second header section and bump nSections.
	b = bytes.Clone(good)
	hdr := bytes.Clone(b[12 : 12+12+4+32+4*4+8+4])
	b = append(b, hdr...)
	binary.LittleEndian.PutUint32(b[8:], 4)
	if _, err := ParseBinary(b); err == nil {
		t.Error("duplicate header section accepted")
	}
}

// TestSymRejects exercises sym-table validation.
func TestSymRejects(t *testing.T) {
	sys := binTestSystem(t)
	bin := sys.MarshalBinary()
	for name, sym := range map[string]string{
		"too few fields":  "1,1,-1\n",
		"bad label":       "x,1,-1,a\n",
		"bad wire":        "1,y,-1,a\n",
		"duplicate label": "1,1,-1,a\n1,2,-1,b\n",
		"duplicate name":  "1,1,-1,a\n2,2,-1,a\n",
		"empty name":      "1,1,-1,\n",
		"bad attribute":   "1,1,-1,a,wat\n",
	} {
		if _, err := ParseBinaryWithSym(bin, []byte(sym)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A valid foreign sym (no hint column) is fine.
	if _, err := ParseBinaryWithSym(bin, []byte("1,1,-1,main.a\n2,2,-1,main.b\n")); err != nil {
		t.Errorf("plain 4-column sym rejected: %v", err)
	}
}

// TestSymLongLines checks the sym scanner's line bounds: its first buffer
// is sized to the input, a line longer than that still parses, and a line
// over the 4 MiB cap is rejected.
func TestSymLongLines(t *testing.T) {
	sys := binTestSystem(t)
	bin := sys.MarshalBinary()
	long := "main." + strings.Repeat("x", 100<<10)
	for _, sym := range []string{
		"1,1,-1," + long + "\n2,2,-1,main.b\n",
		"1,1,-1,main.a\n2,2,-1," + long, // unterminated last line
	} {
		got, err := ParseBinaryWithSym(bin, []byte(sym))
		if err != nil {
			t.Fatalf("sym with a 100 KiB name rejected: %v", err)
		}
		if !slices.Contains([]string{got.Name(1), got.Name(2)}, long) {
			t.Errorf("100 KiB name lost: signals named %.20q, %.20q", got.Name(1), got.Name(2))
		}
	}
	huge := "1,1,-1,main." + strings.Repeat("x", maxSymLine) + "\n"
	if _, err := ParseBinaryWithSym(bin, []byte(huge)); err == nil {
		t.Error("sym line over 4 MiB accepted")
	}
}
