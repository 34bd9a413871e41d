package circom_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/circom"
)

// circomSuite returns the suite instances compiled from Circom source.
func circomSuite() []bench.Instance {
	var out []bench.Instance
	for _, in := range bench.Suite() {
		if in.Gen == nil {
			out = append(out, in)
		}
	}
	return out
}

// compiledBytes compiles an instance and returns its binary .r1cs and .sym
// encodings, the byte forms every consumer of a compiled circuit reads.
func compiledBytes(t testing.TB, in bench.Instance) ([]byte, []byte) {
	t.Helper()
	p, err := in.Compile()
	if err != nil {
		t.Fatalf("%s: compile: %v", in.Name, err)
	}
	return p.System.MarshalBinary(), p.System.MarshalSym()
}

// TestIncludeCacheColdWarmIdentical: every suite instance compiles to the
// same .r1cs and .sym bytes whether its includes are parsed afresh or
// served from the include-parse cache.
func TestIncludeCacheColdWarmIdentical(t *testing.T) {
	for _, in := range circomSuite() {
		circom.ResetIncludeCache()
		coldR1CS, coldSym := compiledBytes(t, in)
		warmR1CS, warmSym := compiledBytes(t, in)
		if !bytes.Equal(coldR1CS, warmR1CS) || !bytes.Equal(coldSym, warmSym) {
			t.Errorf("%s: warm-cache compile differs from cold-cache compile", in.Name)
		}
	}
}

// TestIncludeCacheMatchesFreshParse pins the invariant that makes sharing
// cached ASTs sound: compiling never writes to an AST node. After the whole
// suite has compiled against the cache, every cached file still equals a
// fresh parse of its text.
func TestIncludeCacheMatchesFreshParse(t *testing.T) {
	circom.ResetIncludeCache()
	for _, in := range circomSuite() {
		compiledBytes(t, in)
	}
	cached := circom.IncludeCacheFiles()
	if len(cached) == 0 {
		t.Fatal("include cache is empty after compiling the suite")
	}
	nameOf := map[string]string{}
	for name, text := range bench.Library() {
		nameOf[text] = name
	}
	for text, f := range cached {
		name, ok := nameOf[text]
		if !ok {
			t.Errorf("cache holds a text that is not a library file")
			continue
		}
		fresh, err := circom.ParseFile(text)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", name, err)
		}
		if !reflect.DeepEqual(f, fresh) {
			t.Errorf("cached AST of %s differs from a fresh parse of its text: compilation wrote to it", name)
		}
	}
}

// TestIncludeCacheConcurrentCompile compiles the suite from several
// goroutines at once, starting from an empty cache, and checks every result
// against a sequential compile. Run under -race it also checks that the
// cache and the shared ASTs are free of data races.
func TestIncludeCacheConcurrentCompile(t *testing.T) {
	insts := circomSuite()
	type encoded struct{ r1cs, sym []byte }
	want := make([]encoded, len(insts))
	for i, in := range insts {
		want[i].r1cs, want[i].sym = compiledBytes(t, in)
	}
	circom.ResetIncludeCache()
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different instance, so they race
			// on different cache entries as well as on the same ones.
			for k := range insts {
				i := (k + g*len(insts)/goroutines) % len(insts)
				p, err := insts[i].Compile()
				if err != nil {
					t.Errorf("%s: compile: %v", insts[i].Name, err)
					return
				}
				if !bytes.Equal(p.System.MarshalBinary(), want[i].r1cs) || !bytes.Equal(p.System.MarshalSym(), want[i].sym) {
					t.Errorf("%s: concurrent compile differs from sequential compile", insts[i].Name)
				}
			}
		}(g)
	}
	wg.Wait()
}
