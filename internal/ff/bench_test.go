package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

// BenchmarkFFOps measures the Element hot-path operations against the
// retained big.Int reference implementation (math/big's ModInverse and
// ModSqrt for inv and sqrt). sqrt/one is the bit-constraint discriminant
// the solver asks for most, sqrt/square a random square, and exp/halfq the
// exponentiation by (q − 1)/2 inside every other Sqrt.
func BenchmarkFFOps(b *testing.B) {
	for _, tc := range []struct {
		name string
		f    *Field
	}{
		{"BN254", BN254()},
		{"F1009", MustField(big.NewInt(1009))},
	} {
		f := tc.f
		rng := rand.New(rand.NewSource(42))
		ea, eb := f.RandFrom(rng), f.RandFrom(rng)
		for ea.IsZero() || eb.IsZero() {
			ea, eb = f.RandFrom(rng), f.RandFrom(rng)
		}
		ba, bb := f.ToBig(ea), f.ToBig(eb)

		b.Run(tc.name+"/mul/element", func(b *testing.B) {
			r := ea
			for i := 0; i < b.N; i++ {
				r = f.Mul(r, eb)
			}
			sinkElt = r
		})
		b.Run(tc.name+"/mul/bigint", func(b *testing.B) {
			r := new(big.Int).Set(ba)
			for i := 0; i < b.N; i++ {
				r = f.MulBig(r, bb)
			}
			sinkBig = r
		})
		b.Run(tc.name+"/add/element", func(b *testing.B) {
			r := ea
			for i := 0; i < b.N; i++ {
				r = f.Add(r, eb)
			}
			sinkElt = r
		})
		b.Run(tc.name+"/add/bigint", func(b *testing.B) {
			r := new(big.Int).Set(ba)
			for i := 0; i < b.N; i++ {
				r = f.AddBig(r, bb)
			}
			sinkBig = r
		})
		b.Run(tc.name+"/inv/element", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkElt = f.MustInv(ea)
			}
		})
		b.Run(tc.name+"/inv/bigint", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := f.InvBig(ba)
				if err != nil {
					b.Fatal(err)
				}
				sinkBig = r
			}
		})
		b.Run(tc.name+"/sqrt/one", func(b *testing.B) {
			one := f.One()
			for i := 0; i < b.N; i++ {
				sinkElt, _ = f.Sqrt(one)
			}
		})
		sq := f.Square(ea)
		b.Run(tc.name+"/sqrt/square", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, ok := f.Sqrt(sq)
				if !ok {
					b.Fatal("Sqrt of a square failed")
				}
				sinkElt = r
			}
		})
		b.Run(tc.name+"/sqrt/bigint", func(b *testing.B) {
			bsq := f.ToBig(sq)
			for i := 0; i < b.N; i++ {
				sinkBig = new(big.Int).ModSqrt(bsq, f.p)
			}
		})
		b.Run(tc.name+"/exp/element", func(b *testing.B) {
			e := big.NewInt(0xdeadbeef)
			for i := 0; i < b.N; i++ {
				sinkElt = f.Exp(ea, e)
			}
		})
		b.Run(tc.name+"/exp/halfq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkElt = f.expFixed(ea, f.tsHalfQ, f.tsHalfQDigits)
			}
		})
		b.Run(tc.name+"/frombig", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkElt = f.FromBig(ba)
			}
		})
	}
}

var (
	sinkElt Element
	sinkBig *big.Int
)
