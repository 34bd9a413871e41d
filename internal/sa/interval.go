package sa

import (
	"fmt"
	"math/big"

	"qed2/internal/ff"
)

// Value ranges under the signed embedding.
//
// A field element e is identified with its signed representative
// f.Signed(e) ∈ (−(p−1)/2, (p−1)/2], and an Interval [Lo, Hi] states that
// in every satisfying assignment the signed representative of a signal
// lies in [Lo, Hi]. Ranges are not a stored domain: AbsState.Interval
// derives them from the const and bool facts (a constant's singleton, or
// [0, 1] for a boolean), which are the only ranges the rules establish.
// The window check reads them, with exact big.Int arithmetic over signed
// representatives, so field wrap-around is never mistaken for integer
// arithmetic. Soundness sketches live in DESIGN.md §17.

// Interval is a closed integer interval [Lo, Hi] of signed representatives,
// Lo ≤ Hi. Intervals are shared and never written after construction.
type Interval struct {
	Lo, Hi *big.Int
}

// boolRange is the range [0, 1] of every boolean signal, shared by all of
// them.
var boolRange = &Interval{Lo: new(big.Int), Hi: big.NewInt(1)}

// IsSingleton reports whether the interval pins a single value.
func (iv *Interval) IsSingleton() bool { return iv.Lo.Cmp(iv.Hi) == 0 }

// Contains reports whether v ∈ [Lo, Hi].
func (iv *Interval) Contains(v *big.Int) bool {
	return iv.Lo.Cmp(v) <= 0 && v.Cmp(iv.Hi) <= 0
}

// String renders the interval for findings and debugging.
func (iv *Interval) String() string {
	if iv.IsSingleton() {
		return fmt.Sprintf("[%v]", iv.Lo)
	}
	return fmt.Sprintf("[%v, %v]", iv.Lo, iv.Hi)
}

// termRange is the exact integer range of c·x for a signed coefficient c
// and x ∈ [iv.Lo, iv.Hi]: the endpoint products, ordered by the sign of c.
func termRange(c *big.Int, iv *Interval) (lo, hi *big.Int) {
	lo = new(big.Int).Mul(c, iv.Lo)
	hi = new(big.Int).Mul(c, iv.Hi)
	if c.Sign() < 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

// prodRange is the exact integer range of c·x·y for x ∈ a, y ∈ b: the
// extrema over the four endpoint products, scaled by c.
func prodRange(c *big.Int, a, b *Interval) (lo, hi *big.Int) {
	p1 := new(big.Int).Mul(a.Lo, b.Lo)
	p2 := new(big.Int).Mul(a.Lo, b.Hi)
	p3 := new(big.Int).Mul(a.Hi, b.Lo)
	p4 := new(big.Int).Mul(a.Hi, b.Hi)
	lo, hi = p1, p1
	for _, p := range []*big.Int{p2, p3, p4} {
		if p.Cmp(lo) < 0 {
			lo = p
		}
		if p.Cmp(hi) > 0 {
			hi = p
		}
	}
	lo = new(big.Int).Mul(c, lo)
	hi = new(big.Int).Mul(c, hi)
	if c.Sign() < 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(a, b, new(big.Int))
	if r.Sign() < 0 {
		q.Sub(q, bigOne)
	}
	return q
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(a, b, new(big.Int))
	if r.Sign() > 0 {
		q.Add(q, bigOne)
	}
	return q
}

var bigOne = big.NewInt(1)

// fullRange returns the field's whole signed range [−(p−1)/2, (p−1)/2],
// the trivially true range of a signal with no const or bool fact.
func fullRange(f *ff.Field) *Interval {
	hi := new(big.Int).Rsh(f.Modulus(), 1)
	return &Interval{Lo: new(big.Int).Neg(hi), Hi: hi}
}
