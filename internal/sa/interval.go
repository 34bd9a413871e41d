package sa

import (
	"fmt"
	"math/big"

	"qed2/internal/ff"
)

// The interval domain: per-signal value ranges under the signed embedding.
//
// A field element e is identified with its signed representative
// f.Signed(e) ∈ (−(p−1)/2, (p−1)/2], and an Interval [Lo, Hi] is the fact
// "in every satisfying assignment, the signed representative of this signal
// lies in [Lo, Hi]" — a theorem about the constraint set, exactly like the
// constant facts of the const domain. Top (no information) is represented
// by a nil Interval; the empty interval never appears in the state (an
// empty meet is a range conflict, recorded separately and surfaced by the
// range-violation detector).
//
// All arithmetic on intervals is exact big.Int arithmetic over signed
// representatives. A transfer function is applied only when its result
// provably stays inside the signed range, so field wrap-around can never
// be mistaken for integer arithmetic; anything that could wrap degrades to
// Top. Soundness sketches live in DESIGN.md §17.

// Interval is a closed integer interval [Lo, Hi] of signed representatives.
// The zero value is unusable; intervals are built with the constructors
// below. Lo ≤ Hi always holds for intervals stored in an AbsState.
type Interval struct {
	Lo, Hi *big.Int
}

// newInterval builds [lo, hi] taking ownership of both ints.
func newInterval(lo, hi *big.Int) *Interval { return &Interval{Lo: lo, Hi: hi} }

// singletonInterval builds [v, v].
func singletonInterval(v *big.Int) *Interval {
	return &Interval{Lo: v, Hi: new(big.Int).Set(v)}
}

// boolInterval is the seed interval [0, 1] of the boolean domain.
func boolInterval() *Interval {
	return &Interval{Lo: new(big.Int), Hi: big.NewInt(1)}
}

// intervalOfConst embeds a proven constant as the singleton interval of its
// signed representative.
func intervalOfConst(f *ff.Field, v ff.Element) *Interval {
	return singletonInterval(f.Signed(v))
}

// IsSingleton reports whether the interval pins a single value.
func (iv *Interval) IsSingleton() bool { return iv.Lo.Cmp(iv.Hi) == 0 }

// Contains reports whether v ∈ [Lo, Hi].
func (iv *Interval) Contains(v *big.Int) bool {
	return iv.Lo.Cmp(v) <= 0 && v.Cmp(iv.Hi) <= 0
}

// ContainsZero reports whether 0 ∈ [Lo, Hi].
func (iv *Interval) ContainsZero() bool { return iv.Lo.Sign() <= 0 && iv.Hi.Sign() >= 0 }

// Width returns Hi − Lo.
func (iv *Interval) Width() *big.Int { return new(big.Int).Sub(iv.Hi, iv.Lo) }

// meet intersects two intervals; ok is false when the intersection is empty
// (a range conflict: two theorems about the same signal exclude each other,
// so no satisfying assignment exists).
func (iv *Interval) meet(other *Interval) (*Interval, bool) {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo.Cmp(lo) > 0 {
		lo = other.Lo
	}
	if other.Hi.Cmp(hi) < 0 {
		hi = other.Hi
	}
	if lo.Cmp(hi) > 0 {
		return nil, false
	}
	return newInterval(new(big.Int).Set(lo), new(big.Int).Set(hi)), true
}

// tightens reports whether other ⊂ iv strictly on at least one endpoint —
// i.e. recording other after iv would refine the state.
func (iv *Interval) tightens(other *Interval) bool {
	return other.Lo.Cmp(iv.Lo) > 0 || other.Hi.Cmp(iv.Hi) < 0
}

// String renders the interval for findings and debugging.
func (iv *Interval) String() string {
	if iv.IsSingleton() {
		return fmt.Sprintf("[%v]", iv.Lo)
	}
	return fmt.Sprintf("[%v, %v]", iv.Lo, iv.Hi)
}

// maxBits returns the smallest k with [Lo, Hi] ⊆ [0, 2^k − 1], and whether
// such a k exists (Lo ≥ 0) — the maxbit(k) tag of the Circom tag system.
func (iv *Interval) maxBits() (int, bool) {
	if iv.Lo.Sign() < 0 {
		return 0, false
	}
	return iv.Hi.BitLen(), true
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

// signedBounds returns the representable signed range (lowLim, highLim) of
// the field: every signed representative satisfies lowLim < v ≤ highLim,
// with highLim = (p−1)/2 for odd p. An interval that provably stays within
// [lowLim+1, highLim] describes integer arithmetic with no field
// wrap-around; transfer functions whose result range could leave it must
// degrade to Top.
func signedBounds(f *ff.Field) (lo, hi *big.Int) {
	hi = new(big.Int).Rsh(f.Modulus(), 1)
	lo = new(big.Int).Neg(hi)
	return lo, hi
}
