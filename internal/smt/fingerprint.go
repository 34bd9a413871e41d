package smt

// Allocation-free structural fingerprints for equation deduplication and
// pair-derivation bucketing: the solver buckets equations by 64-bit hashes
// of their expanded polynomials.
//
//   - quadShapeFingerprint hashes only the *shape* of a polynomial (which
//     monomials occur, not their coefficients), making it invariant under
//     nonzero scaling. Equality modulo scaling is confirmed exactly inside
//     a bucket by equalModScale, so a fingerprint collision can never
//     change the deduplication result.
//   - quadPartFingerprint hashes the bilinear monomials *with* their
//     coefficients, for deriveQuadDiff's bucketing. Equal quadratic parts
//     always hash equally, so no candidate pair is ever missed; an
//     (astronomically unlikely, but deterministic) bucket collision is
//     harmless because the pair scan re-checks that the difference is
//     linear before using it.
//
// The hashes fold the per-term hashes with addition while walking the
// sorted term slices through the ordered visitors.

import (
	"qed2/internal/ff"
	"qed2/internal/poly"
)

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// spreads structured inputs (small var IDs, field limbs) over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashElem folds the raw limbs of e into h.
func hashElem(h uint64, e ff.Element) uint64 {
	for i := 0; i < ff.ElementLimbs; i++ {
		h = mix64(h ^ e[i])
	}
	return h
}

// quadShapeFingerprint returns a scale-invariant fingerprint of q: two
// polynomials that are nonzero scalar multiples of each other always get
// the same value. Only monomial identities (variable pairs, linear
// variables, a constant-present flag) are hashed — coefficients change
// under scaling and must not contribute.
func quadShapeFingerprint(q *poly.Quad) uint64 {
	var quadSum, linSum uint64
	var nQuad, nLin uint64
	q.VisitQuadTerms(func(p poly.VarPair, _ ff.Element) {
		quadSum += mix64(uint64(p.X)<<32 ^ uint64(p.Y) ^ 0x9e3779b97f4a7c15)
		nQuad++
	})
	lin := q.Lin()
	lin.VisitTerms(func(x int, _ ff.Element) {
		linSum += mix64(uint64(x) ^ 0xd1b54a32d192ed03)
		nLin++
	})
	h := mix64(quadSum ^ mix64(linSum))
	h = mix64(h ^ nQuad<<1 ^ nLin<<33)
	if !lin.Constant().IsZero() {
		h = mix64(h ^ 0x2545f4914f6cdd1d)
	}
	return h
}

// quadPartFingerprint returns an exact fingerprint of q's bilinear
// monomials (variable pairs and coefficients, ignoring the linear part).
// Polynomials with identical quadratic parts always collide, which is the
// grouping deriveQuadDiff needs.
func quadPartFingerprint(q *poly.Quad) uint64 {
	var sum uint64
	var n uint64
	q.VisitQuadTerms(func(p poly.VarPair, c ff.Element) {
		h := mix64(uint64(p.X)<<32 ^ uint64(p.Y) ^ 0x9e3779b97f4a7c15)
		sum += hashElem(h, c)
		n++
	})
	return mix64(sum ^ n)
}

// leadCoeff returns the coefficient a canonical scaling would divide by:
// the first bilinear monomial in canonical pair order, else the first linear
// coefficient, else the constant. Zero only for the zero polynomial.
func leadCoeff(q *poly.Quad) ff.Element {
	var lead ff.Element
	found := false
	q.VisitQuadTerms(func(_ poly.VarPair, c ff.Element) {
		if !found {
			lead, found = c, true
		}
	})
	q.Lin().VisitTerms(func(_ int, c ff.Element) {
		if !found {
			lead, found = c, true
		}
	})
	if !found {
		return q.Lin().Constant()
	}
	return lead
}

// equalModScale reports whether a = k·b for some nonzero field constant k,
// with two scalings instead of a field inversion.
func equalModScale(a, b *poly.Quad) bool {
	la, lb := leadCoeff(a), leadCoeff(b)
	if la.IsZero() || lb.IsZero() {
		// A zero lead means the whole polynomial is zero (term slices never
		// store zeros), so the only match is zero = zero.
		return la.IsZero() && lb.IsZero()
	}
	return a.Scale(lb).Equal(b.Scale(la))
}

// quadSet is a set of polynomials modulo nonzero scaling: the structure
// behind equation deduplication and derivePairs' duplicate check.
// Membership is decided by exact equalModScale confirmation within a
// fingerprint bucket, so hash collisions cannot drop equations.
type quadSet struct {
	buckets map[uint64][]*poly.Quad
}

func newQuadSet() *quadSet {
	return &quadSet{buckets: map[uint64][]*poly.Quad{}}
}

// add inserts q, reporting whether it was absent. Stored polynomials are
// never mutated afterwards (Quad operations are persistent).
func (s *quadSet) add(q *poly.Quad) bool {
	fp := quadShapeFingerprint(q)
	for _, m := range s.buckets[fp] {
		if equalModScale(m, q) {
			return false
		}
	}
	s.buckets[fp] = append(s.buckets[fp], q)
	return true
}

// expandEq returns the polynomial A·B − C of an equation, the canonical
// object both fingerprints operate on.
func expandEq(e Equation) *poly.Quad {
	return poly.MulLin(e.A, e.B).Sub(poly.QuadFromLin(e.C))
}

// expanded returns e's expansion, computing it on first use. The memo is
// shared by every state cloned after that (Quad values are immutable) and
// stays valid until a side changes; addSub then replaces the Equation.
func (e *Equation) expanded() *poly.Quad {
	if e.q == nil {
		e.q = expandEq(*e)
	}
	return e.q
}
