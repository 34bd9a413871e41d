package ff

import "math/bits"

// This file implements large-field inversion by the optimized binary GCD of
// T. Pornin, "Optimized Binary GCD for Modular Inversion", IACR ePrint
// 2020/972, Algorithm 2, in its variable-time form.
//
// The classic binary GCD keeps a, b with a ≡ u·y and b ≡ v·y (mod p) and
// halves or subtracts one bit at a time, touching all limbs every step.
// Algorithm 2 instead runs invBatch steps on 64-bit approximations of a and
// b (their low invBatch bits, exact, and their top 33 bits, approximate),
// recording the steps as a 2×2 matrix of small signed factors, and only
// then applies the matrix to the full-width a, b, u and v. The low bits
// being exact makes a·f0 + b·g0 divisible by 2^invBatch; a sign flip
// repairs any misstep the approximate top bits caused. Once a = 0, b is
// gcd(y, p) = 1 and v = y⁻¹.

// invBatch is the number of binary-GCD steps run per batch: k - 1 for
// Pornin's k = 32, so that an approximation fits one word and every factor
// stays within ±2^invBatch.
const invBatch = 31

const invLowMask = 1<<invBatch - 1

// invMont returns the Montgomery form of a⁻¹ for a nonzero Montgomery-form
// x = a·R. It inverts the limbs of x as a plain integer, which yields
// a⁻¹·R⁻¹, and one Montgomery multiplication by R³ turns that into a⁻¹·R.
func (f *Field) invMont(x Element) Element {
	a, b := x, f.pLimbs
	u, v := Element{1}, Element{}
	for !a.IsZero() {
		f0, g0, f1, g1 := invSteps(invApprox(a, b))
		na, f0, g0 := invApply(a, b, f0, g0)
		nb, f1, g1 := invApply(a, b, f1, g1)
		a, b = na, nb
		u, v = f.invApplyMod(u, v, f0, g0), f.invApplyMod(u, v, f1, g1)
	}
	return f.montMul(v, f.rCube)
}

// invApprox returns the 64-bit approximations of a and b that one batch
// runs on. When both fit a word they are exact; otherwise each keeps its
// low invBatch bits and, above them, the top 33 bits of the common width
// n = max(len(a), len(b)).
func invApprox(a, b Element) (uint64, uint64) {
	n := lenLimbs(a)
	if nb := lenLimbs(b); nb > n {
		n = nb
	}
	if n <= 64 {
		return a[0], b[0]
	}
	sh := uint(n - 64 + invBatch)
	return a[0]&invLowMask | shrWord(a, sh)<<invBatch,
		b[0]&invLowMask | shrWord(b, sh)<<invBatch
}

// invSteps runs invBatch binary-GCD steps on the approximations a, b (b
// odd) and returns the update factors: the batch maps (a, b) to
// ((a·f0 + b·g0) / 2^invBatch, (a·f1 + b·g1) / 2^invBatch).
func invSteps(a, b uint64) (f0, g0, f1, g1 int64) {
	f0, g0, f1, g1 = 1, 0, 0, 1
	for i := 0; i < invBatch; i++ {
		if a&1 != 0 {
			if a < b {
				a, b = b, a
				f0, g0, f1, g1 = f1, g1, f0, g0
			}
			a -= b
			f0 -= f1
			g0 -= g1
		}
		a >>= 1
		f1 <<= 1
		g1 <<= 1
	}
	return f0, g0, f1, g1
}

// invApply returns |a·f + b·g| / 2^invBatch for a, b < 2^256, along with
// f and g negated if the sum was negative, so that the same factors can be
// applied to the Bézout coefficients.
func invApply(a, b Element, f, g int64) (Element, int64, int64) {
	w := linComb(a, b, f, g)
	if int64(w[4]) < 0 {
		var bw uint64
		for i := range w {
			w[i], bw = bits.Sub64(0, w[i], bw)
		}
		f, g = -f, -g
	}
	return shr5(w), f, g
}

// invApplyMod returns (u·f + v·g) / 2^invBatch mod p for u, v in [0, p).
// The division is a 31-bit Montgomery reduction: adding k·p, with k chosen
// so that the low invBatch bits cancel, keeps the value mod p and makes the
// shift exact. The shifted value lies in (-p, 2p); one conditional add or
// subtract of p makes it canonical.
func (f *Field) invApplyMod(u, v Element, fu, gv int64) Element {
	w := linComb(u, v, fu, gv)
	k := (w[0] * f.pInv) & invLowMask
	p := &f.pLimbs
	var c uint64
	c, w[0] = madd(p[0], k, w[0], 0)
	c, w[1] = madd(p[1], k, w[1], c)
	c, w[2] = madd(p[2], k, w[2], c)
	c, w[3] = madd(p[3], k, w[3], c)
	w[4] += c
	r := shr5(w)
	if int64(w[4]) < 0 {
		r, _ = addLimbs(r, f.pLimbs)
		return r
	}
	if w[4]>>invBatch != 0 || !ltLimbs(r, f.pLimbs) {
		r, _ = subLimbs(r, f.pLimbs)
	}
	return r
}

// linComb returns x·f + y·g for x, y < 2^256 and |f|, |g| ≤ 2^invBatch as a
// 320-bit two's-complement integer. A negative factor k is multiplied as
// the word k + 2^64, and the surplus x·2^64 is then subtracted.
func linComb(x, y Element, f, g int64) [5]uint64 {
	uf, ug := uint64(f), uint64(g)
	var r [5]uint64
	var c uint64
	c, r[0] = bits.Mul64(x[0], uf)
	c, r[1] = madd(x[1], uf, c, 0)
	c, r[2] = madd(x[2], uf, c, 0)
	c, r[3] = madd(x[3], uf, c, 0)
	r[4] = c
	c, r[0] = madd(y[0], ug, r[0], 0)
	c, r[1] = madd(y[1], ug, r[1], c)
	c, r[2] = madd(y[2], ug, r[2], c)
	c, r[3] = madd(y[3], ug, r[3], c)
	r[4] += c
	mf, mg := uint64(f>>63), uint64(g>>63)
	var bw uint64
	r[1], bw = bits.Sub64(r[1], x[0]&mf, 0)
	r[2], bw = bits.Sub64(r[2], x[1]&mf, bw)
	r[3], bw = bits.Sub64(r[3], x[2]&mf, bw)
	r[4], _ = bits.Sub64(r[4], x[3]&mf, bw)
	r[1], bw = bits.Sub64(r[1], y[0]&mg, 0)
	r[2], bw = bits.Sub64(r[2], y[1]&mg, bw)
	r[3], bw = bits.Sub64(r[3], y[2]&mg, bw)
	r[4], _ = bits.Sub64(r[4], y[3]&mg, bw)
	return r
}

// lenLimbs returns the bit length of e.
func lenLimbs(e Element) int {
	for i := ElementLimbs - 1; i >= 0; i-- {
		if e[i] != 0 {
			return 64*i + bits.Len64(e[i])
		}
	}
	return 0
}

// shrWord returns the low word of e >> sh for 0 < sh < 256.
func shrWord(e Element, sh uint) uint64 {
	i, s := sh/64, sh%64
	w := e[i] >> s
	if s != 0 && i+1 < ElementLimbs {
		w |= e[i+1] << (64 - s)
	}
	return w
}

// shr5 returns the low 256 bits of x >> invBatch.
func shr5(x [5]uint64) Element {
	return Element{
		x[0]>>invBatch | x[1]<<(64-invBatch),
		x[1]>>invBatch | x[2]<<(64-invBatch),
		x[2]>>invBatch | x[3]<<(64-invBatch),
		x[3]>>invBatch | x[4]<<(64-invBatch),
	}
}
