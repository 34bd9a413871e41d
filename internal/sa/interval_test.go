package sa

import (
	"math/big"
	"testing"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

func iv(lo, hi int64) *Interval { return &Interval{Lo: bi(lo), Hi: bi(hi)} }

func TestIntervalBasics(t *testing.T) {
	b := iv(-3, 5)
	if !b.Contains(bi(-3)) || !b.Contains(bi(0)) || !b.Contains(bi(5)) {
		t.Error("Contains rejects in-range values")
	}
	if b.Contains(bi(-4)) || b.Contains(bi(6)) {
		t.Error("Contains accepts out-of-range values")
	}
	if !iv(7, 7).IsSingleton() || b.IsSingleton() {
		t.Error("IsSingleton wrong")
	}
	if boolRange.Lo.Sign() != 0 || boolRange.Hi.Cmp(bigOne) != 0 {
		t.Errorf("boolRange = %v", boolRange)
	}
}

func TestTermAndProdRange(t *testing.T) {
	lo, hi := termRange(bi(-2), iv(1, 3))
	if lo.Cmp(bi(-6)) != 0 || hi.Cmp(bi(-2)) != 0 {
		t.Errorf("termRange = [%v,%v]", lo, hi)
	}
	// (-1..2) * (-3..1): endpoint products {3,-1,-6,2} → [-6, 3].
	lo, hi = prodRange(bi(1), iv(-1, 2), iv(-3, 1))
	if lo.Cmp(bi(-6)) != 0 || hi.Cmp(bi(3)) != 0 {
		t.Errorf("prodRange = [%v,%v]", lo, hi)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	for _, tc := range []struct{ a, b, fl, ce int64 }{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{0, 5, 0, 0},
	} {
		if got := floorDiv(bi(tc.a), bi(tc.b)); got.Cmp(bi(tc.fl)) != 0 {
			t.Errorf("floorDiv(%d,%d) = %v", tc.a, tc.b, got)
		}
		if got := ceilDiv(bi(tc.a), bi(tc.b)); got.Cmp(bi(tc.ce)) != 0 {
			t.Errorf("ceilDiv(%d,%d) = %v", tc.a, tc.b, got)
		}
	}
}
