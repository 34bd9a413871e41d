package sa

import (
	"math/big"
	"testing"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

func iv(lo, hi int64) *Interval { return newInterval(bi(lo), bi(hi)) }

func TestIntervalBasics(t *testing.T) {
	b := iv(-3, 5)
	if !b.Contains(bi(-3)) || !b.Contains(bi(0)) || !b.Contains(bi(5)) {
		t.Error("Contains rejects in-range values")
	}
	if b.Contains(bi(-4)) || b.Contains(bi(6)) {
		t.Error("Contains accepts out-of-range values")
	}
	if !b.ContainsZero() || iv(1, 4).ContainsZero() || iv(-4, -1).ContainsZero() {
		t.Error("ContainsZero wrong")
	}
	if !singletonInterval(bi(7)).IsSingleton() || b.IsSingleton() {
		t.Error("IsSingleton wrong")
	}
	if got := iv(2, 5).Width(); got.Cmp(bi(3)) != 0 {
		t.Errorf("Width = %v, want 3 (Hi−Lo)", got)
	}
	if s := boolInterval(); s.Lo.Sign() != 0 || s.Hi.Cmp(bigOne) != 0 {
		t.Errorf("boolInterval = %v", s)
	}
}

func TestIntervalMeetAndTightens(t *testing.T) {
	m, ok := iv(0, 10).meet(iv(5, 20))
	if !ok || m.Lo.Cmp(bi(5)) != 0 || m.Hi.Cmp(bi(10)) != 0 {
		t.Errorf("meet = %v, %v", m, ok)
	}
	if _, ok := iv(0, 3).meet(iv(4, 9)); ok {
		t.Error("disjoint meet should be empty")
	}
	if !iv(0, 10).tightens(iv(0, 9)) || !iv(0, 10).tightens(iv(1, 10)) {
		t.Error("strictly smaller interval should tighten")
	}
	if iv(0, 10).tightens(iv(0, 10)) {
		t.Error("equal interval must not tighten")
	}
}

func TestIntervalMaxBits(t *testing.T) {
	for _, tc := range []struct {
		in   *Interval
		want int
		ok   bool
	}{
		{iv(0, 0), 0, true},
		{iv(0, 1), 1, true},
		{iv(0, 255), 8, true},
		{iv(0, 256), 9, true},
		{iv(3, 12), 4, true},
		{iv(-1, 4), 0, false}, // negative lower bound: no unsigned bit width
	} {
		got, ok := tc.in.maxBits()
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("maxBits(%v) = %d,%v want %d,%v", tc.in, got, ok, tc.want, tc.ok)
		}
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
