package ints

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddChecked(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {1, 2, 3}, {-5, 3, -2}, {math.MaxInt64 - 1, 1, math.MaxInt64},
		{math.MinInt64 + 1, -1, math.MinInt64},
	}
	for _, c := range cases {
		if got := AddChecked(c.a, c.b); got != c.want {
			t.Errorf("AddChecked(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAddCheckedOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	AddChecked(math.MaxInt64, 1)
}

func TestSubCheckedOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	SubChecked(math.MinInt64, 1)
}

func TestMulChecked(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 5, 0}, {5, 0, 0}, {3, 7, 21}, {-3, 7, -21}, {-3, -7, 21},
		{1 << 31, 1 << 31, 1 << 62},
	}
	for _, c := range cases {
		if got := MulChecked(c.a, c.b); got != c.want {
			t.Errorf("MulChecked(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCheckedOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	MulChecked(math.MaxInt64, 2)
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {12, 18, 6}, {-12, 18, 6},
		{12, -18, 6}, {-12, -18, 6}, {7, 13, 1}, {100, 100, 100},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 5, 0}, {5, 0, 0}, {4, 6, 12}, {-4, 6, 12}, {7, 13, 91}, {6, 6, 6},
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b); got != c.want {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, floor, ceil int64 }{
		{7, 2, 3, 4}, {-7, 2, -4, -3}, {7, -2, -4, -3}, {-7, -2, 3, 4},
		{6, 3, 2, 2}, {-6, 3, -2, -2}, {0, 5, 0, 0}, {1, 1, 1, 1},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.floor {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
		if got := CeilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	for _, f := range []func(){
		func() { FloorDiv(1, 0) },
		func() { CeilDiv(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on division by zero")
				}
			}()
			f()
		}()
	}
}

// Property: FloorDiv and CeilDiv agree with the mathematical definitions
// q = floor(a/b): b*q <= a < b*(q+1) for b>0, and symmetric for b<0.
func TestFloorDivProperty(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		A, B := int64(a), int64(b)
		q := FloorDiv(A, B)
		r := A - q*B
		// Remainder of floored division has the sign of the divisor.
		return r >= 0 && r < Abs(B) || (B < 0 && r <= 0 && r > B)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilFloorDuality(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		A, B := int64(a), int64(b)
		// ceil(a/b) == -floor(-a/b)
		return CeilDiv(A, B) == -FloorDiv(-A, B)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGCDProperty(t *testing.T) {
	f := func(a, b int32) bool {
		A, B := int64(a), int64(b)
		g := GCD(A, B)
		if A == 0 && B == 0 {
			return g == 0
		}
		if g <= 0 {
			return false
		}
		return A%g == 0 && B%g == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxAbs(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 || Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Min/Max wrong")
	}
	if Abs(-7) != 7 || Abs(7) != 7 || Abs(0) != 0 {
		t.Error("Abs wrong")
	}
}

func TestAddMulOK(t *testing.T) {
	for _, c := range []struct {
		a, b int64
		add  bool // a+b fits
		mul  bool // a*b fits
	}{
		{3, 4, true, true},
		{math.MaxInt64, 1, false, true},
		{math.MaxInt64, -1, true, true},
		{math.MinInt64, -1, false, false}, // the product wraps back to MinInt64
		{-1, math.MinInt64, false, false},
		{math.MinInt64, 1, true, true},
		{math.MinInt64, 0, true, true},
		{1 << 32, 1 << 31, true, false},
		{-(1 << 32), 1 << 31, true, true}, // exactly MinInt64
		{math.MinInt64, math.MinInt64, false, false},
	} {
		if s, ok := AddOK(c.a, c.b); ok != c.add || (ok && s != c.a+c.b) {
			t.Errorf("AddOK(%d, %d) = %d, %v; want ok=%v", c.a, c.b, s, ok, c.add)
		}
		if p, ok := MulOK(c.a, c.b); ok != c.mul || (ok && p != c.a*c.b) {
			t.Errorf("MulOK(%d, %d) = %d, %v; want ok=%v", c.a, c.b, p, ok, c.mul)
		}
	}
}
