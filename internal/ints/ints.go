// Package ints provides overflow-checked int64 arithmetic and small
// number-theoretic helpers used throughout the polyhedral machinery.
//
// The Fourier–Motzkin eliminator and the loop-bound generator keep all
// inequality coefficients as int64. Coefficients stay small for the
// problem sizes this generator targets, but pairwise FM combination can
// multiply coefficients, so every arithmetic step is overflow-checked and
// panics with a descriptive message rather than silently wrapping.
package ints

import (
	"fmt"
	"math"
)

// AddOK returns a+b and whether the sum fits in an int64.
func AddOK(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

// MulOK returns a*b and whether the product fits in an int64.
func MulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	// MinInt64 * -1 wraps to MinInt64, which the division check misses.
	return p, p/b == a && !(a == -1 && b == math.MinInt64) && !(b == -1 && a == math.MinInt64)
}

// AddChecked returns a+b, panicking on int64 overflow.
func AddChecked(a, b int64) int64 {
	s, ok := AddOK(a, b)
	if !ok {
		panic(fmt.Sprintf("ints: overflow in %d + %d", a, b))
	}
	return s
}

// SubChecked returns a-b, panicking on int64 overflow.
func SubChecked(a, b int64) int64 {
	d := a - b
	if (b < 0 && a > 0 && d < 0) || (b > 0 && a < 0 && d >= 0) {
		panic(fmt.Sprintf("ints: overflow in %d - %d", a, b))
	}
	return d
}

// MulChecked returns a*b, panicking on int64 overflow.
func MulChecked(a, b int64) int64 {
	p, ok := MulOK(a, b)
	if !ok {
		panic(fmt.Sprintf("ints: overflow in %d * %d", a, b))
	}
	return p
}

// NegChecked returns -a, panicking on overflow (math.MinInt64).
func NegChecked(a int64) int64 {
	if a == -a && a != 0 {
		panic("ints: overflow negating MinInt64")
	}
	return -a
}

// Abs returns |a|, panicking on overflow (math.MinInt64).
func Abs(a int64) int64 {
	if a < 0 {
		return NegChecked(a)
	}
	return a
}

// GCD returns the greatest common divisor of |a| and |b|.
// GCD(0, 0) = 0 by convention.
func GCD(a, b int64) int64 {
	a, b = Abs(a), Abs(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of |a| and |b|, with LCM(0, x) = 0.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	return MulChecked(Abs(a)/g, Abs(b))
}

// FloorDiv returns floor(a/b) for b != 0.
func FloorDiv(a, b int64) int64 {
	if b == 0 {
		panic("ints: FloorDiv by zero")
	}
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// CeilDiv returns ceil(a/b) for b != 0.
func CeilDiv(a, b int64) int64 {
	if b == 0 {
		panic("ints: CeilDiv by zero")
	}
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// Min returns the smaller of a and b.
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
