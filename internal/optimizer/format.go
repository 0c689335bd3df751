package optimizer

import (
	"math"
	"strconv"
)

// appendFixed appends v with prec digits after the decimal point (prec is 0
// or 2), byte for byte what strconv.AppendFloat(b, v, 'f', prec, 64) — and so
// fmt's %.0f / %.2f — produces. strconv formats 'f' with a fixed precision
// through its arbitrary-precision decimal, which is most of what rendering a
// plan costs; every value a plan normally holds (below 2^53 after scaling by
// 10^prec) is instead rounded exactly in 64-bit integer arithmetic here.
// Anything else — NaN, infinities, huge values — goes to strconv.
func appendFixed(b []byte, v float64, prec int) []byte {
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7ff
	mant := bits & (1<<52 - 1)
	scale := uint64(1)
	if prec == 2 {
		scale = 100
	}
	// v = mant × 2^-shift with mant < 2^53. shift ≤ 0 means an integer beyond
	// 2^52 (or NaN/Inf, exp 0x7ff): left to strconv.
	shift := 1075 - exp
	if exp == 0 {
		shift = 1074 // subnormal: no implicit leading bit
	} else {
		mant |= 1 << 52
	}
	if shift <= 0 || (prec != 0 && prec != 2) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	// n = round-half-even(mant × scale / 2^shift); mant × scale < 2^60.
	var n uint64
	if shift < 64 {
		scaled := mant * scale
		n = scaled >> shift
		rem, half := scaled&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || (rem == half && n&1 == 1) {
			n++
		}
	}
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	if prec == 0 {
		return strconv.AppendUint(b, n, 10)
	}
	b = strconv.AppendUint(b, n/100, 10)
	return append(b, '.', byte('0'+n%100/10), byte('0'+n%10))
}
