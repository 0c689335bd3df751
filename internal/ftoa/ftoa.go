// Package ftoa formats a float64 as its shortest round-tripping decimal, byte
// for byte as strconv does, for the numbers the serving path prints once or
// more per statement: the answer encoder's estimates and actuals
// (encoding/json's layout, AppendJSON), the simulators' noise keys and the
// row engine's group order (fmt's %v, which is strconv's 'g' with precision
// −1: AppendG).
//
// The digits come from the Schubfach method (R. Giulietti, "The Schubfach way
// to render doubles", 2020): three 128-bit products against a checked-in
// table of powers of ten pick, inside the float's rounding interval, the
// decimal with the fewest digits, and among those the closest, ties to even.
// That is the decimal strconv's Ryu (U. Adams, PLDI 2018) picks too, and the
// layouts place it as strconv's fmtF and fmtE do, so the bytes never differ;
// ftoa_test.go holds both layouts to strconv. Zero, NaN and ±Inf are left to
// strconv, which writes −0 as "-0".
package ftoa

import (
	"math"
	"math/bits"
	"strconv"
)

// AppendJSON appends f as encoding/json writes a float64: positional in the
// magnitude range [1e-6, 1e21), exponential outside it with the exponent
// unpadded ("1e-7", "1e+21").
func AppendJSON(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if special(u) {
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	var buf [24]byte
	d, dp := shortest(&buf, u)
	// |f| < 1e-6 exactly when dp ≤ −6, and |f| ≥ 1e21 when dp ≥ 22: the
	// shortest decimal round-trips, so it lies on the same side of either
	// bound as f does.
	if dp < -5 || dp > 21 {
		return appendE(b, d, dp, 1)
	}
	return appendF(b, d, dp)
}

// AppendG appends f as strconv.AppendFloat(b, f, 'g', -1, 64) does, which is
// also fmt's %v: exponential when the decimal exponent is below −4 or at
// least 6, with the exponent padded to two digits ("1e+06", "1.5e-05"),
// positional otherwise.
func AppendG(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if special(u) {
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	var buf [24]byte
	d, dp := shortest(&buf, u)
	if x := dp - 1; x < -4 || x >= 6 {
		return appendE(b, d, dp, 2)
	}
	return appendF(b, d, dp)
}

// special reports ±0, ±Inf and NaN, which strconv renders.
func special(u uint64) bool {
	return u<<1 == 0 || u>>52&0x7ff == 0x7ff
}

// pairs holds "00" to "99": the digits are written two at a time.
const pairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// shortest writes the shortest decimal digits of the finite, nonzero float
// with bits u (the sign is ignored) into the end of buf, and returns them
// with the decimal point's place dp: |f| = 0.d₁d₂…dₙ × 10^dp, strconv's
// decimalSlice, except that d may end in zeros (see trim).
func shortest(buf *[24]byte, u uint64) (d []byte, dp int) {
	u &^= 1 << 63
	var e int
	m, ok := integral(u)
	if !ok {
		m, e = toDecimal(u)
	}
	i := len(buf)
	for m >= 100 {
		q := m / 100
		r := (m - q*100) * 2
		i -= 2
		buf[i], buf[i+1] = pairs[r], pairs[r+1]
		m = q
	}
	if m >= 10 {
		i -= 2
		buf[i], buf[i+1] = pairs[2*m], pairs[2*m+1]
	} else {
		i--
		buf[i] = byte('0' + m)
	}
	return buf[i:], len(buf) - i + e
}

// trim drops d's trailing zeros, which a layout writes only where the
// decimal point's place asks for them. d[0] is never '0'.
func trim(d []byte) []byte {
	n := len(d)
	for d[n-1] == '0' {
		n--
	}
	return d[:n]
}

// appendF lays d out positionally, as strconv's fmtF does at the shortest
// precision: the integer part (zero-padded up to the point), then the
// fraction, if any.
func appendF(b, d []byte, dp int) []byte {
	if dp < len(d) {
		d = trim(d)
	}
	switch {
	case dp <= 0:
		b = append(b, '0', '.')
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return append(b, d...)
	case dp >= len(d):
		b = append(b, d...)
		for n := len(d); n < dp; n++ {
			b = append(b, '0')
		}
		return b
	}
	return append(append(append(b, d[:dp]...), '.'), d[dp:]...)
}

// appendE lays d out as strconv's fmtE does at the shortest precision,
// "d.ddde±x", with the exponent written in at least pad digits.
func appendE(b, d []byte, dp, pad int) []byte {
	d = trim(d)
	b = append(b, d[0])
	if len(d) > 1 {
		b = append(append(b, '.'), d[1:]...)
	}
	x, sign := dp-1, byte('+')
	if x < 0 {
		x, sign = -x, '-'
	}
	b = append(b, 'e', sign)
	switch {
	case x >= 100:
		b = append(b, byte('0'+x/100))
		x %= 100
		return append(b, pairs[2*x], pairs[2*x+1])
	case x >= 10 || pad == 2:
		return append(b, pairs[2*x], pairs[2*x+1])
	}
	return append(b, byte('0'+x))
}

// integral returns the positive float64 v with bits u as an integer m when v
// is one below 2^53, which is its own shortest decimal: a shift, where
// toDecimal would take three products.
func integral(u uint64) (m uint64, ok bool) {
	q := int(u>>52) - 1075
	c := u&(1<<52-1) | 1<<52
	if -53 < q && q <= 0 && c&(1<<uint(-q)-1) == 0 {
		return c >> uint(-q), true
	}
	return 0, false
}

// toDecimal returns m and e with v = m·10^e, where v is the finite, positive
// float64 with bits u, m has the fewest digits of any decimal that rounds to
// v, and among those m·10^e is the closest to v, ties to an even m. m may end
// in zeros; the layouts drop them.
//
// Schubfach, as in the paper the package doc cites: with v = c·2^q and its
// rounding interval [c−½, c+½]·2^q (its lower end closer when c is a power
// of two above the subnormals), scale the three points by 10^−k, k = ⌊log10
// of the interval's width⌋, so at most one multiple of 10 and a few integers
// fall inside; vb, vbl and vbr are 4× the scaled points rounded to odd,
// computed from g(−k) exactly enough that the choices below are the exact
// ones.
func toDecimal(u uint64) (m uint64, e int) {
	frac := u & (1<<52 - 1)
	exp := int(u >> 52)
	c, q := frac, -1074
	if exp != 0 {
		c |= 1 << 52
		q = exp - 1075
	}
	closer := frac == 0 && exp > 1
	k, cbl := flog10pow2(q), 4*c-2
	if closer {
		k, cbl = flog10threeQuartersPow2(q), cbl+1
	}
	// Shifted left by h, in [1, 4], a point p makes roundToOdd(g, p<<h) the
	// point p·2^q·10^−k, rounded to odd.
	h := uint(q + flog2pow10(-k) + 1)
	g := &pow10[-k-pow10Min]
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, 4*c<<h)
	vbr := roundToOdd(g, (4*c+2)<<h)
	lower, upper := vbl, vbr
	if c&1 != 0 { // an odd c's interval is open
		lower++
		upper--
	}
	s := vb >> 2
	if s >= 10 {
		// At most one of sp·10 and (sp+1)·10 is inside: the one-digit-shorter
		// candidates.
		sp := s / 10
		upInside := lower <= 40*sp
		wpInside := 40*sp+40 <= upper
		if upInside != wpInside {
			if wpInside {
				sp++
			}
			return sp, k + 1
		}
	}
	uInside := lower <= 4*s
	wInside := 4*s+4 <= upper
	if uInside != wInside {
		if wInside {
			s++
		}
		return s, k
	}
	// Both s and s+1 are inside: the closer, and the even one on a tie.
	mid := 4*s + 2
	if vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd is ⌊g·cp / 2^128⌋ with its lowest bit set when the exact
// product has a fraction: the 192-bit product's top word, sticky with what
// lies below. g overestimates the power of ten it stands for by less than
// one, which moves the product by less than cp < 2^64: never across an
// integer, and never onto a fraction the table's precision could hide (the
// paper proves both).
func roundToOdd(g *uint128, cp uint64) uint64 {
	x1, _ := bits.Mul64(g.lo, cp)
	y1, y0 := bits.Mul64(g.hi, cp)
	z, carry := bits.Add64(y0, x1, 0)
	vb := y1 + carry
	if z != 0 {
		vb |= 1
	}
	return vb
}

// The integer logarithms toDecimal needs, exact over the exponents it passes
// (TestPow10Table checks every one against math/big).

// flog10pow2 is ⌊log10 2^q⌋.
func flog10pow2(q int) int { return q * 1262611 >> 22 }

// flog10threeQuartersPow2 is ⌊log10 ¾·2^q⌋.
func flog10threeQuartersPow2(q int) int { return (q*1262611 - 524031) >> 22 }

// flog2pow10 is ⌊log2 10^k⌋.
func flog2pow10(k int) int { return k * 1741647 >> 19 }

// uint128 is one entry of pow10, hi·2^64 + lo.
type uint128 struct{ hi, lo uint64 }
