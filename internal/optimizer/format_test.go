package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAppendFixedMatchesFmt is the differential test appendFixed exists
// under: whatever it appends must be byte for byte what fmt's %.0f / %.2f
// print, on the values plans hold and on every edge of its integer fast
// path (ties, the 2^52 hand-over to strconv, subnormals, signs, non-finite
// values).
func TestAppendFixedMatchesFmt(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		for _, prec := range []int{0, 2} {
			got := string(appendFixed([]byte("x"), v, prec))
			if want := "x" + fmt.Sprintf("%.*f", prec, v); got != want {
				t.Fatalf("appendFixed(%v (%#x), %d) = %q, fmt prints %q", v, math.Float64bits(v), prec, got[1:], want[1:])
			}
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.5, 2.5, 3.5, -0.5, -2.5,
		0.005, 0.015, 0.025, 0.035, 0.045, 0.125, 0.375, 0.625, 0.875, 1.005, 2.675, 1.115,
		0.004, 0.0049999999999999, 0.00500000000000001, 0.0001, 1e-9, 1e-300, 5e-324, -0.001, -0.004, -0.005, -0.006,
		0.994, 0.995, 0.996, 0.999, 9.995, 99.995, 999.995,
		123.456, 40123, 6e7, 8e7, 6.4e15, 1e15, 1e15 + 0.5, 1e15 + 1.5, 4503599627370495.5, 4503599627370496, 4503599627370497,
		9007199254740991, 9007199254740992, 9007199254740993, 1e16, 1e18, 1.8446744073709552e19, 1e22, 1e23, 1e100, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1.fffffffffffffp-1023,
		0x1p-11, 0x1p-12, 0x1p-64, 0x1p-65, 0x1.8p-8, 0x1p-7,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(math.Float64frombits(rng.Uint64()))            // any exponent
		check(math.Ldexp(rng.Float64(), rng.Intn(80)-20))    // the magnitudes plans hold
		check(float64(rng.Int63n(1<<40)) / 8)                // exact binary fractions: .125, .375, .5 ties
		check(math.Round(rng.Float64()*1e6)/1e3 + 0.0005)    // decimal near-ties at the third place
		check(float64(rng.Int63n(1<<53)) + float64(i%2)*0.5) // integers and halves up to 2^53
	}
}
