package ftoa

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite pow10.go from math/big")

// checkBoth holds both layouts to their references for f and −f:
// encoding/json for AppendJSON (strconv for the values json refuses, NaN and
// ±Inf, which the encoder's callers never pass) and strconv's shortest 'g'
// for AppendG.
func checkBoth(t *testing.T, f float64) {
	t.Helper()
	for _, v := range []float64{f, -f} {
		var want []byte
		if math.IsNaN(v) || math.IsInf(v, 0) {
			want = strconv.AppendFloat(nil, v, 'g', -1, 64)
		} else {
			var err error
			if want, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		if got := AppendJSON(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(%#x) = %s, encoding/json %s", math.Float64bits(v), got, want)
		}
		if got, want := AppendG([]byte("x"), v), strconv.AppendFloat([]byte("x"), v, 'g', -1, 64); !bytes.Equal(got, want) {
			t.Fatalf("AppendG(%#x) = %s, strconv %s", math.Float64bits(v), got, want)
		}
	}
}

// checkAround checks f and its n nearest floats on either side.
func checkAround(t *testing.T, f float64, n int) {
	t.Helper()
	up, down := f, f
	checkBoth(t, f)
	for i := 0; i < n; i++ {
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		checkBoth(t, up)
		checkBoth(t, down)
	}
}

// TestMatchesStrconv is the differential test of both layouts: the boundary
// classes where the method or the layout changes branch, then seeded random
// draws from the shapes of value the serving path prints and from raw bit
// patterns.
func TestMatchesStrconv(t *testing.T) {
	for _, f := range []float64{0, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, math.MaxFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), 5e-324 * 3, 1e23, 9007199254740993, 123456789012345678} {
		checkBoth(t, f)
	}
	// Every power of two: the lower end of the rounding interval is closer,
	// except at the smallest normal exponent and below.
	for e := -1074; e <= 1023; e++ {
		checkAround(t, math.Ldexp(1, e), 2)
	}
	// The integer shortcut's edge at 2^53, and the layout thresholds: JSON
	// turns exponential below 1e-6 and from 1e21, %v below 1e-4 and from 1e6.
	for _, f := range []float64{1 << 53, 1e-6, 1e-5, 1e-4, 1e6, 1e21, 1e22, 1, 10, 100} {
		checkAround(t, f, 40)
	}
	for i := int64(-64); i <= 64; i++ {
		checkBoth(t, float64(1<<53+i))
	}
	rng := rand.New(rand.NewSource(1))
	// 1 to 17 significant digits at every decimal exponent.
	for digits := 1; digits <= 17; digits++ {
		for x := -325; x <= 308; x++ {
			m := rng.Int63n(int64(math.Pow10(digits)))
			f, err := strconv.ParseFloat(fmt.Sprintf("%de%d", m, x), 64)
			if err != nil && !math.IsInf(f, 0) {
				t.Fatal(err)
			}
			checkBoth(t, f)
		}
	}
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	for i := 0; i < n; i++ {
		checkBoth(t, math.Float64frombits(rng.Uint64()))
		checkBoth(t, 100*rng.Float64())
		checkBoth(t, 1e-5*rng.Float64())
		checkBoth(t, float64(rng.Int63n(1e9)))
		checkBoth(t, float64(rng.Int63n(1e7))/1000)
		checkBoth(t, 1e22*rng.Float64())
	}
}

// bigPow10 is the exact g(K) = ⌊10^K / 2^r⌋ + 1, r = ⌊log2 10^K⌋ − 127.
func bigPow10(K int) *big.Int {
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(K))), nil)
	g := new(big.Int)
	if K >= 0 {
		// ⌊log2 10^K⌋ = bitlen(10^K) − 1 for K ≥ 0.
		r := p.BitLen() - 1 - 127
		if r >= 0 {
			g.Rsh(p, uint(r))
		} else {
			g.Lsh(p, uint(-r))
		}
	} else {
		// ⌊log2 10^K⌋ = −bitlen(10^−K) for K < 0, so −r = bitlen + 127.
		g.Lsh(big.NewInt(1), uint(p.BitLen()+127))
		g.Quo(g, p)
	}
	return g.Add(g, big.NewInt(1))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// floorLog reports ⌊log_base(num/den)⌋ for positive num, den: an estimate
// from the bit lengths, stepped until base^k ≤ num/den < base^(k+1).
func floorLog(base int64, num, den *big.Int) int {
	k := int(float64(num.BitLen()-den.BitLen()) / math.Log2(float64(base)))
	for !powAtMost(base, k, num, den) {
		k--
	}
	for powAtMost(base, k+1, num, den) {
		k++
	}
	return k
}

// powAtMost reports base^k ≤ num/den.
func powAtMost(base int64, k int, num, den *big.Int) bool {
	p := new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(abs(k))), nil)
	if k >= 0 {
		return p.Mul(p, den).Cmp(num) <= 0
	}
	return p.Mul(p, num).Cmp(den) >= 0
}

func pow10Source() []byte {
	var b bytes.Buffer
	b.WriteString(`// Code generated by "go test -run TestPow10Table -update"; DO NOT EDIT.

package ftoa

// pow10Min and pow10Max bound the powers of ten toDecimal scales by: 10^−k
// for k = ⌊log10 2^q⌋ over every finite float64's binary exponent q.
const (
	pow10Min = -292
	pow10Max = 324
)

// pow10[K−pow10Min] is g(K) = ⌊10^K / 2^r⌋ + 1 with r = ⌊log2 10^K⌋ − 127:
// the leading 128 bits of 10^K, rounded up, 2^127 ≤ g(K) < 2^128.
var pow10 = [pow10Max - pow10Min + 1]uint128{
`)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for K := pow10Min; K <= pow10Max; K++ {
		g := bigPow10(K)
		hi := new(big.Int).Rsh(g, 64).Uint64()
		lo := new(big.Int).And(g, mask).Uint64()
		fmt.Fprintf(&b, "\t{%#016x, %#016x}, // 1e%d\n", hi, lo, K)
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// TestPow10Table checks the checked-in table and the integer logarithms
// toDecimal uses against math/big; with -update it rewrites pow10.go.
func TestPow10Table(t *testing.T) {
	src := pow10Source()
	if *update {
		if err := os.WriteFile("pow10.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got, err := os.ReadFile("pow10.go"); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("pow10.go is not what math/big computes (err %v): run go test -run TestPow10Table -update", err)
	}
	lo127 := new(big.Int).Lsh(big.NewInt(1), 127)
	for K := pow10Min; K <= pow10Max; K++ {
		g := bigPow10(K)
		if g.Cmp(lo127) < 0 || g.BitLen() != 128 {
			t.Fatalf("g(%d) has %d bits, want 128", K, g.BitLen())
		}
		e := pow10[K-pow10Min]
		if got := new(big.Int).Or(new(big.Int).Lsh(new(big.Int).SetUint64(e.hi), 64), new(big.Int).SetUint64(e.lo)); got.Cmp(g) != 0 {
			t.Fatalf("pow10 entry for 1e%d = %x, want %x", K, got, g)
		}
		num, den := big.NewInt(1), big.NewInt(1)
		if K >= 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(K)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(-K)), nil)
		}
		if got, want := flog2pow10(K), floorLog(2, num, den); got != want {
			t.Fatalf("flog2pow10(%d) = %d, want %d", K, got, want)
		}
	}
	// Every binary exponent q of a finite float64, with and without the
	// closer lower end: the decimal exponent k, its table entry and the
	// shift h = q + ⌊log2 10^−k⌋ + 1 in [1, 4].
	for q := -1074; q <= 971; q++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if q >= 0 {
			num.Lsh(num, uint(q))
		} else {
			den.Lsh(den, uint(-q))
		}
		for _, closer := range []bool{false, true} {
			k, want := flog10pow2(q), floorLog(10, num, den)
			if closer {
				k = flog10threeQuartersPow2(q)
				want = floorLog(10, new(big.Int).Mul(num, big.NewInt(3)), new(big.Int).Mul(den, big.NewInt(4)))
			}
			if k != want {
				t.Fatalf("q %d closer %v: k = %d, want %d", q, closer, k, want)
			}
			if -k < pow10Min || -k > pow10Max {
				t.Fatalf("q %d: 10^%d is outside the table", q, -k)
			}
			if h := q + flog2pow10(-k) + 1; h < 1 || h > 4 {
				t.Fatalf("q %d closer %v: h = %d", q, closer, h)
			}
		}
	}
}

// TestAppendAllocs pins both layouts at zero allocations into a buffer with
// room: the digits are written on the stack.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	buf := make([]byte, 0, 64)
	for _, f := range []float64{12.345678901234567, 3, 1e-7, 1.5e300, 80000000} {
		if n := testing.AllocsPerRun(100, func() { buf = AppendJSON(buf[:0], f) }); n != 0 {
			t.Errorf("AppendJSON(%v) allocates %v/op", f, n)
		}
		if n := testing.AllocsPerRun(100, func() { buf = AppendG(buf[:0], f) }); n != 0 {
			t.Errorf("AppendG(%v) allocates %v/op", f, n)
		}
	}
}

// benchValues are shaped like what the serving path prints: estimates and
// actuals in seconds, row counts, widths and selectivities.
var benchValues = []float64{139.52036451912348, 0.4817, 3.0517578125e-05, 80000000, 1000, 0.001234567, 42.5, 7.281e-07}

var sink []byte

// BenchmarkAppendJSON times AppendJSON against the strconv calls the answer
// encoder made before it.
func BenchmarkAppendJSON(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.Run("ftoa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = AppendJSON(buf[:0], benchValues[i%len(benchValues)])
		}
		sink = buf
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := benchValues[i%len(benchValues)]
			if a := math.Abs(f); a < 1e-6 || a >= 1e21 {
				buf = strconv.AppendFloat(buf[:0], f, 'e', -1, 64)
			} else {
				buf = strconv.AppendFloat(buf[:0], f, 'f', -1, 64)
			}
		}
		sink = buf
	})
}

// BenchmarkAppendG times AppendG against strconv's shortest 'g'.
func BenchmarkAppendG(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.Run("ftoa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = AppendG(buf[:0], benchValues[i%len(benchValues)])
		}
		sink = buf
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], benchValues[i%len(benchValues)], 'g', -1, 64)
		}
		sink = buf
	})
}
