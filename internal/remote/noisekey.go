package remote

import (
	"strconv"

	"intellisphere/internal/ftoa"
	"intellisphere/internal/plan"
)

// The simulators key their deterministic noise on a textual rendering of the
// operator spec. The original construction went through fmt.Sprintf, which
// dominated the serving-path profile (reflection plus a string allocation per
// operator). The builder below produces the exact same byte sequence with
// append-only calls into a caller-provided stack buffer and feeds it to an
// inline FNV-1a stream, so the hot path allocates nothing. Byte-for-byte
// equality with the fmt rendering is pinned by noisekey_test.go — drifting
// would silently change every simulated timing in the repo. Numbers go
// through internal/ftoa's shortest-digit kernel, which its own tests hold to
// strconv, and FuzzNoiseKeyFloat holds the key's numbers to strconv too.

// noiseKey is an append-only builder for noise-key bytes.
type noiseKey []byte

// newNoiseKey starts a key in buf with the given literal prefix.
func newNoiseKey(buf []byte, prefix string) noiseKey {
	return append(noiseKey(buf[:0]), prefix...)
}

func (k noiseKey) str(s string) noiseKey { return append(k, s...) }
func (k noiseKey) sep() noiseKey         { return append(k, '|') }

// float appends a float64 exactly as fmt's %v verb renders one: shortest
// 'g'-format (ftoa.AppendG). An integral value in [1, 1e6) — row counts and
// widths, most calls when serving — is written as the integer: the same text
// ('g' keeps an exponent below six positional), and strconv.AppendInt, inlined
// here, writes it about 4 ns sooner than the kernel's integer branch (DESIGN
// §12, "Shortest floats").
func (k noiseKey) float(f float64) noiseKey {
	if f >= 1 && f < 1e6 && f == float64(int64(f)) {
		return strconv.AppendInt(k, int64(f), 10)
	}
	return ftoa.AppendG(k, f)
}

// dims appends a float slice exactly as %v renders one: "[a b c]".
func (k noiseKey) dims(ds ...float64) noiseKey {
	k = append(k, '[')
	for i, d := range ds {
		if i > 0 {
			k = append(k, ' ')
		}
		k = k.float(d)
	}
	return append(k, ']')
}

// joinDims appends spec.Dims() for a join without materializing the slice.
func (k noiseKey) joinDims(j plan.JoinSpec) noiseKey {
	return k.dims(
		j.Left.RowSize, j.Left.Rows,
		j.Right.RowSize, j.Right.Rows,
		j.Left.ProjectedSize, j.Right.ProjectedSize,
		j.OutputRows,
	)
}

// aggDims appends spec.Dims() for an aggregation.
func (k noiseKey) aggDims(a plan.AggSpec) noiseKey {
	return k.dims(a.InputRows, a.InputRowSize, a.OutputRows, a.OutputRowSize)
}

// FNV-1a 64-bit parameters (hash/fnv, inlined to hash without a Writer).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// noiseBytes is noise for an already-rendered key. It reproduces the exact
// hash stream of noise's fmt.Fprintf(h, "%d|%s", seed, key) without
// allocating: decimal seed bytes, a '|', then the key bytes, through FNV-1a.
func noiseBytes(key []byte, seed int64, amplitude float64) float64 {
	if amplitude == 0 {
		return 1
	}
	var sb [20]byte // fits any int64 in decimal
	h := uint64(fnvOffset64)
	for _, c := range strconv.AppendInt(sb[:0], seed, 10) {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	h = (h ^ uint64('|')) * fnvPrime64
	for _, c := range key {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return noiseFinish(h, amplitude)
}

// noiseFinish maps the raw hash to the 1±amplitude factor (splitmix64
// finalizer for bit diffusion, then uniform [0,1)).
func noiseFinish(v uint64, amplitude float64) float64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	u := float64(v>>11) / float64(1<<53)
	return 1 + amplitude*(2*u-1)
}
