package metrics

import (
	"sync"
	"sync/atomic"
)

// DefaultAccuracyWindow is the rolling sample count an Accuracy keeps when
// none is configured.
const DefaultAccuracyWindow = 256

// DefaultDriftQError is the mean q-error above which a window reads drifting
// when no threshold is configured. A q-error of 1 is a perfect estimate; the
// learned-cost literature treats sustained q-errors beyond ~2 as a model worth
// retuning.
const DefaultDriftQError = 2.0

// accMaxStripes bounds the write fan-out of an Accuracy window.
const accMaxStripes = 8

// accStripe is one slice of the rolling window: window/S ring slots of
// q-errors behind a small mutex. The pad keeps adjacent stripes' mutexes and
// ring cursors off shared cache lines.
type accStripe struct {
	mu     sync.Mutex
	q      []float64
	next   int // next slot to overwrite
	filled int // live samples (≤ len(q))
	_      [64]byte
}

// Accuracy tracks how well one estimator's predictions track reality: a
// rolling window of the q-errors of (predicted, actual) pairs per (system,
// operator kind), summarized as their mean. The engine feeds it from every
// executed plan step, closing the paper's estimate-vs-observed loop
// operationally.
//
// The window is striped: a global atomic cursor assigns observations to
// stripes round-robin, so the i-th observation always lands in stripe
// i mod S, slot (i/S) mod (window/S). That placement is a bijection onto the
// ring positions of the unsharded design — sequential callers keep exactly
// the last `window` samples, while concurrent recorders (every executed step
// on every core funnels through one of these) contend only 1/S of the time
// instead of on a single mutex. The stripe count is the largest power of two
// ≤ accMaxStripes dividing the window (1 for windows that resist splitting).
type Accuracy struct {
	stripes []accStripe
	total   atomic.Uint64 // lifetime observations; also the round-robin cursor
}

// NewAccuracy builds a window holding the last n samples (n <= 0 selects
// DefaultAccuracyWindow).
func NewAccuracy(n int) *Accuracy {
	if n <= 0 {
		n = DefaultAccuracyWindow
	}
	s := accMaxStripes
	for n%s != 0 {
		s /= 2
	}
	a := &Accuracy{stripes: make([]accStripe, s)}
	for i := range a.stripes {
		a.stripes[i].q = make([]float64, n/s)
	}
	return a
}

// Observe records one executed operator: its predicted cost and the elapsed
// time actually observed.
func (a *Accuracy) Observe(predictedSec, actualSec float64) {
	q := QError(predictedSec, actualSec)
	k := a.total.Add(1) - 1
	st := &a.stripes[k%uint64(len(a.stripes))]
	st.mu.Lock()
	st.q[st.next] = q
	st.next = (st.next + 1) % len(st.q)
	if st.filled < len(st.q) {
		st.filled++
	}
	st.mu.Unlock()
}

// Reset empties the rolling window without discarding the lifetime
// observation count. The engine resets a (system, operator) window whenever
// the model behind it changes — promotion or rollback — because the
// retained samples scored the *old* model: leaving them
// in place would keep the drift flag latched (and re-fire the tuner)
// long after the new model fixed the calibration.
func (a *Accuracy) Reset() {
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		st.next = 0
		st.filled = 0
		st.mu.Unlock()
	}
}

// QError is the symmetric relative error max(p/a, a/p) — the standard
// cardinality/cost-estimation accuracy measure ("How Good Are Query
// Optimizers, Really?"). Non-positive inputs clamp to a tiny epsilon so the
// ratio stays finite.
func QError(p, a float64) float64 {
	const eps = 1e-9
	if p < eps {
		p = eps
	}
	if a < eps {
		a = eps
	}
	if p > a {
		return p / a
	}
	return a / p
}

// AccuracySnapshot summarizes one estimator's rolling accuracy window.
type AccuracySnapshot struct {
	// Count is the lifetime number of observations; Window is how many of
	// them the mean covers.
	Count  uint64 `json:"count"`
	Window int    `json:"window"`
	// MeanQError is the mean q-error over the window: 1 is perfect, 2 means
	// estimates are within 2x of reality on average.
	MeanQError float64 `json:"mean_q_error"`
}

// Snapshot sums the window's q-errors in slot order. Stripes are drained one
// at a time under their own mutexes, so a snapshot pauses at most 1/S of
// concurrent recording; the merge is exact for any quiesced window and a
// bounded-skew approximation while observations are in flight (same as any
// counter scrape).
func (a *Accuracy) Snapshot() AccuracySnapshot {
	var sum float64
	var n int
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		for _, q := range st.q[:st.filled] {
			sum += q
		}
		n += st.filled
		st.mu.Unlock()
	}
	s := AccuracySnapshot{Count: a.total.Load(), Window: n}
	if n > 0 {
		s.MeanQError = sum / float64(n)
	}
	return s
}
