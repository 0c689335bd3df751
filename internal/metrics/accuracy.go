package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultAccuracyWindow is the rolling sample count an Accuracy keeps when
// none is configured.
const DefaultAccuracyWindow = 256

// DefaultDriftQError is the mean q-error above which an Accuracy flags its
// model as drifting. A q-error of 1 is a perfect estimate; the learned-cost
// literature treats sustained q-errors beyond ~2 as a model worth retuning.
const DefaultDriftQError = 2.0

// accMaxStripes bounds the write fan-out of an Accuracy window.
const accMaxStripes = 8

// accStripe is one slice of the rolling window: window/S ring slots behind a
// small mutex. The pad keeps adjacent stripes' mutexes and ring cursors off
// shared cache lines.
type accStripe struct {
	mu     sync.Mutex
	pred   []float64
	act    []float64
	next   int // next slot to overwrite
	filled int // live samples (≤ len(pred))
	_      [64]byte
}

// Accuracy tracks how well one estimator's predictions track reality: a
// rolling window of (predicted, actual) pairs per (system, operator kind),
// summarized as q-error and MAPE. The engine feeds it from every executed
// plan step, closing the paper's estimate-vs-observed loop operationally.
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
	driftQ  atomic.Uint64 // math.Float64bits of the drift threshold
}

// NewAccuracy builds a window holding the last n samples (n <= 0 selects
// DefaultAccuracyWindow) with the default drift threshold.
func NewAccuracy(n int) *Accuracy {
	if n <= 0 {
		n = DefaultAccuracyWindow
	}
	s := accMaxStripes
	for n%s != 0 {
		s /= 2
	}
	a := &Accuracy{stripes: make([]accStripe, s)}
	per := n / s
	for i := range a.stripes {
		a.stripes[i].pred = make([]float64, per)
		a.stripes[i].act = make([]float64, per)
	}
	a.driftQ.Store(math.Float64bits(DefaultDriftQError))
	return a
}

// SetDriftThreshold overrides the mean q-error above which Snapshot reports
// Drifting (q <= 0 restores the default).
func (a *Accuracy) SetDriftThreshold(q float64) {
	if q <= 0 {
		q = DefaultDriftQError
	}
	a.driftQ.Store(math.Float64bits(q))
}

// Observe records one executed operator: its predicted cost and the elapsed
// time actually observed.
func (a *Accuracy) Observe(predictedSec, actualSec float64) {
	k := a.total.Add(1) - 1
	st := &a.stripes[k%uint64(len(a.stripes))]
	st.mu.Lock()
	st.pred[st.next] = predictedSec
	st.act[st.next] = actualSec
	st.next = (st.next + 1) % len(st.pred)
	if st.filled < len(st.pred) {
		st.filled++
	}
	st.mu.Unlock()
}

// Reset empties the rolling window without discarding the lifetime
// observation count. The engine resets a (system, operator) window whenever
// the model behind it changes — promotion or rollback — because the
// retained samples scored the *old* model: leaving them
// in place would keep the Drifting flag latched (and re-fire the tuner)
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

// qError is the symmetric relative error max(p/a, a/p) — the standard
// cardinality/cost-estimation accuracy measure ("How Good Are Query
// Optimizers, Really?"). Non-positive inputs clamp to a tiny epsilon so the
// ratio stays finite.
func qError(p, a float64) float64 {
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
	// them the rolling statistics below cover.
	Count  uint64 `json:"count"`
	Window int    `json:"window"`
	// Q-error statistics over the window: 1 is perfect, 2 means estimates
	// are within 2x of reality.
	MeanQError   float64 `json:"mean_q_error"`
	MedianQError float64 `json:"median_q_error"`
	P95QError    float64 `json:"p95_q_error"`
	MaxQError    float64 `json:"max_q_error"`
	// MAPEPercent is the mean absolute percentage error of predictions
	// against observed times, over the window.
	MAPEPercent float64 `json:"mape_percent"`
	// Drifting reports the window's mean q-error exceeds the drift
	// threshold — the signal an offline retune should pick this model up.
	Drifting bool `json:"drifting"`
}

// Snapshot computes the window's accuracy statistics. Stripes are drained
// one at a time under their own mutexes, so a snapshot pauses at most 1/S of
// concurrent recording; the q-error and MAPE statistics are order-free, so
// the merge is exact for any quiesced window and a bounded-skew approximation
// while observations are in flight (same as any counter scrape).
func (a *Accuracy) Snapshot() AccuracySnapshot {
	var qs []float64
	var mape float64
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		for j := 0; j < st.filled; j++ {
			p, ac := st.pred[j], st.act[j]
			qs = append(qs, qError(p, ac))
			den := math.Abs(ac)
			if den < 1e-9 {
				den = 1e-9
			}
			mape += math.Abs(p-ac) / den
		}
		st.mu.Unlock()
	}
	s := AccuracySnapshot{Count: a.total.Load(), Window: len(qs)}
	n := len(qs)
	if n == 0 {
		return s
	}
	sort.Float64s(qs)
	var sum float64
	for _, q := range qs {
		sum += q
	}
	s.MeanQError = sum / float64(n)
	s.MedianQError = qs[(n-1)/2]
	s.P95QError = qs[int(math.Ceil(0.95*float64(n)))-1]
	s.MaxQError = qs[n-1]
	s.MAPEPercent = 100 * mape / float64(n)
	s.Drifting = s.MeanQError > math.Float64frombits(a.driftQ.Load())
	return s
}
