package metrics

import "sync"

// DefaultAccuracyWindow is the rolling sample count an Accuracy keeps when
// none is configured.
const DefaultAccuracyWindow = 256

// DefaultDriftQError is the mean q-error above which a window reads drifting
// when no threshold is configured. A q-error of 1 is a perfect estimate; the
// learned-cost literature treats sustained q-errors beyond ~2 as a model worth
// retuning.
const DefaultDriftQError = 2.0

// Accuracy tracks how well one estimator's predictions track reality: a
// rolling window of the q-errors of (predicted, actual) pairs per (system,
// operator kind), summarized as their mean. The engine feeds it from every
// executed plan step, closing the paper's estimate-vs-observed loop
// operationally.
//
// The window is one ring behind one mutex: an observation is a q-error
// division and one slot store under the lock (DESIGN.md §15 measures it
// against stripes).
type Accuracy struct {
	mu     sync.Mutex
	q      []float64
	next   int    // next slot to overwrite
	filled int    // live samples (≤ len(q))
	total  uint64 // lifetime observations
}

// NewAccuracy builds a window holding the last n samples (n <= 0 selects
// DefaultAccuracyWindow).
func NewAccuracy(n int) *Accuracy {
	if n <= 0 {
		n = DefaultAccuracyWindow
	}
	return &Accuracy{q: make([]float64, n)}
}

// Observe records one executed operator: its predicted cost and the elapsed
// time actually observed.
func (a *Accuracy) Observe(predictedSec, actualSec float64) {
	q := QError(predictedSec, actualSec)
	a.mu.Lock()
	a.q[a.next] = q
	a.next = (a.next + 1) % len(a.q)
	if a.filled < len(a.q) {
		a.filled++
	}
	a.total++
	a.mu.Unlock()
}

// Reset empties the rolling window without discarding the lifetime
// observation count. The engine resets a (system, operator) window whenever
// the model behind it changes — promotion or rollback — because the
// retained samples scored the *old* model: leaving them
// in place would keep the drift flag latched (and re-fire the tuner)
// long after the new model fixed the calibration.
func (a *Accuracy) Reset() {
	a.mu.Lock()
	a.next = 0
	a.filled = 0
	a.mu.Unlock()
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

// Snapshot sums the window's q-errors in slot order under the mutex.
func (a *Accuracy) Snapshot() AccuracySnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum float64
	for _, q := range a.q[:a.filled] {
		sum += q
	}
	s := AccuracySnapshot{Count: a.total, Window: a.filled}
	if a.filled > 0 {
		s.MeanQError = sum / float64(a.filled)
	}
	return s
}
