package obs

import (
	"time"

	"intellisphere/internal/metrics"
)

// Sample is one time-series point: the key serving series snapshotted every
// collector step. Rates are per-second over the step; quantiles are
// windowed (computed from histogram bucket deltas within the step), so a
// latency spike shows up immediately instead of being averaged into the
// process lifetime.
type Sample struct {
	Unix int64 `json:"ts"`
	// QPS counts queries the engine accepted (including ones that then
	// failed); ShedRate counts requests rejected at admission, which never
	// reach the engine.
	QPS       float64 `json:"qps"`
	ErrorRate float64 `json:"error_rate"`
	ShedRate  float64 `json:"shed_rate"`
	RetryRate float64 `json:"retry_rate"`
	P50Sec    float64 `json:"p50_sec"`
	P99Sec    float64 `json:"p99_sec"`
	// CacheHitRatio is the plan-cache hit fraction within the step (NaN-free:
	// 0 when the step had no lookups).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// QError carries the current mean q-error per "system/operator" key —
	// a gauge passed through from the accuracy trackers, not a delta.
	QError map[string]float64 `json:"q_error,omitempty"`

	seq uint64 // position in the History ring, stamped by Append
}

// MaxQError returns the worst per-(system,operator) mean q-error in the
// sample (0 when no accuracy observations exist).
func (s *Sample) MaxQError() float64 {
	var max float64
	for _, v := range s.QError {
		if v > max {
			max = v
		}
	}
	return max
}

// History is the fixed-size time-series ring of Samples, the embedded store
// behind /history and the SLO engine: a metrics.Ring (the event ring's
// mechanism — readers never block the collector) plus the step its samples
// are taken at.
type History struct {
	step time.Duration
	ring *metrics.Ring[Sample]
}

// DefaultHistorySize is the sample capacity when none is configured — at
// the default 5 s step this holds 90 minutes of history.
const DefaultHistorySize = 1080

// NewHistory builds a ring holding n samples taken every step (n <= 0
// selects DefaultHistorySize).
func NewHistory(n int, step time.Duration) *History {
	if n <= 0 {
		n = DefaultHistorySize
	}
	if step <= 0 {
		step = 5 * time.Second
	}
	return &History{step: step, ring: metrics.NewRing(n, func(s *Sample) *uint64 { return &s.seq })}
}

// Step reports the collector interval samples are taken at.
func (h *History) Step() time.Duration {
	if h == nil {
		return 0
	}
	return h.step
}

// Append publishes one sample.
func (h *History) Append(s *Sample) {
	if h != nil {
		h.ring.Record(s)
	}
}

// Count reports how many samples were ever appended.
func (h *History) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.ring.Count()
}

// Recent returns up to n of the most recent samples, newest first (n <= 0
// selects the whole buffer).
func (h *History) Recent(n int) []*Sample {
	if h == nil {
		return nil
	}
	return h.ring.Recent(n)
}

// Window returns the samples covering the trailing window ending at now,
// oldest first, downsampled so consecutive points are at least step apart
// (step <= the base step returns every sample). This is the /history
// response body.
func (h *History) Window(now time.Time, window, step time.Duration) []*Sample {
	if h == nil || window <= 0 {
		return nil
	}
	n := int(window/h.step) + 1
	recent := h.Recent(n)
	cutoff := now.Add(-window).Unix()
	// recent is newest-first; reverse into oldest-first while filtering.
	asc := make([]*Sample, 0, len(recent))
	for i := len(recent) - 1; i >= 0; i-- {
		if recent[i].Unix >= cutoff {
			asc = append(asc, recent[i])
		}
	}
	if step <= h.step {
		return asc
	}
	gap := int64(step / time.Second)
	out := asc[:0]
	var last int64
	for i, s := range asc {
		if i == 0 || s.Unix-last >= gap {
			out = append(out, s)
			last = s.Unix
		}
	}
	return out
}
