package obs

import (
	"time"

	"intellisphere/internal/metrics"
)

// Sample is one time-series point: what the SLO engine scores, snapshotted
// every collector step. Rates are per-second over the step; P99Sec is
// windowed (computed from histogram bucket deltas within the step), so a
// latency spike shows up immediately instead of being averaged into the
// process lifetime.
type Sample struct {
	Unix int64
	// QPS counts queries the engine accepted (including ones that then
	// failed); ShedRate counts requests rejected at admission, which never
	// reach the engine.
	QPS       float64
	ErrorRate float64
	ShedRate  float64
	P99Sec    float64
	// QError carries the current mean q-error per "system/operator" key —
	// a gauge passed through from the accuracy trackers, not a delta.
	QError map[string]float64

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

// History is the fixed-size time-series ring of Samples the SLO engine reads:
// a metrics.Ring (the event ring's mechanism — readers never block the
// collector) plus the step its samples are taken at.
type History struct {
	step time.Duration
	ring *metrics.Ring[Sample]
}

// DefaultHistorySize is the observer's sample capacity — at the default
// 5 s step this holds 90 minutes of history, the longest slow window an
// objective may declare.
const DefaultHistorySize = 1080

// NewHistory builds a ring holding n samples taken every step.
func NewHistory(n int, step time.Duration) *History {
	if step <= 0 {
		step = 5 * time.Second
	}
	return &History{step: step, ring: metrics.NewRing(n, func(s *Sample) *uint64 { return &s.seq })}
}

// Step reports the collector interval samples are taken at.
func (h *History) Step() time.Duration { return h.step }

// Append publishes one sample.
func (h *History) Append(s *Sample) { h.ring.Record(s) }

// Recent returns up to n of the most recent samples, newest first (n <= 0
// selects the whole buffer).
func (h *History) Recent(n int) []*Sample { return h.ring.Recent(n) }
