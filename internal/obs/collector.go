package obs

import (
	"math"
	"time"

	"intellisphere/internal/metrics"
)

// Cumulative is the monotonic-counter snapshot the collector differentiates
// into per-step rates. The serving layer supplies a source closure building
// one of these from engine/admission stats; the collector owns nothing but
// the differencing.
type Cumulative struct {
	Queries     uint64
	Errors      uint64
	Shed        uint64
	RateLimited uint64
	// Latency is the engine-time query latency histogram snapshot; bucket
	// deltas between ticks yield the windowed p99.
	Latency metrics.HistogramSnapshot
	// QError is the current mean q-error per "system/operator" key (a
	// gauge, copied into the sample as-is).
	QError map[string]float64
}

// Collector periodically turns Cumulative snapshots into history Samples
// and drives the SLO engine. One background goroutine; Tick is exported so
// tests can step a collector deterministically without the goroutine.
type Collector struct {
	src      func() Cumulative
	hist     *History
	slo      *SLO
	interval time.Duration
	now      func() time.Time

	prev    Cumulative
	prevAt  time.Time
	started bool

	stop chan struct{}
	done chan struct{}
}

// NewCollector builds a collector sampling src every interval into hist and
// evaluating slo (which may be nil) after each sample. A nil clock selects
// the wall clock.
func NewCollector(src func() Cumulative, hist *History, slo *SLO, interval time.Duration, clock func() time.Time) *Collector {
	if clock == nil {
		clock = time.Now
	}
	if interval <= 0 {
		interval = hist.Step()
	}
	return &Collector{
		src:      src,
		hist:     hist,
		slo:      slo,
		interval: interval,
		now:      clock,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Tick takes one sample at now. The first tick only primes the baseline
// (rates need two points); callers running the background loop never see
// this, tests stepping manually should tick once before asserting.
func (c *Collector) Tick(now time.Time) {
	cur := c.src()
	if !c.started {
		c.started = true
		c.prev, c.prevAt = cur, now
		return
	}
	dt := now.Sub(c.prevAt).Seconds()
	if dt <= 0 {
		dt = c.interval.Seconds()
	}
	s := &Sample{
		Unix:      now.Unix(),
		QPS:       rate(cur.Queries, c.prev.Queries, dt),
		ErrorRate: rate(cur.Errors, c.prev.Errors, dt),
		ShedRate:  rate(cur.Shed+cur.RateLimited, c.prev.Shed+c.prev.RateLimited, dt),
		P99Sec:    deltaQuantile(c.prev.Latency, cur.Latency, 0.99),
		QError:    cur.QError,
	}
	c.prev, c.prevAt = cur, now
	c.hist.Append(s)
	if c.slo != nil {
		c.slo.Evaluate(now)
	}
}

// Start launches the background sampling loop.
func (c *Collector) Start() {
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		c.Tick(c.now()) // prime the baseline immediately
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.Tick(c.now())
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit.
func (c *Collector) Stop() {
	close(c.stop)
	<-c.done
}

// rate is the per-second delta of a monotonic counter (0 on regression,
// which only happens if the source restarts underneath us).
func rate(cur, prev uint64, dt float64) float64 {
	return float64(delta(cur, prev)) / dt
}

func delta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// deltaQuantile estimates a quantile of the observations that landed
// between two cumulative histogram snapshots — the windowed p99 the
// history stores. Buckets are matched by upper bound (the layouts are
// identical for snapshots of one histogram); an empty window yields 0.
func deltaQuantile(prev, cur metrics.HistogramSnapshot, q float64) float64 {
	if len(cur.Buckets) == 0 {
		return 0
	}
	counts := make([]uint64, len(cur.Buckets))
	var total uint64
	for i := range cur.Buckets {
		var p uint64
		if i < len(prev.Buckets) && prev.Buckets[i].UpperBoundSec == cur.Buckets[i].UpperBoundSec {
			p = prev.Buckets[i].Count
		}
		counts[i] = delta(cur.Buckets[i].Count, p)
		total += counts[i]
	}
	overflow := delta(cur.Overflow, prev.Overflow)
	total += overflow
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return cur.Buckets[i].UpperBoundSec
		}
	}
	return cur.Buckets[len(cur.Buckets)-1].UpperBoundSec
}
