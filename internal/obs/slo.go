package obs

import (
	"math"
	"sync"
	"time"

	"intellisphere/internal/metrics"
)

// ObjectiveKind selects what an Objective measures.
type ObjectiveKind string

const (
	// KindAvailability burns on the fraction of offered requests that
	// failed or were shed.
	KindAvailability ObjectiveKind = "availability"
	// KindLatency burns on steps whose windowed p99 exceeded Threshold
	// seconds.
	KindLatency ObjectiveKind = "latency"
	// KindQError burns on steps whose worst per-(system,operator) mean
	// q-error exceeded Threshold — the estimator-accuracy SLO.
	KindQError ObjectiveKind = "qerror"
)

// Objective is one declarative SLO evaluated over the sample ring with
// multi-window burn-rate alerting (the Google SRE workbook shape): the
// alert fires only when both a fast and a slow window burn error budget
// faster than BurnFactor, so a brief blip (fast window only) stays pending
// and a long slow bleed (slow window only) does not page.
type Objective struct {
	Name string        `json:"name"`
	Kind ObjectiveKind `json:"kind"`
	// Target is the good fraction objective (e.g. 0.999 availability). The
	// error budget is 1-Target; burn rate is bad-fraction / budget.
	Target float64 `json:"target"`
	// Threshold parameterizes latency (seconds of p99) and qerror (mean
	// q-error bound) objectives; unused for availability.
	Threshold float64 `json:"threshold,omitempty"`
	// FastWindow and SlowWindow are the two burn evaluation windows.
	FastWindow time.Duration `json:"-"`
	SlowWindow time.Duration `json:"-"`
	// BurnFactor is the burn-rate multiple that fires the alert (14.4
	// burns a 30-day budget in ~2 days).
	BurnFactor float64 `json:"burn_factor"`
	// ClearAfter is the hysteresis hold: a firing alert resolves only
	// after both windows stay below BurnFactor/2 for this long.
	ClearAfter time.Duration `json:"-"`
}

// Alert states, in escalation order.
const (
	StateInactive = "inactive"
	StatePending  = "pending" // fast window burning, slow window not yet
	StateFiring   = "firing"
	StateResolved = "resolved" // recently cleared after firing
)

// Alert is the externally visible evaluation of one objective — the /slo
// response element and the source of the Prometheus SLO gauges.
type Alert struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Target    float64 `json:"target"`
	Threshold float64 `json:"threshold,omitempty"`
	State     string  `json:"state"`
	// FastBurn and SlowBurn are the current burn-rate multiples over the
	// two windows.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// SinceUnix is when the alert entered its current state.
	SinceUnix int64 `json:"since,omitempty"`
	// FiredTotal and ResolvedTotal count lifetime transitions.
	FiredTotal    uint64 `json:"fired_total"`
	ResolvedTotal uint64 `json:"resolved_total"`
	// FastWindowSec/SlowWindowSec/BurnFactor echo the objective's tuning.
	FastWindowSec float64 `json:"fast_window_sec"`
	SlowWindowSec float64 `json:"slow_window_sec"`
	BurnFactor    float64 `json:"burn_factor"`
}

// sloState is one objective's mutable evaluation state.
type sloState struct {
	obj        Objective
	state      string
	since      time.Time
	clearSince time.Time // start of the current below-threshold stretch
	fastBurn   float64
	slowBurn   float64
	fired      uint64
	resolved   uint64
}

// Cumulative is the monotonic-counter snapshot the SLO differences into one
// step's Sample. The serving layer supplies a source closure building one
// from engine and admission stats.
type Cumulative struct {
	Queries uint64
	Errors  uint64
	// Shed counts requests refused at admission (queue full, deadline or
	// rate limit); they never reach the engine.
	Shed uint64
	// Latency is the engine-time query latency histogram snapshot; bucket
	// deltas between ticks yield the step's p99.
	Latency metrics.HistogramSnapshot
	// MaxQError is the worst per-(system, operator) mean q-error (a gauge,
	// copied into the sample as-is; 0 before any accuracy observation).
	MaxQError float64
}

// Sample is one step of the serving counters, what the objectives score.
// Counts are the step's deltas; P99Sec is windowed (computed from the
// histogram bucket deltas within the step), so a latency spike shows up
// immediately instead of being averaged into the process lifetime.
type Sample struct {
	// End is when the step ended (the tick that took the sample).
	End time.Time
	// Queries counts queries the engine accepted (including ones that then
	// failed); Shed counts requests rejected at admission.
	Queries   uint64
	Errors    uint64
	Shed      uint64
	P99Sec    float64
	MaxQError float64

	seq uint64 // position in the sample ring, stamped by Record
}

// SampleRingSize is the SLO's sample capacity — at the default 5 s step it
// holds 90 minutes, the longest slow window an objective may declare.
const SampleRingSize = 1080

// SLO samples the serving counters once per step, keeps the samples in a
// metrics.Ring and evaluates a set of objectives over them. Tick is one step
// (tests call it directly), Start runs it on a ticker and Snapshot serves
// /slo. One mutex covers the ring and the state transitions: the step is the
// ring's only writer and only reader, and it never runs on the query path.
type SLO struct {
	step time.Duration

	mu      sync.Mutex
	states  []*sloState
	samples *metrics.Ring[Sample]
	prev    Cumulative
	primed  bool

	stop chan struct{}
	done chan struct{}
}

// NewSLO builds an evaluator sampling every step (<= 0 selects 5 s) for the
// given objectives. Objectives with a Target outside (0, 1) or a
// non-positive BurnFactor are dropped.
func NewSLO(step time.Duration, objectives []Objective) *SLO {
	if step <= 0 {
		step = 5 * time.Second
	}
	s := &SLO{step: step, samples: metrics.NewRing(SampleRingSize, func(sm *Sample) *uint64 { return &sm.seq })}
	for _, o := range objectives {
		if o.Target <= 0 || o.Target >= 1 || o.BurnFactor <= 0 {
			continue
		}
		if o.FastWindow <= 0 {
			o.FastWindow = time.Minute
		}
		if o.SlowWindow < o.FastWindow {
			o.SlowWindow = 5 * o.FastWindow
		}
		if o.ClearAfter <= 0 {
			o.ClearAfter = o.FastWindow
		}
		s.states = append(s.states, &sloState{obj: o, state: StateInactive})
	}
	return s
}

// Tick turns the counters cur, read at now, into one step's sample, records
// it and evaluates every objective. The first tick only sets the baseline
// (a step needs two readings); Start's loop takes it at once, tests stepping
// manually tick once before asserting.
func (s *SLO) Tick(now time.Time, cur Cumulative) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.prev
	s.prev = cur
	if !s.primed {
		s.primed = true
		return
	}
	s.samples.Record(&Sample{
		End:       now,
		Queries:   delta(cur.Queries, prev.Queries),
		Errors:    delta(cur.Errors, prev.Errors),
		Shed:      delta(cur.Shed, prev.Shed),
		P99Sec:    deltaQuantile(prev.Latency, cur.Latency, 0.99),
		MaxQError: cur.MaxQError,
	})
	s.evaluate(now)
}

// Start launches the sampling loop over src: one tick at once, then one per
// step.
func (s *SLO) Start(src func() Cumulative) {
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.step)
		defer t.Stop()
		s.Tick(time.Now(), src())
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Tick(time.Now(), src())
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit.
func (s *SLO) Stop() {
	close(s.stop)
	<-s.done
}

// delta is a monotonic counter's increase (0 on regression, which only
// happens if the source restarts underneath us).
func delta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// deltaQuantile estimates a quantile of the observations that landed
// between two cumulative histogram snapshots — the step's p99. Buckets are
// matched by upper bound (the layouts are identical for snapshots of one
// histogram); an empty step yields 0.
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

// badFraction scores one sample against an objective: the fraction of the
// step's traffic that violated it, in [0, 1]. Idle samples score 0 — no
// traffic burns no budget.
func badFraction(o *Objective, s *Sample) float64 {
	switch o.Kind {
	case KindAvailability:
		offered := s.Queries + s.Shed
		if offered == 0 {
			return 0
		}
		return min(float64(s.Errors+s.Shed)/float64(offered), 1)
	case KindLatency:
		if s.Queries > 0 && s.P99Sec > o.Threshold {
			return 1
		}
	case KindQError:
		if s.MaxQError > o.Threshold {
			return 1
		}
	}
	return 0
}

// steps is how many samples a window spans: window/step, and at least the
// newest one.
func (s *SLO) steps(window time.Duration) int { return max(1, int(window/s.step)) }

// burn averages badFraction over the window's steps (the newest samples,
// newest first, that ended after now-window) and divides by the error
// budget, yielding the burn-rate multiple: 1 means exactly on budget,
// BurnFactor means burning that many times too fast. A step missing from
// the window counts as good — a freshly started process must accumulate a
// slow window's worth of evidence before a slow-window alert can fire.
func (s *SLO) burn(o *Objective, samples []*Sample, now time.Time, window time.Duration) float64 {
	cutoff, n := now.Add(-window), s.steps(window)
	var sum float64
	for _, sm := range samples[:min(n, len(samples))] {
		if !sm.End.After(cutoff) {
			break
		}
		sum += badFraction(o, sm)
	}
	return (sum / float64(n)) / (1 - o.Target)
}

// evaluate advances every objective's state machine against the samples.
// The caller holds s.mu.
func (s *SLO) evaluate(now time.Time) {
	// One read of the ring covers all objectives: size to the largest
	// slow window.
	var maxWin time.Duration
	for _, st := range s.states {
		maxWin = max(maxWin, st.obj.SlowWindow)
	}
	if maxWin == 0 {
		return
	}
	samples := s.samples.Recent(s.steps(maxWin))
	for _, st := range s.states {
		o := &st.obj
		st.fastBurn = s.burn(o, samples, now, o.FastWindow)
		st.slowBurn = s.burn(o, samples, now, o.SlowWindow)
		hot := st.fastBurn >= o.BurnFactor
		firing := hot && st.slowBurn >= o.BurnFactor
		clear := st.fastBurn < o.BurnFactor/2 && st.slowBurn < o.BurnFactor/2
		switch st.state {
		case StateInactive, StateResolved:
			if firing {
				st.state, st.since = StateFiring, now
				st.fired++
			} else if hot {
				st.state, st.since = StatePending, now
			}
		case StatePending:
			if firing {
				st.state, st.since = StateFiring, now
				st.fired++
			} else if !hot {
				st.state, st.since = StateInactive, now
			}
		case StateFiring:
			if clear {
				if st.clearSince.IsZero() {
					st.clearSince = now
				}
				if now.Sub(st.clearSince) >= o.ClearAfter {
					st.state, st.since = StateResolved, now
					st.resolved++
					st.clearSince = time.Time{}
				}
			} else {
				st.clearSince = time.Time{}
			}
		}
	}
}

// Snapshot reports every objective's current alert view.
func (s *SLO) Snapshot() []Alert {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, 0, len(s.states))
	for _, st := range s.states {
		a := Alert{
			Name:          st.obj.Name,
			Kind:          string(st.obj.Kind),
			Target:        st.obj.Target,
			Threshold:     st.obj.Threshold,
			State:         st.state,
			FastBurn:      st.fastBurn,
			SlowBurn:      st.slowBurn,
			FiredTotal:    st.fired,
			ResolvedTotal: st.resolved,
			FastWindowSec: st.obj.FastWindow.Seconds(),
			SlowWindowSec: st.obj.SlowWindow.Seconds(),
			BurnFactor:    st.obj.BurnFactor,
		}
		if !st.since.IsZero() {
			a.SinceUnix = st.since.Unix()
		}
		out = append(out, a)
	}
	return out
}
