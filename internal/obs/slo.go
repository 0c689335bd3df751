package obs

import (
	"sync"
	"time"
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

// Objective is one declarative SLO evaluated over the history ring with
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

// SLO evaluates a set of objectives against the history ring. Evaluate is
// called by the collector after each sample; Snapshot serves /slo. A single
// mutex guards the (tiny) state transitions — evaluation runs once per
// collector step, never on the query path.
type SLO struct {
	hist *History

	mu     sync.Mutex
	states []*sloState
}

// NewSLO builds an evaluator over hist for the given objectives. Objectives
// with a non-positive Target or BurnFactor are dropped.
func NewSLO(hist *History, objectives []Objective) *SLO {
	s := &SLO{hist: hist}
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

// badFraction scores one sample against an objective: the fraction of the
// step's traffic that violated it, in [0, 1]. Idle samples score 0 — no
// traffic burns no budget.
func badFraction(o *Objective, s *Sample) float64 {
	switch o.Kind {
	case KindAvailability:
		offered := s.QPS + s.ShedRate
		if offered <= 0 {
			return 0
		}
		bad := (s.ErrorRate + s.ShedRate) / offered
		if bad > 1 {
			bad = 1
		}
		return bad
	case KindLatency:
		if s.QPS > 0 && s.P99Sec > o.Threshold {
			return 1
		}
	case KindQError:
		if s.MaxQError() > o.Threshold {
			return 1
		}
	}
	return 0
}

// burn averages badFraction over the samples inside window (ending at now)
// and divides by the error budget, yielding the burn-rate multiple: 1 means
// exactly on budget, BurnFactor means burning that many times too fast.
// When the history is younger than the window, the missing span counts as
// good — a freshly started process must accumulate a slow window's worth of
// evidence before a slow-window alert can fire.
func (s *SLO) burn(o *Objective, samples []*Sample, now time.Time, window time.Duration) float64 {
	cutoff := now.Add(-window).Unix()
	var sum float64
	var n int
	for _, sm := range samples {
		if sm.Unix < cutoff {
			break // samples are newest-first
		}
		sum += badFraction(o, sm)
		n++
	}
	if expected := int(window / s.hist.Step()); n < expected {
		n = expected
	}
	if n == 0 {
		return 0
	}
	return (sum / float64(n)) / (1 - o.Target)
}

// Evaluate advances every objective's state machine against the current
// history. Called once per collector tick.
func (s *SLO) Evaluate(now time.Time) {
	if s == nil {
		return
	}
	// One read of the ring covers all objectives: size to the largest
	// slow window.
	var maxWin time.Duration
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.states {
		if st.obj.SlowWindow > maxWin {
			maxWin = st.obj.SlowWindow
		}
	}
	if maxWin == 0 {
		return
	}
	samples := s.hist.Recent(int(maxWin/s.hist.Step()) + 1)
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
