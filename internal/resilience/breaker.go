package resilience

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is a circuit breaker's position.
type State int

// Breaker states: Closed passes calls through, Open rejects them, HalfOpen
// admits one probe at a time to test recovery.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String returns the conventional lowercase state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the state as its name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a state name produced by MarshalJSON.
func (s *State) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"closed"`:
		*s = Closed
	case `"open"`:
		*s = Open
	case `"half-open"`:
		*s = HalfOpen
	default:
		return fmt.Errorf("resilience: unknown breaker state %s", data)
	}
	return nil
}

// BreakerConfig tunes a circuit breaker. The zero value selects the
// defaults noted per field.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive infrastructural
	// failures that opens the breaker (default 5).
	FailureThreshold int
	// OpenTimeout is how long an open breaker rejects calls before
	// admitting half-open probes (default 10s).
	OpenTimeout time.Duration
	// SuccessThreshold is the number of consecutive half-open successes
	// that closes the breaker (default 2).
	SuccessThreshold int
	// Clock is the time source; nil selects time.Now. Tests inject fakes.
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 10 * time.Second
	}
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 2
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is one per-remote circuit breaker: closed → open after
// FailureThreshold consecutive infrastructural failures, open → half-open
// after OpenTimeout, half-open → closed after SuccessThreshold probe
// successes (or back to open on any probe failure). Every transition bumps
// a generation counter, the same staleness signal internal/registry uses,
// so consumers can cheaply detect "something changed since I looked".
type Breaker struct {
	// calm is 1 while the breaker is Closed with zero consecutive
	// failures — the steady state on a healthy system. Allow and
	// Record(success) short-circuit on it without taking mu, so the hot
	// serving path pays two atomic loads instead of two mutex round trips
	// per step. Every mutation of state or failures happens under mu and
	// re-derives calm before releasing it.
	calm     atomic.Int32
	mu       sync.Mutex
	cfg      BreakerConfig
	state    State
	failures int  // consecutive infrastructural failures (closed)
	suc      int  // consecutive successes (half-open)
	probing  bool // a half-open probe is in flight
	openedAt time.Time
	gen      uint64

	opens, rejected uint64
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	b := &Breaker{cfg: cfg.withDefaults()}
	b.calm.Store(1)
	return b
}

// syncCalm re-derives the lock-free steady-state flag. Caller holds mu.
func (b *Breaker) syncCalm() {
	if b.state == Closed && b.failures == 0 {
		b.calm.Store(1)
	} else {
		b.calm.Store(0)
	}
}

// Allow reports whether a call may proceed. Open breakers reject with
// ErrOpen until OpenTimeout has elapsed, then transition to half-open and
// admit one probe at a time. Callers that got nil MUST
// report the call's outcome via Record.
func (b *Breaker) Allow() error {
	// Steady state: closed with no recent failures — admit without the
	// lock. A racing trip elsewhere is equivalent to this call having been
	// admitted just before the breaker opened, which Record tolerates.
	if b.calm.Load() == 1 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.syncCalm()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenTimeout {
			b.rejected++
			return ErrOpen
		}
		b.transition(HalfOpen)
		b.suc, b.probing = 0, false
		fallthrough
	default: // HalfOpen
		if b.probing {
			b.rejected++
			return ErrOpen
		}
		b.probing = true
		return nil
	}
}

// Record reports the outcome of an allowed call. Only infrastructural
// errors (transient faults, outages) count as failures — semantic errors
// say nothing about the system's health.
func (b *Breaker) Record(err error) {
	failed := err != nil && Infrastructural(err)
	// Steady state: a success on a calm closed breaker changes nothing.
	if !failed && b.calm.Load() == 1 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.syncCalm()
	switch b.state {
	case Closed:
		if !failed {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.open()
		}
	case HalfOpen:
		b.probing = false
		if failed {
			b.open()
			return
		}
		b.suc++
		if b.suc >= b.cfg.SuccessThreshold {
			b.transition(Closed)
			b.failures = 0
		}
	case Open:
		// A call admitted before the trip finished later; nothing to do.
	}
}

// open moves to Open and stamps the rejection window. Caller holds mu.
func (b *Breaker) open() {
	b.transition(Open)
	b.openedAt = b.cfg.Clock()
	b.failures, b.suc, b.probing = 0, 0, false
	b.opens++
}

// transition switches state and bumps the generation. Caller holds mu.
func (b *Breaker) transition(s State) {
	if b.state != s {
		b.state = s
		b.gen++
	}
}

// State returns the current position without side effects.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Generation returns the transition counter; it only ever increases.
func (b *Breaker) Generation() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gen
}

// BreakerSnapshot is a point-in-time view of one breaker for health
// surfaces.
type BreakerSnapshot struct {
	State      State  `json:"state"`
	Generation uint64 `json:"generation"`
	Failures   int    `json:"consecutive_failures"`
	Opens      uint64 `json:"opens"`
	Rejected   uint64 `json:"rejected"`
}

// Snapshot captures the breaker's state and counters.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State: b.state, Generation: b.gen,
		Failures: b.failures, Opens: b.opens, Rejected: b.rejected,
	}
}

// Group lazily manages one breaker per name (per remote system) under a
// shared configuration.
type Group struct {
	mu  sync.Mutex
	cfg BreakerConfig
	m   map[string]*Breaker
}

// NewGroup builds an empty breaker group.
func NewGroup(cfg BreakerConfig) *Group {
	return &Group{cfg: cfg, m: make(map[string]*Breaker)}
}

// For returns the breaker for name, creating it closed on first use.
func (g *Group) For(name string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.m[name]
	if !ok {
		b = NewBreaker(g.cfg)
		g.m[name] = b
	}
	return b
}

// Snapshot captures every breaker keyed by name.
func (g *Group) Snapshot() map[string]BreakerSnapshot {
	g.mu.Lock()
	names := make([]string, 0, len(g.m))
	for n := range g.m {
		names = append(names, n)
	}
	breakers := make([]*Breaker, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		breakers = append(breakers, g.m[n])
	}
	g.mu.Unlock()
	out := make(map[string]BreakerSnapshot, len(names))
	for i, n := range names {
		out[n] = breakers[i].Snapshot()
	}
	return out
}

// OpenCount reports how many breakers are not closed — the "is the
// federation degraded" health signal.
func (g *Group) OpenCount() int {
	g.mu.Lock()
	breakers := make([]*Breaker, 0, len(g.m))
	for _, b := range g.m {
		breakers = append(breakers, b)
	}
	g.mu.Unlock()
	n := 0
	for _, b := range breakers {
		if b.State() != Closed {
			n++
		}
	}
	return n
}
