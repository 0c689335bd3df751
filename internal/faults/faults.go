// Package faults is a deterministic, seedable fault injector for remote
// systems. An Injector wraps a remote.System and perturbs its behaviour —
// transient errors, latency spikes, full outages — at configurable per-op
// rates, drawing from a counter-based seeded PRNG so the same seed yields
// the same fault sequence: chaos tests replay exactly, like every other
// part of the simulator. With zero rates and no outage the injector is a
// transparent passthrough.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"

	"intellisphere/internal/cluster"
	"intellisphere/internal/metrics"
	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
)

// Kind classifies an injected fault.
type Kind int

// Fault kinds: Transient failures may succeed on retry; Outage failures
// persist until the injector recovers.
const (
	Transient Kind = iota
	Outage
)

// String names the kind.
func (k Kind) String() string {
	if k == Outage {
		return "outage"
	}
	return "transient"
}

// Error is one injected fault. It implements the Temporary/Unavailable
// classification interfaces internal/resilience dispatches on.
type Error struct {
	System string
	Op     string
	Kind   Kind
}

// Error renders the fault.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s failure on %s/%s", e.Kind, e.System, e.Op)
}

// Temporary reports whether a retry may outlive the fault.
func (e *Error) Temporary() bool { return e.Kind == Transient }

// Unavailable reports whether the system is down for the duration.
func (e *Error) Unavailable() bool { return e.Kind == Outage }

// Rates are per-call fault probabilities.
type Rates struct {
	// Transient is the probability a call fails with a retryable error.
	Transient float64 `json:"transient"`
	// Latency is the probability a successful call's elapsed time is
	// multiplied by LatencyFactor.
	Latency float64 `json:"latency"`
	// LatencyFactor scales spiked calls (default 10).
	LatencyFactor float64 `json:"latency_factor"`
}

// Config tunes one injector.
type Config struct {
	// Seed drives the deterministic fault sequence.
	Seed int64 `json:"seed"`
	// Rates apply to every operation unless overridden per op.
	Rates
	// Ops overrides the rates for specific operations ("join",
	// "aggregation", "scan", "probe").
	Ops map[string]Rates `json:"ops,omitempty"`
}

// Stats counts what the injector has done.
type Stats struct {
	Calls         uint64 `json:"calls"`
	Transients    uint64 `json:"transients"`
	LatencySpikes uint64 `json:"latency_spikes"`
	OutageRejects uint64 `json:"outage_rejects"`
	Down          bool   `json:"down"`
}

// Injector wraps a remote.System with fault injection. It is safe for
// concurrent use; under concurrency the draw sequence is still consumed
// deterministically, though which call receives which draw follows
// scheduling order.
type Injector struct {
	sys  remote.System
	mu   sync.Mutex // guards cfg
	cfg  Config
	seq  atomic.Uint64
	down atomic.Bool

	calls, transients, spikes, rejects metrics.Counter
}

// Injector implements remote.System.
var _ remote.System = (*Injector)(nil)

// Wrap builds an injector around sys.
func Wrap(sys remote.System, cfg Config) *Injector {
	return &Injector{sys: sys, cfg: cfg}
}

// Configure swaps the fault configuration and rewinds the draw sequence, so
// arming an injector after a fault-free phase (e.g. training) replays the
// same sequence as one armed from the start.
func (i *Injector) Configure(cfg Config) {
	i.mu.Lock()
	i.cfg = cfg
	i.mu.Unlock()
	i.seq.Store(0)
}

// SetRates swaps the injector's base rates in place, keeping the seed and
// any per-op overrides, and rewinds the draw sequence like Configure. The
// chaos endpoint uses it to dial faults (e.g. a latency-spike regime that
// drifts a cost model) on a live server.
func (i *Injector) SetRates(r Rates) {
	i.mu.Lock()
	i.cfg.Rates = r
	i.mu.Unlock()
	i.seq.Store(0)
}

// SetOutage forces (or lifts) a full outage: while down, every call fails
// with an unavailable error.
func (i *Injector) SetOutage(down bool) { i.down.Store(down) }

// Down reports whether the injector is simulating an outage.
func (i *Injector) Down() bool { return i.down.Load() }

// Stats snapshots the injector's counters.
func (i *Injector) Stats() Stats {
	return Stats{
		Calls:         i.calls.Value(),
		Transients:    i.transients.Value(),
		LatencySpikes: i.spikes.Value(),
		OutageRejects: i.rejects.Value(),
		Down:          i.down.Load(),
	}
}

// Name delegates to the wrapped system.
func (i *Injector) Name() string { return i.sys.Name() }

// Cluster delegates to the wrapped system.
func (i *Injector) Cluster() cluster.Config { return i.sys.Cluster() }

// ExecuteJoin runs a join through the fault layer.
func (i *Injector) ExecuteJoin(spec plan.JoinSpec) (remote.Execution, error) {
	return i.call("join", func() (remote.Execution, error) { return i.sys.ExecuteJoin(spec) })
}

// ExecuteAgg runs an aggregation through the fault layer.
func (i *Injector) ExecuteAgg(spec plan.AggSpec) (remote.Execution, error) {
	return i.call("aggregation", func() (remote.Execution, error) { return i.sys.ExecuteAgg(spec) })
}

// ExecuteScan runs a scan through the fault layer.
func (i *Injector) ExecuteScan(spec plan.ScanSpec) (remote.Execution, error) {
	return i.call("scan", func() (remote.Execution, error) { return i.sys.ExecuteScan(spec) })
}

// ExecuteProbe runs a calibration probe through the fault layer.
func (i *Injector) ExecuteProbe(p remote.Probe) (remote.Execution, error) {
	return i.call("probe", func() (remote.Execution, error) { return i.sys.ExecuteProbe(p) })
}

// rates resolves the effective rates for one op.
func (i *Injector) rates(op string) (Rates, int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	r := i.cfg.Rates
	if o, ok := i.cfg.Ops[op]; ok {
		r = o
	}
	if r.LatencyFactor <= 0 {
		r.LatencyFactor = 10
	}
	return r, i.cfg.Seed
}

// Available reports a full outage as an unavailable error, counting the
// rejection. The engine consults it before using this system as a transfer
// endpoint — a QueryGrid transfer cannot read from or write to a downed
// system even though no operator executes there.
func (i *Injector) Available(op string) error {
	if i.down.Load() {
		i.rejects.Inc()
		return &Error{System: i.sys.Name(), Op: op, Kind: Outage}
	}
	return nil
}

// call applies the fault model around one delegated execution.
func (i *Injector) call(op string, fn func() (remote.Execution, error)) (remote.Execution, error) {
	i.calls.Inc()
	if err := i.Available(op); err != nil {
		return remote.Execution{}, err
	}
	r, seed := i.rates(op)
	if r.Transient > 0 && i.draw(seed) < r.Transient {
		i.transients.Inc()
		return remote.Execution{}, &Error{System: i.sys.Name(), Op: op, Kind: Transient}
	}
	ex, err := fn()
	if err != nil {
		return ex, err
	}
	if r.Latency > 0 && i.draw(seed) < r.Latency {
		i.spikes.Inc()
		ex.ElapsedSec *= r.LatencyFactor
	}
	return ex, nil
}

// draw returns the next uniform [0,1) value in the seeded sequence — a
// splitmix64 finalizer over the atomic draw counter.
func (i *Injector) draw(seed int64) float64 {
	n := i.seq.Add(1)
	v := uint64(seed) + n*0x9e3779b97f4a7c15
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return float64(v>>11) / float64(1<<53)
}
