package trace

import "intellisphere/internal/metrics"

// Ring is the buffer of the most recent traces behind /trace: a
// metrics.Ring addressed by Trace.ID, whose IDs NewTrace claims before the
// query runs. A reader holding a *Trace keeps a consistent (finished) tree.
// A nil ring is inert — tracing disabled.
type Ring metrics.Ring[Trace]

// DefaultRingSize is the trace buffer capacity when none is configured.
const DefaultRingSize = 64

// NewRing builds a ring holding the last n traces (n <= 0 selects
// DefaultRingSize).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return (*Ring)(metrics.NewRing(n, func(t *Trace) *uint64 { return &t.ID }))
}

func (r *Ring) ring() *metrics.Ring[Trace] { return (*metrics.Ring[Trace])(r) }

// NewTrace begins a trace whose ID is assigned eagerly — before the query
// runs — so histogram exemplars and wide events emitted mid-query can carry
// the ID the trace will be retrievable under once published. On a nil ring
// the trace is still usable but keeps ID 0 (untraced for correlation
// purposes). The trace occupies no ring slot until Record publishes it.
func (r *Ring) NewTrace(sql string) *Trace {
	t := New(sql)
	t.ID = r.ring().Claim()
	t.Root.tid = t.ID
	return t
}

// Record publishes a finished trace. Traces without an ID (built by New or
// NewOp rather than NewTrace) are assigned the next trace ID here; IDs start
// at 1 and never repeat.
func (r *Ring) Record(t *Trace) { r.ring().Record(t) }

// Count reports how many trace IDs were ever issued.
func (r *Ring) Count() uint64 { return r.ring().Count() }

// Recent returns up to n of the most recent recorded traces, newest first
// (n <= 0 selects the whole buffer).
func (r *Ring) Recent(n int) []*Trace { return r.ring().Recent(n) }
