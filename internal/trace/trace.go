// Package trace provides lightweight per-query span trees — the
// EXPLAIN ANALYZE counterpart of the serving stack. A Trace is one query's
// tree of timed spans (parse → plan with per-candidate costing spans →
// execute with per-step and per-attempt spans), propagated through
// context.Context so every layer that already takes a context can attach
// spans without new plumbing.
//
// Tracing is strictly opt-in per query and free when off: Start consults the
// context, and when no span is active it returns the context unchanged and a
// nil *Span. Every Span method is a no-op on a nil receiver, so the
// instrumented hot paths cost one context value lookup and zero allocations
// for untraced queries (pinned by an AllocsPerRun test).
package trace

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span (operator kind, cache verdict,
// retry count, estimator approach, ...).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one timed region of a trace. Spans form a tree; children may be
// added concurrently (goroutines sharing a traced context share its span).
// All exported fields are for rendering/serialization; mutate only through
// the methods.
type Span struct {
	Name string `json:"name"`
	// System names the remote system the span touched, when any.
	System string `json:"system,omitempty"`
	Attrs  []Attr `json:"attrs,omitempty"`
	// StartNanos is the span's start offset from the trace start.
	StartNanos int64 `json:"start_ns"`
	// DurationNanos is the span's elapsed wall time (0 until ended).
	DurationNanos int64   `json:"duration_ns"`
	Error         string  `json:"error,omitempty"`
	Children      []*Span `json:"children,omitempty"`

	mu    sync.Mutex
	base  time.Time // trace start, for child offsets
	begin time.Time
	done  bool
	tid   uint64 // owning trace's ID (0 when the trace was never ring-assigned)
}

// child starts a sub-span. Safe for concurrent use on one parent.
func (s *Span) child(name string) *Span {
	now := time.Now()
	c := &Span{Name: name, base: s.base, begin: now, StartNanos: now.Sub(s.base).Nanoseconds(), tid: s.tid}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// TraceID returns the ID of the trace this span belongs to, or 0 when the
// span is nil or its trace was never assigned an ID (untraced queries,
// rings of size zero). The ID is fixed at span creation, so exemplar and
// event emitters can read it without taking the span lock.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.tid
}

// End closes the span, fixing its duration. Subsequent Ends are no-ops.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span and records err (when non-nil) as its outcome.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.DurationNanos = time.Since(s.begin).Nanoseconds()
		if err != nil {
			s.Error = err.Error()
		}
	}
	s.mu.Unlock()
}

// SetSystem records the remote system the span touched.
func (s *Span) SetSystem(system string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.System = system
	s.mu.Unlock()
}

// SetAttr annotates the span. Later values for the same key append; render
// order is insertion order.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer. The formatting happens only
// when the span is live, keeping the disabled path allocation-free.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(v))
}

// SetFloat annotates the span with a float (shortest round-trip form).
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// Attr returns the first value recorded for key ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is one query's completed (or in-flight) span tree.
type Trace struct {
	// ID is assigned by the Ring when the trace is recorded (0 before).
	ID  uint64 `json:"id"`
	SQL string `json:"sql"`
	// StartedAt is the wall-clock trace start.
	StartedAt time.Time `json:"started_at"`
	// DurationNanos is the whole query's elapsed wall time.
	DurationNanos int64  `json:"duration_ns"`
	Error         string `json:"error,omitempty"`
	Root          *Span  `json:"root"`
}

// New begins a trace for one statement, rooting its span tree at a "query"
// span.
func New(sql string) *Trace {
	now := time.Now()
	return &Trace{
		SQL:       sql,
		StartedAt: now,
		Root:      &Span{Name: "query", base: now, begin: now},
	}
}

// NewOp begins a trace for a background operation (the model tuner's
// retrain passes record into the same ring the query traces land in). The
// root span takes the operation name; label fills the SQL field so trace
// listings show what the operation touched.
func NewOp(name, label string) *Trace {
	now := time.Now()
	return &Trace{
		SQL:       label,
		StartedAt: now,
		Root:      &Span{Name: name, base: now, begin: now},
	}
}

// HasSystem reports whether any span in the trace touched the named remote
// system. Used by the /trace endpoint's ?system= filter.
func (t *Trace) HasSystem(name string) bool {
	if t == nil {
		return false
	}
	return t.Root.hasSystem(name)
}

// hasSystem walks the span subtree under the span lock (children may still
// be appended by a concurrent writer when a trace is inspected in flight).
func (s *Span) hasSystem(name string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	match := s.System == name
	kids := s.Children
	s.mu.Unlock()
	if match {
		return true
	}
	for _, c := range kids {
		if c.hasSystem(name) {
			return true
		}
	}
	return false
}

// Finish closes the root span and stamps the trace's total duration and
// outcome.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	t.Root.EndErr(err)
	t.DurationNanos = t.Root.DurationNanos
	if err != nil {
		t.Error = err.Error()
	}
}

// spanKey carries the active *Span through a context.
type spanKey struct{}

// ContextWithSpan returns a context carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the active span, or nil when the context is
// untraced. The lookup never allocates.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start opens a child span under the context's active span. When the context
// is untraced it returns the context unchanged and a nil span — the whole
// call is allocation-free, so instrumented hot paths cost nothing for
// untraced queries.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.child(name)
	return ContextWithSpan(ctx, c), c
}
