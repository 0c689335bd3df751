// Package admission guards a serving hot path with explicit, observable
// back-pressure instead of unbounded goroutine pile-up:
//
//   - a hard concurrency cap — at most MaxInFlight requests execute at once;
//   - a bounded FIFO admission queue for overflow, so short bursts absorb
//     into waiting rather than failure;
//   - deadline-aware load shedding — a queued request whose estimated wait
//     already exceeds its remaining deadline is refused immediately (the
//     client gets a 503 with Retry-After long before its timeout fires),
//     and a full queue refuses new arrivals outright;
//   - per-client token-bucket rate limits keyed by an opaque client ID.
//
// Every decision is counted, and the counters reconcile: offered ==
// admitted + rate-limited + shed (queue-full, deadline) + canceled. The
// controller replaces http.TimeoutHandler on the hot endpoints — deadlines
// travel in the request context, so a slow query is canceled inside the
// engine instead of abandoned on a watchdog goroutine.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Controller. Zero values select the noted defaults.
type Config struct {
	// MaxInFlight caps concurrently executing requests (default 64).
	MaxInFlight int
	// QueueDepth bounds requests waiting for a slot beyond MaxInFlight
	// (default 2 × MaxInFlight).
	QueueDepth int
	// RateLimit is the per-client sustained request rate in requests per
	// second; 0 disables rate limiting.
	RateLimit float64
	// Burst is the token-bucket capacity (default max(1, RateLimit)).
	Burst float64
	// Clock is the time source; nil selects time.Now. Tests inject fakes.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxInFlight
	}
	if c.Burst <= 0 {
		c.Burst = c.RateLimit
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Shed reasons, carried by *ShedError.
var (
	// ErrQueueFull reports the admission queue was at capacity.
	ErrQueueFull = errors.New("admission queue full")
	// ErrDeadline reports the estimated queue wait exceeded the request's
	// remaining deadline.
	ErrDeadline = errors.New("estimated queue wait exceeds deadline")
	// ErrRateLimited reports the client's token bucket was empty.
	ErrRateLimited = errors.New("client rate limit exceeded")
)

// ShedError is the refusal verdict: why, and how long the client should
// back off before retrying.
type ShedError struct {
	Reason     error
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Reason, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return e.Reason }

// Stats is a point-in-time view of the controller's counters. The totals
// reconcile: Offered == Admitted + RateLimited + ShedQueueFull +
// ShedDeadline + Canceled.
type Stats struct {
	Offered       uint64 `json:"offered"`
	Admitted      uint64 `json:"admitted"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedDeadline  uint64 `json:"shed_deadline"`
	RateLimited   uint64 `json:"rate_limited"`
	Canceled      uint64 `json:"canceled"`
	InFlight      int    `json:"in_flight"`
	Queued        int    `json:"queued"`
	// AvgServiceSec is the EWMA of observed service times feeding the
	// queue-wait estimate.
	AvgServiceSec float64 `json:"avg_service_sec"`
}

// Controller is one admission gate. The zero value is not usable; call
// NewController.
type Controller struct {
	cfg Config
	sem chan struct{}

	queued atomic.Int64
	// ewmaNs is the exponentially weighted average service time in
	// nanoseconds. Plain store/load races only blur the estimate.
	ewmaNs atomic.Int64

	offered, admitted           atomic.Uint64
	shedQueueFull, shedDeadline atomic.Uint64
	rateLimited, canceled       atomic.Uint64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewController builds an admission gate.
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		buckets: make(map[string]*bucket),
	}
}

// ctxlike is the subset of context.Context Acquire needs; taking the
// interface keeps the package free of ad-hoc context plumbing in tests.
type ctxlike interface {
	Deadline() (time.Time, bool)
	Done() <-chan struct{}
	Err() error
}

// Acquire asks for an execution slot for one request. On success it returns
// a release function the caller MUST invoke exactly once when the request
// finishes. On refusal it returns a *ShedError (rate limit, full queue, or
// hopeless deadline) or the context's error if the caller gave up while
// queued.
func (c *Controller) Acquire(ctx ctxlike, client string) (release func(), err error) {
	if err := c.acquire(ctx, client); err != nil {
		return nil, err
	}
	return c.releaser(), nil
}

// Hold is Acquire for a caller that keeps its slot for as long as a
// connection lives and serves many requests on it (/query/stream): the same
// gate and the same counters, but release only hands the slot back. How long
// a connection stayed open is not a service time; folded into the EWMA it
// would scale every queue-wait estimate, Retry-After hint and deadline shed
// by the age of the last stream.
func (c *Controller) Hold(ctx ctxlike, client string) (release func(), err error) {
	if err := c.acquire(ctx, client); err != nil {
		return nil, err
	}
	return func() { <-c.sem }, nil
}

// acquire takes a slot or says why not; the caller owes one receive from
// c.sem on success.
func (c *Controller) acquire(ctx ctxlike, client string) error {
	c.offered.Add(1)
	if !c.allowClient(client) {
		c.rateLimited.Add(1)
		return &ShedError{Reason: ErrRateLimited, RetryAfter: c.rateRetry()}
	}
	// Fast path: a free slot admits without queue accounting.
	select {
	case c.sem <- struct{}{}:
		c.admitted.Add(1)
		return nil
	default:
	}
	if q := c.queued.Add(1); q > int64(c.cfg.QueueDepth) {
		c.queued.Add(-1)
		c.shedQueueFull.Add(1)
		return &ShedError{Reason: ErrQueueFull, RetryAfter: c.estimateWait()}
	}
	defer c.queued.Add(-1)
	if dl, ok := ctx.Deadline(); ok {
		if wait := c.estimateWait(); wait > dl.Sub(c.cfg.Clock()) {
			c.shedDeadline.Add(1)
			return &ShedError{Reason: ErrDeadline, RetryAfter: wait}
		}
	}
	select {
	case c.sem <- struct{}{}:
		c.admitted.Add(1)
		return nil
	case <-ctx.Done():
		c.canceled.Add(1)
		return ctx.Err()
	}
}

// releaser hands back the slot and feeds the service-time EWMA with the time
// since the slot was granted.
func (c *Controller) releaser() func() {
	start := c.cfg.Clock()
	return func() {
		<-c.sem
		obs := c.cfg.Clock().Sub(start).Nanoseconds()
		old := c.ewmaNs.Load()
		if old == 0 {
			c.ewmaNs.Store(obs)
			return
		}
		c.ewmaNs.Store(old - old/8 + obs/8)
	}
}

// estimateWait predicts how long a newly queued request would wait for a
// slot: everyone ahead of it, served MaxInFlight at a time, at the average
// observed service time. With no observations yet it assumes nothing about
// service time and returns a floor of one millisecond per queued request —
// pessimism here would shed traffic a fresh server could absorb.
func (c *Controller) estimateWait() time.Duration {
	ahead := c.queued.Load()
	if ahead < 1 {
		ahead = 1
	}
	per := time.Duration(c.ewmaNs.Load())
	if per <= 0 {
		per = time.Millisecond
	}
	return time.Duration(ahead) * per / time.Duration(c.cfg.MaxInFlight)
}

// rateRetry is the back-off hint for a rate-limited client: one token's
// worth of time.
func (c *Controller) rateRetry() time.Duration {
	if c.cfg.RateLimit <= 0 {
		return time.Second
	}
	return time.Duration(float64(time.Second) / c.cfg.RateLimit)
}

// maxBuckets bounds the per-client bucket map; beyond it, stale buckets
// (full and idle) are pruned on insert so an ID-churning client cannot grow
// memory without bound.
const maxBuckets = 4096

// allowClient spends one token from the client's bucket. An empty client ID
// shares the anonymous bucket. No rate limit configured admits everyone.
func (c *Controller) allowClient(client string) bool {
	if c.cfg.RateLimit <= 0 {
		return true
	}
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.buckets[client]
	if !ok {
		if len(c.buckets) >= maxBuckets {
			c.pruneLocked(now)
		}
		b = &bucket{tokens: c.cfg.Burst, last: now}
		c.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * c.cfg.RateLimit
	if b.tokens > c.cfg.Burst {
		b.tokens = c.cfg.Burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// pruneLocked drops buckets that have refilled to capacity — their clients
// are idle and lose nothing by starting fresh. Caller holds mu.
func (c *Controller) pruneLocked(now time.Time) {
	for id, b := range c.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*c.cfg.RateLimit >= c.cfg.Burst {
			delete(c.buckets, id)
		}
	}
}

// Stats snapshots every counter.
func (c *Controller) Stats() Stats {
	return Stats{
		Offered:       c.offered.Load(),
		Admitted:      c.admitted.Load(),
		ShedQueueFull: c.shedQueueFull.Load(),
		ShedDeadline:  c.shedDeadline.Load(),
		RateLimited:   c.rateLimited.Load(),
		Canceled:      c.canceled.Load(),
		InFlight:      len(c.sem),
		Queued:        int(c.queued.Load()),
		AvgServiceSec: time.Duration(c.ewmaNs.Load()).Seconds(),
	}
}
