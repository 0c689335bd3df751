package server

import (
	"context"
	"sync"
	"time"
)

// deadlineCtx is the request deadline of the hot routes: its parent (the
// request's context) plus a point in time, for one allocation. A
// context.WithTimeout costs a timer and a registration in the parent's
// children map per request, to close a channel that an admitted, healthy
// request never looks at: the engine polls Err between plan steps and only
// blocks on Done in admission's queue or a retry back-off.
//
// So Err compares the clock with the deadline, and Done becomes an ordinary
// context.WithDeadline the first time it is asked for; release, which the
// owner calls when the request is over and before which nothing may still be
// using the context, stops that timer if there is one.
//
// One deviation from the context.Context contract: Err can be non-nil before
// Done's channel is closed — before Done was ever asked for, or in the moment
// between the deadline and the timer firing. Nothing on the serving path
// derives a cancellable child from a deadlineCtx (trace spans ride in
// context.WithValue children, which delegate both methods); one that did would
// work, through Done, at the price of the goroutine context starts to watch a
// parent type it does not know.
type deadlineCtx struct {
	context.Context // the parent: Value, and the cancellation Err and Done pass on
	deadline        time.Time

	mu    sync.Mutex
	timed context.Context // nil until Done is first asked for
	stop  context.CancelFunc
}

// withDeadline bounds parent by the server's request timeout from now.
func (s *Server) withDeadline(parent context.Context) *deadlineCtx {
	d := time.Now().Add(s.timeout)
	if pd, ok := parent.Deadline(); ok && pd.Before(d) {
		d = pd
	}
	return &deadlineCtx{Context: parent, deadline: d}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// Err reads the monotonic clock only (time.Until on a deadline that carries a
// monotonic reading): every plan step asks twice, and a full time.Now is the
// dearer call.
func (c *deadlineCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if time.Until(c.deadline) <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timed == nil {
		c.timed, c.stop = context.WithDeadline(c.Context, c.deadline)
	}
	return c.timed.Done()
}

func (c *deadlineCtx) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		c.stop()
	}
}
