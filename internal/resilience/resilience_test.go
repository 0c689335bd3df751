package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// transientErr marks itself temporary.
type transientErr struct{ msg string }

func (e *transientErr) Error() string   { return e.msg }
func (e *transientErr) Temporary() bool { return true }

// outageErr marks itself unavailable.
type outageErr struct{ msg string }

func (e *outageErr) Error() string     { return e.msg }
func (e *outageErr) Unavailable() bool { return true }

func TestClassification(t *testing.T) {
	tr := &transientErr{"blip"}
	out := &outageErr{"down"}
	plain := errors.New("bad spec")
	if !IsTransient(tr) || IsTransient(out) || IsTransient(plain) {
		t.Error("IsTransient misclassifies")
	}
	if !IsUnavailable(out) || IsUnavailable(tr) || IsUnavailable(plain) {
		t.Error("IsUnavailable misclassifies")
	}
	if !IsUnavailable(ErrOpen) {
		t.Error("ErrOpen should be unavailable")
	}
	// Classification survives wrapping.
	wrapped := fmt.Errorf("execute join on %q: %w", "hive", tr)
	if !IsTransient(wrapped) {
		t.Error("wrapped transient not recognized")
	}
	if !Infrastructural(wrapped) || !Infrastructural(out) || Infrastructural(plain) {
		t.Error("Infrastructural misclassifies")
	}
}

// instant is a sleep hook that records requested delays without waiting.
func instant(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	var delays []time.Duration
	p := RetryPolicy{MaxAttempts: 5, Sleep: instant(&delays)}
	calls := 0
	n, err := Retry(context.Background(), p, "hive/join", func(context.Context) error {
		calls++
		if calls < 3 {
			return &transientErr{"blip"}
		}
		return nil
	})
	if err != nil || n != 3 || calls != 3 {
		t.Fatalf("attempts=%d calls=%d err=%v", n, calls, err)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
}

func TestRetryExhaustsAndStopsOnPermanent(t *testing.T) {
	var delays []time.Duration
	p := RetryPolicy{MaxAttempts: 3, Sleep: instant(&delays)}
	n, err := Retry(context.Background(), p, "s", func(context.Context) error {
		return &transientErr{"always"}
	})
	if n != 3 || !IsTransient(err) {
		t.Errorf("exhaustion: attempts=%d err=%v", n, err)
	}
	// Unavailable errors fail fast — no retries, no sleeps.
	delays = nil
	n, err = Retry(context.Background(), p, "s", func(context.Context) error {
		return &outageErr{"down"}
	})
	if n != 1 || !IsUnavailable(err) || len(delays) != 0 {
		t.Errorf("outage: attempts=%d sleeps=%d err=%v", n, len(delays), err)
	}
	// Plain semantic errors too.
	n, err = Retry(context.Background(), p, "s", func(context.Context) error {
		return errors.New("bad spec")
	})
	if n != 1 || err == nil {
		t.Errorf("semantic: attempts=%d err=%v", n, err)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := Retry(ctx, RetryPolicy{}, "s", func(context.Context) error { return nil })
	if n != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: attempts=%d err=%v", n, err)
	}
}

func TestDelayDeterministicCappedJittered(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.2, Seed: 7}
	for retry := 1; retry <= 8; retry++ {
		d1 := p.Delay("hive/join", retry)
		d2 := p.Delay("hive/join", retry)
		if d1 != d2 {
			t.Fatalf("retry %d: non-deterministic delay %v vs %v", retry, d1, d2)
		}
		if d1 > time.Duration(1.2*float64(time.Second)) {
			t.Fatalf("retry %d: delay %v exceeds jittered cap", retry, d1)
		}
		if d1 <= 0 {
			t.Fatalf("retry %d: non-positive delay %v", retry, d1)
		}
	}
	// Distinct salts de-synchronize.
	if p.Delay("hive/join", 1) == p.Delay("spark/agg", 1) {
		t.Error("salts produced identical jitter")
	}
	// Exponential growth before the cap.
	if !(p.Delay("x", 2) > p.Delay("x", 1)/2) {
		t.Error("no growth between retries")
	}
}

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: 5 * time.Second, SuccessThreshold: 2, Clock: clk.now})
	if b.State() != Closed {
		t.Fatal("new breaker not closed")
	}
	gen0 := b.Generation()

	// Semantic errors never trip it.
	for i := 0; i < 10; i++ {
		b.Record(errors.New("bad spec"))
	}
	if b.State() != Closed {
		t.Fatal("semantic errors tripped breaker")
	}

	// Three consecutive infrastructural failures open it.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Record(&outageErr{"down"})
	}
	if b.State() != Open || b.Generation() == gen0 {
		t.Fatalf("state=%v after threshold failures", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker allowed a call: %v", err)
	}

	// After the timeout it half-opens and admits one probe.
	clk.advance(6 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	// A second concurrent probe is rejected: one probe at a time.
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("half-open admitted a second concurrent probe")
	}
	// Probe failure re-opens.
	b.Record(&transientErr{"blip"})
	if b.State() != Open {
		t.Fatalf("state=%v after probe failure, want open", b.State())
	}

	// Recover: two probe successes close it.
	clk.advance(6 * time.Second)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("probe %d rejected: %v", i, err)
		}
		b.Record(nil)
	}
	if b.State() != Closed {
		t.Fatalf("state=%v after probe successes, want closed", b.State())
	}
	snap := b.Snapshot()
	if snap.Opens != 2 || snap.Rejected == 0 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestGroup(t *testing.T) {
	g := NewGroup(BreakerConfig{FailureThreshold: 1})
	if g.For("hive") != g.For("hive") {
		t.Error("group returned distinct breakers for one name")
	}
	g.For("hive").Record(&outageErr{"down"})
	g.For("spark").Record(nil)
	snap := g.Snapshot()
	if snap["hive"].State != Open || snap["spark"].State != Closed {
		t.Errorf("snapshot = %+v", snap)
	}
	if g.OpenCount() != 1 {
		t.Errorf("OpenCount = %d", g.OpenCount())
	}
}
