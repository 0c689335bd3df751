package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireReleaseBasic(t *testing.T) {
	c := NewController(Config{MaxInFlight: 2})
	r1, err := c.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	r2, err := c.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	st := c.Stats()
	if st.InFlight != 2 || st.Admitted != 2 {
		t.Fatalf("stats after two acquires: %+v", st)
	}
	r1()
	r2()
	if st := c.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight after release: %+v", st)
	}
}

func TestQueueFullSheds(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, QueueDepth: 1})
	release, err := c.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer release()
	// Occupy the single queue slot with a waiter.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiting := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(waiting)
		rel, err := c.Acquire(ctx, "")
		if rel != nil {
			rel()
		}
		done <- err
	}()
	<-waiting
	for c.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	// The queue is now full: the next arrival must shed immediately.
	_, err = c.Acquire(context.Background(), "")
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want queue-full ShedError, got %v", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("want positive RetryAfter, got %v", shed.RetryAfter)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued waiter: want context.Canceled, got %v", err)
	}
	if st := c.Stats(); st.ShedQueueFull != 1 || st.Canceled != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestDeadlineShed(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewController(Config{MaxInFlight: 1, QueueDepth: 8, Clock: func() time.Time { return now }})
	// Seed the service-time estimate: 100ms per request.
	c.ewmaNs.Store(int64(100 * time.Millisecond))
	release, err := c.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// A request with only 1ms of deadline budget cannot possibly wait out
	// the ~100ms estimated queue time: it must shed without blocking.
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(time.Millisecond))
	defer cancel()
	_, err = c.Acquire(ctx, "")
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.RetryAfter <= 0 {
		t.Fatalf("want ShedError with RetryAfter, got %v", err)
	}
	release()
}

// TestGenerousDeadlineQueues is the flip side of TestDeadlineShed: a waiter
// whose deadline comfortably exceeds the estimated queue time waits its
// turn and completes. Real clock — context deadlines fire on real time.
func TestGenerousDeadlineQueues(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, QueueDepth: 8})
	release, err := c.Acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := make(chan error, 1)
	go func() {
		rel, err := c.Acquire(ctx, "")
		if rel != nil {
			rel()
		}
		got <- err
	}()
	for c.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire with generous deadline: %v", err)
	}
	if st := c.Stats(); st.Admitted != 2 || st.ShedDeadline != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestRateLimitPerClient(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewController(Config{MaxInFlight: 8, RateLimit: 1, Burst: 2, Clock: func() time.Time { return now }})
	spend := func(client string) error {
		rel, err := c.Acquire(context.Background(), client)
		if rel != nil {
			rel()
		}
		return err
	}
	if err := spend("a"); err != nil {
		t.Fatalf("a #1: %v", err)
	}
	if err := spend("a"); err != nil {
		t.Fatalf("a #2: %v", err)
	}
	if err := spend("a"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("a #3: want ErrRateLimited, got %v", err)
	}
	// Another client has its own bucket.
	if err := spend("b"); err != nil {
		t.Fatalf("b #1: %v", err)
	}
	// Tokens refill with time.
	now = now.Add(1500 * time.Millisecond)
	if err := spend("a"); err != nil {
		t.Fatalf("a after refill: %v", err)
	}
	if st := c.Stats(); st.RateLimited != 1 {
		t.Fatalf("rate-limited count: %+v", st)
	}
}

// TestCountersReconcileUnderSaturation hammers a tiny controller from many
// goroutines (run under -race by make ci) and checks the admission ledger
// balances: every offered request is accounted for exactly once, every
// admitted request completed, and nothing is left in flight or queued.
func TestCountersReconcileUnderSaturation(t *testing.T) {
	c := NewController(Config{MaxInFlight: 2, QueueDepth: 4})
	const workers = 32
	const perWorker = 50
	var wg sync.WaitGroup
	var completed, shed atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				release, err := c.Acquire(ctx, "")
				if err != nil {
					var se *ShedError
					if !errors.As(err, &se) && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("unexpected acquire error: %v", err)
					}
					shed.Add(1)
					cancel()
					continue
				}
				completed.Add(1)
				release()
				cancel()
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Offered != workers*perWorker {
		t.Fatalf("offered %d, want %d", st.Offered, workers*perWorker)
	}
	if got := st.Admitted + st.RateLimited + st.ShedQueueFull + st.ShedDeadline + st.Canceled; got != st.Offered {
		t.Fatalf("ledger does not reconcile: %+v (sum %d)", st, got)
	}
	if st.Admitted != completed.Load() {
		t.Fatalf("admitted %d != completed %d", st.Admitted, completed.Load())
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("leftover work: %+v", st)
	}
	if shed.Load() != st.Offered-st.Admitted {
		t.Fatalf("shed observed %d, ledger %d", shed.Load(), st.Offered-st.Admitted)
	}
}

// TestHoldStaysOutOfServiceTime pins the unit of the service-time estimate: a
// slot held for a connection's lifetime takes part in the gate and the
// counters like any other, but how long the connection stayed open must not
// reach the EWMA that the queue-wait estimate, Retry-After and the deadline
// shed are computed from.
func TestHoldStaysOutOfServiceTime(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewController(Config{MaxInFlight: 2, Clock: func() time.Time { return now }})
	for i := 0; i < 50; i++ {
		release, err := c.Acquire(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		now = now.Add(40 * time.Microsecond)
		release()
	}
	before := c.Stats()
	if before.AvgServiceSec != 40e-6 {
		t.Fatalf("avg service time after 50 × 40 µs = %v", before.AvgServiceSec)
	}

	release, err := c.Hold(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.InFlight != 1 || st.Admitted != before.Admitted+1 || st.Offered != before.Offered+1 {
		t.Errorf("a held slot is not counted like an acquired one: %+v", st)
	}
	now = now.Add(28 * time.Second)
	release()
	after := c.Stats()
	if after.InFlight != 0 {
		t.Errorf("in-flight after release = %d", after.InFlight)
	}
	if after.AvgServiceSec != before.AvgServiceSec {
		t.Errorf("a 28 s connection moved the service-time estimate %v -> %v", before.AvgServiceSec, after.AvgServiceSec)
	}
}
