package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"intellisphere/internal/admission"
	"intellisphere/internal/cluster"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/engine"
	"intellisphere/internal/faults"
	"intellisphere/internal/remote"
	"intellisphere/internal/resilience"
)

// newFlakyServer serves one remote behind a fault injector whose every
// aggregation fails with a retryable error, under a 50 ms request deadline.
// The retry policy keeps its real, context-aware sleep and a first back-off of
// 200 ms, so a GROUP BY over the remote's table (too big to move to the
// master) is asleep inside resilience.Retry when its deadline passes; a
// selective scan runs on the master and is answered.
func newFlakyServer(t *testing.T) *httptest.Server {
	t.Helper()
	e, err := engine.New(engine.Config{
		Seed:  9,
		Retry: resilience.RetryPolicy{Seed: 9, BaseDelay: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.Wrap(h, faults.Config{Seed: 7})
	if _, _, err := e.RegisterRemoteSubOp(inj, remote.EngineHive, subop.InHouseComparable); err != nil {
		t.Fatal(err)
	}
	// Armed after registration, whose training probes must succeed.
	inj.Configure(faults.Config{Seed: 7, Ops: map[string]faults.Rates{"aggregation": {Transient: 1}}})
	tb, err := datagen.Table(10000000, 1000, "hive")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(e).Handler(50 * time.Millisecond))
	t.Cleanup(srv.Close)
	return srv
}

// wantTimeout expects resp to be the answer to a request whose deadline
// passed: 503 with an error frame coded "timeout".
func wantTimeout(t *testing.T, resp *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	var frame map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&frame); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || frame["code"] != "timeout" {
		t.Errorf("past its deadline: %d %v, want 503 with code timeout", resp.StatusCode, frame)
	}
}

// TestDeadlineExpiresMidQuery: a deadline that passes while the engine waits
// in a retry back-off answers 503 "timeout" on /query; on /query/stream it is
// an error frame in the statement's slot, and the stream goes on to answer the
// next statement.
func TestDeadlineExpiresMidQuery(t *testing.T) {
	srv := newFlakyServer(t)
	const sql = "SELECT a100, COUNT(*) FROM t10000000_1000 GROUP BY a100"
	const next = `"SELECT a1 FROM t10000000_1000 WHERE a1 < 100"` + "\n"

	start := time.Now()
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"sql":"`+sql+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	wantTimeout(t, resp)
	if waited := time.Since(start); waited >= 200*time.Millisecond {
		t.Errorf("/query answered after %v: the deadline did not cut the 200 ms back-off short", waited)
	}

	// Both lines in one write: the stream's idle bound is the 50 ms too.
	w, br := streamConn(t, srv.Listener.Addr().String())
	if _, err := io.WriteString(w, sql+"\n"+next); err != nil {
		t.Fatal(err)
	}
	body := responseBody(t, br)
	raw, err := readFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	var slot map[string]string
	if err := json.Unmarshal(raw, &slot); err != nil {
		t.Fatalf("slot 0 is not an error frame: %v (%s)", err, raw)
	}
	if slot["sql"] != sql || !strings.Contains(slot["error"], context.DeadlineExceeded.Error()) {
		t.Errorf("slot 0 = %v, want the statement and a deadline error", slot)
	}
	wantFrame(t, body, 1, next)
	wantEnd(t, w, body)
}

// holdOnlySlot builds a one-slot server whose slot the test itself holds, so
// the next request queues. The returned function gives the slot back.
func holdOnlySlot(t *testing.T, timeout time.Duration) (*Server, *httptest.Server, func()) {
	t.Helper()
	s := New(newBenchEngine(t)).WithAdmission(admission.Config{MaxInFlight: 1})
	srv := httptest.NewServer(s.Handler(timeout))
	t.Cleanup(srv.Close)
	release, err := s.adm.Hold(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	return s, srv, release
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func reconciles(st admission.Stats) bool {
	return st.Offered == st.Admitted+st.RateLimited+st.ShedQueueFull+st.ShedDeadline+st.Canceled
}

// TestQueuedPastDeadline: a request still waiting for a slot when its
// deadline passes answers 503 "timeout" and is counted as canceled.
func TestQueuedPastDeadline(t *testing.T) {
	s, srv, release := holdOnlySlot(t, 50*time.Millisecond)
	defer release()
	before := s.Admission()
	resp, err := http.Get(srv.URL + "/query?q=SELECT+a1+FROM+t100000_100")
	if err != nil {
		t.Fatal(err)
	}
	wantTimeout(t, resp)
	st := s.Admission()
	if st.Canceled != before.Canceled+1 || st.Queued != 0 || !reconciles(st) {
		t.Errorf("admission after the deadline passed in the queue: %+v (before: %+v)", st, before)
	}
}

// TestHostileLocalStatement: 64 bytes of SQL over a materialized table — a
// cross join of 10^10 tuples — used to ask the row engine for a 240 GB
// intermediate relation and end the process ("fatal error: runtime: out of
// memory": nothing to recover, and the deadline was never consulted). The row
// engine now streams the join and polls the request's context, so the
// statement is a 503 at its deadline, on /query and in its /query/batch slot,
// the server goes on answering, and the admission counters still add up.
func TestHostileLocalStatement(t *testing.T) {
	e := newBenchEngine(t)
	if err := e.Materialize("t100000_100"); err != nil {
		t.Fatal(err)
	}
	s := New(e)
	srv := httptest.NewServer(s.Handler(100 * time.Millisecond))
	t.Cleanup(srv.Close)
	const sql = "SELECT COUNT(*) FROM t100000_100 r CROSS JOIN t100000_100 s"

	start := time.Now()
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"sql":"`+sql+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	wantTimeout(t, resp)
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("/query answered after %v, want about the 100 ms deadline", waited)
	}

	resp, err = http.Post(srv.URL+"/query/batch", "application/json",
		strings.NewReader(`["SELECT a1 FROM t10000_100 WHERE a1 < 3", "`+sql+`"]`))
	if err != nil {
		t.Fatal(err)
	}
	var slots []struct {
		Rows  [][]float64 `json:"rows"`
		Error string      `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&slots)
	resp.Body.Close()
	if err != nil || len(slots) != 2 || len(slots[0].Rows) != 3 || !strings.Contains(slots[1].Error, context.DeadlineExceeded.Error()) {
		t.Errorf("/query/batch = %+v (%v), want three rows and a deadline error", slots, err)
	}

	resp, err = http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/health after the hostile statement = %d, want 200", resp.StatusCode)
	}
	if st := s.Admission(); st.Offered != 2 || st.Admitted != 2 || st.InFlight != 0 || !reconciles(st) {
		t.Errorf("admission after the hostile statement: %+v", st)
	}
}

// TestClientHangsUpWhileQueued: a client that goes away while its request
// waits for a slot leaves nothing behind in the queue or in flight.
func TestClientHangsUpWhileQueued(t *testing.T) {
	s, srv, release := holdOnlySlot(t, 10*time.Second)
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/query?q=SELECT+a1+FROM+t100000_100", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "the request to queue", func() bool { return s.Admission().Queued == 1 })
	hangUp()
	if err := <-done; err == nil {
		t.Error("the client got an answer after hanging up")
	}
	waitFor(t, "the queue to empty", func() bool { return s.Admission().Queued == 0 })
	release()
	if st := s.Admission(); st.InFlight != 0 || st.Queued != 0 || st.Canceled != 1 || !reconciles(st) {
		t.Errorf("admission after the client hung up: %+v", st)
	}
}

// TestQueryLeavesNoGoroutines: the request deadline starts nothing that
// outlives its request, ?trace=1 requests (whose spans travel in
// context.WithValue children of it) included.
func TestQueryLeavesNoGoroutines(t *testing.T) {
	srv, _ := newTestServer(t)
	n := 10000
	if testing.Short() {
		n = 1000
	}
	get := func(url string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", url, resp.StatusCode)
		}
	}
	url := srv.URL + "/query?q=SELECT+a1+FROM+t100000_100"
	get(url) // the keep-alive connection and its goroutines on both sides
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		if i%100 == 0 {
			get(url + "&trace=1")
		} else {
			get(url)
		}
	}
	// A few may be in transit between two requests; a leak would be n of them.
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Errorf("%d goroutines before %d requests, %d after", before, n, after)
	}
}

// TestDeadlineCtx covers the deadline context by itself (run it with -race
// -count=10): what Err and Done say before and after the deadline and a
// parent's cancellation, that release stops an armed timer, and that the
// three may be called from several goroutines at once.
func TestDeadlineCtx(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		case <-time.After(5 * time.Second):
			return false
		}
	}
	brief, long := &Server{timeout: 20 * time.Millisecond}, &Server{timeout: time.Hour}

	t.Run("Err flips at the deadline without Done", func(t *testing.T) {
		ctx := brief.withDeadline(context.Background())
		d, ok := ctx.Deadline()
		if err := ctx.Err(); err != nil || !ok || time.Until(d) > brief.timeout {
			t.Fatalf("fresh: Err %v, deadline %v %v", err, d, ok)
		}
		time.Sleep(time.Until(d) + time.Millisecond)
		if err := ctx.Err(); err != context.DeadlineExceeded {
			t.Errorf("Err past the deadline = %v", err)
		}
		if ctx.timed != nil {
			t.Error("a timer was armed though nobody asked for Done")
		}
	})
	t.Run("Done closes at the deadline", func(t *testing.T) {
		ctx := brief.withDeadline(context.Background())
		defer ctx.release()
		if !closed(ctx.Done()) || ctx.Err() != context.DeadlineExceeded {
			t.Errorf("Done closed: %v, Err %v", ctx.timed.Err() != nil, ctx.Err())
		}
	})
	t.Run("Done closes when the parent is cancelled", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		ctx, unasked := long.withDeadline(parent), long.withDeadline(parent)
		defer ctx.release()
		done := ctx.Done()
		cancel()
		if !closed(done) || ctx.Err() != context.Canceled || unasked.Err() != context.Canceled {
			t.Errorf("Done closed: %v, Err %v and %v", ctx.timed.Err() != nil, ctx.Err(), unasked.Err())
		}
	})
	t.Run("an earlier deadline of the parent wins", func(t *testing.T) {
		parent, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		want, _ := parent.Deadline()
		if got, _ := long.withDeadline(parent).Deadline(); !got.Equal(want) {
			t.Errorf("deadline %v, parent's is %v", got, want)
		}
	})
	t.Run("release stops an armed timer", func(t *testing.T) {
		ctx := long.withDeadline(context.Background())
		ctx.release() // nothing armed yet
		done := ctx.Done()
		ctx.release()
		if !closed(done) || ctx.timed.Err() != context.Canceled {
			t.Errorf("after release the armed context's Err = %v", ctx.timed.Err())
		}
	})
	t.Run("concurrent use", func(t *testing.T) {
		ctx := brief.withDeadline(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for ctx.Err() == nil {
					ctx.Deadline()
					ctx.Value(i)
					if i%2 == 0 {
						ctx.Done()
					} else {
						ctx.release()
					}
				}
				if i%2 == 0 && !closed(ctx.Done()) {
					t.Error("Done still open past the deadline")
				}
			}(i)
		}
		wg.Wait()
		ctx.release()
	})
}
