package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"intellisphere/internal/metrics"
)

func TestRingRecordRecent(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Record(&Event{Kind: "query"})
	}
	if got := r.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	recent := r.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d events, want 4", len(recent))
	}
	for i, ev := range recent {
		if want := uint64(6 - i); ev.ID != want {
			t.Fatalf("recent[%d].ID = %d, want %d", i, ev.ID, want)
		}
	}
}

func TestRingSinceCursor(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Record(&Event{})
	}
	evs, next, lost := r.Since(0, 3)
	if len(evs) != 3 || next != 3 || lost != 0 {
		t.Fatalf("Since(0,3) = %d evs, next %d, lost %d; want 3, 3, 0", len(evs), next, lost)
	}
	evs, next, lost = r.Since(next, 0)
	if len(evs) != 2 || next != 5 || lost != 0 {
		t.Fatalf("Since(3,0) = %d evs, next %d, lost %d; want 2, 5, 0", len(evs), next, lost)
	}
	// Lap the ring: 10 more events into 8 slots starting from cursor 5
	// loses the two oldest.
	for i := 0; i < 10; i++ {
		r.Record(&Event{})
	}
	evs, next, lost = r.Since(next, 0)
	if len(evs) != 8 || next != 15 || lost != 2 {
		t.Fatalf("lapped Since = %d evs, next %d, lost %d; want 8, 15, 2", len(evs), next, lost)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].ID != evs[i-1].ID+1 {
			t.Fatalf("Since IDs not ascending: %d then %d", evs[i-1].ID, evs[i].ID)
		}
	}
}

// TestRingConcurrent exercises the event ring under -race: writers lapping
// the buffer while readers snapshot and a drainer follows the cursor.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(&Event{Kind: "query", LatencySec: float64(i)})
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // snapshot reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			recent := r.Recent(0)
			for i := 1; i < len(recent); i++ {
				if recent[i].ID >= recent[i-1].ID {
					t.Errorf("Recent not strictly descending: %d then %d", recent[i-1].ID, recent[i].ID)
					return
				}
			}
		}
	}()
	go func() { // cursor drainer
		defer readers.Done()
		var cursor uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs, next, _ := r.Since(cursor, 128)
			for i := 1; i < len(evs); i++ {
				if evs[i].ID <= evs[i-1].ID {
					t.Errorf("Since not ascending: %d then %d", evs[i-1].ID, evs[i].ID)
					return
				}
			}
			cursor = next
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
}

// TestHistoryConcurrent exercises the history ring under -race: one
// appender (the collector is single-goroutine by design) against snapshot
// and window readers.
func TestHistoryConcurrent(t *testing.T) {
	h := NewHistory(32, time.Second)
	base := time.Unix(1_700_000_000, 0)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Recent(0)
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Window(base.Add(time.Hour), time.Hour, 2*time.Second)
		}
	}()
	for i := 0; i < 5000; i++ {
		h.Append(&Sample{Unix: base.Add(time.Duration(i) * time.Second).Unix(), QPS: float64(i)})
	}
	close(stop)
	readers.Wait()
	if got := h.Count(); got != 5000 {
		t.Fatalf("Count = %d, want 5000", got)
	}
}

func TestHistoryWindow(t *testing.T) {
	h := NewHistory(100, time.Second)
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 60; i++ {
		h.Append(&Sample{Unix: base.Add(time.Duration(i) * time.Second).Unix()})
	}
	now := base.Add(59 * time.Second)
	full := h.Window(now, 30*time.Second, 0)
	if len(full) == 0 || len(full) > 31 {
		t.Fatalf("window returned %d samples, want ~30", len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i].Unix <= full[i-1].Unix {
			t.Fatalf("window not ascending at %d", i)
		}
	}
	coarse := h.Window(now, 30*time.Second, 10*time.Second)
	if len(coarse) < 3 || len(coarse) > 4 {
		t.Fatalf("10s-step window returned %d samples, want 3-4", len(coarse))
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(RecorderConfig{SampleRate: 0.25, SlowThreshold: 100 * time.Millisecond, RingSize: 16})
	if capture, ok := r.Sample(true, time.Millisecond); !ok || capture != "error" {
		t.Fatalf("error query: capture %q ok %v, want error/true", capture, ok)
	}
	if capture, ok := r.Sample(false, 200*time.Millisecond); !ok || capture != "slow" {
		t.Fatalf("slow query: capture %q ok %v, want slow/true", capture, ok)
	}
	var head int
	for i := 0; i < 400; i++ {
		if _, ok := r.Sample(false, time.Millisecond); ok {
			head++
		}
	}
	if head != 100 {
		t.Fatalf("head-sampled %d of 400 at rate 0.25, want exactly 100", head)
	}
	// Nil recorder: every call is a no-op miss.
	var nilRec *Recorder
	if _, ok := nilRec.Sample(true, time.Hour); ok {
		t.Fatal("nil recorder sampled")
	}
	nilRec.Observe(time.Second, 1)
	nilRec.Record(&Event{})
}

func TestRecorderZeroRateStillCapturesErrors(t *testing.T) {
	r := NewRecorder(RecorderConfig{SampleRate: 0})
	if _, ok := r.Sample(false, time.Millisecond); ok {
		t.Fatal("rate 0 captured an ordinary query")
	}
	if capture, ok := r.Sample(true, time.Millisecond); !ok || capture != "error" {
		t.Fatal("rate 0 dropped an error query")
	}
}

// collectorSource fabricates a cumulative series: qps queries/step with
// errs failures/step and a latency histogram fed lat per query.
type collectorSource struct {
	mu      sync.Mutex
	c       Cumulative
	latHist *metrics.Histogram
}

func newCollectorSource() *collectorSource {
	return &collectorSource{latHist: metrics.NewLatencyHistogram()}
}

func (cs *collectorSource) step(queries, errors uint64, lat time.Duration) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.c.Queries += queries
	cs.c.Errors += errors
	for i := uint64(0); i < queries; i++ {
		cs.latHist.Observe(lat)
	}
}

func (cs *collectorSource) snapshot() Cumulative {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c := cs.c
	c.Latency = cs.latHist.Snapshot()
	return c
}

func TestCollectorRatesAndQuantiles(t *testing.T) {
	src := newCollectorSource()
	h := NewHistory(64, time.Second)
	col := NewCollector(src.snapshot, h, nil, time.Second, nil)
	now := time.Unix(1_700_000_000, 0)
	col.Tick(now) // prime
	src.step(100, 10, 2*time.Millisecond)
	now = now.Add(time.Second)
	col.Tick(now)
	recent := h.Recent(1)
	if len(recent) != 1 {
		t.Fatalf("history has %d samples, want 1", len(recent))
	}
	s := recent[0]
	if s.QPS != 100 || s.ErrorRate != 10 {
		t.Fatalf("QPS %v ErrorRate %v, want 100/10", s.QPS, s.ErrorRate)
	}
	if s.P99Sec < 2e-3 || s.P99Sec > 8e-3 {
		t.Fatalf("P99Sec = %v, want a small bucket bound covering 2ms", s.P99Sec)
	}
	// Next window is slow: the windowed p99 must jump even though the
	// lifetime histogram is dominated by fast observations.
	src.step(50, 0, 400*time.Millisecond)
	now = now.Add(time.Second)
	col.Tick(now)
	s = h.Recent(1)[0]
	if s.P99Sec < 0.4 {
		t.Fatalf("windowed P99Sec = %v after slow step, want >= 0.4", s.P99Sec)
	}
}

func TestSLOFiringAndResolution(t *testing.T) {
	h := NewHistory(256, time.Second)
	slo := NewSLO(h, []Objective{{
		Name: "availability", Kind: KindAvailability, Target: 0.9,
		FastWindow: 5 * time.Second, SlowWindow: 15 * time.Second,
		BurnFactor: 2, ClearAfter: 3 * time.Second,
	}})
	now := time.Unix(1_700_000_000, 0)
	tick := func(errRate float64) {
		now = now.Add(time.Second)
		h.Append(&Sample{Unix: now.Unix(), QPS: 100, ErrorRate: errRate})
		slo.Evaluate(now)
	}
	state := func() string { return slo.Snapshot()[0].State }

	for i := 0; i < 5; i++ {
		tick(0)
	}
	if got := state(); got != StateInactive {
		t.Fatalf("healthy traffic: state %q, want inactive", got)
	}
	// 100% errors: bad fraction 1, budget 0.1, burn 10 >= factor 2. The
	// fast window saturates first (pending), then the slow window follows.
	sawPending := false
	for i := 0; i < 20 && state() != StateFiring; i++ {
		tick(100)
		if state() == StatePending {
			sawPending = true
		}
	}
	if got := state(); got != StateFiring {
		t.Fatalf("sustained errors: state %q, want firing", got)
	}
	if !sawPending {
		t.Fatal("alert skipped the pending state")
	}
	if slo.Firing() != 1 {
		t.Fatalf("Firing() = %d, want 1", slo.Firing())
	}
	// Recovery: burn decays below factor/2 in both windows, then the
	// hysteresis hold must elapse before the alert resolves.
	for i := 0; i < 40 && state() != StateResolved; i++ {
		tick(0)
	}
	if got := state(); got != StateResolved {
		t.Fatalf("after recovery: state %q, want resolved", got)
	}
	snap := slo.Snapshot()[0]
	if snap.FiredTotal != 1 || snap.ResolvedTotal != 1 {
		t.Fatalf("fired %d resolved %d, want 1/1", snap.FiredTotal, snap.ResolvedTotal)
	}
}

func TestSLOIdleDoesNotBurn(t *testing.T) {
	h := NewHistory(64, time.Second)
	slo := NewSLO(h, []Objective{{
		Name: "availability", Kind: KindAvailability, Target: 0.99,
		FastWindow: 3 * time.Second, SlowWindow: 9 * time.Second, BurnFactor: 2,
	}})
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 20; i++ {
		now = now.Add(time.Second)
		h.Append(&Sample{Unix: now.Unix()}) // zero traffic
		slo.Evaluate(now)
	}
	if got := slo.Snapshot()[0].State; got != StateInactive {
		t.Fatalf("idle process: state %q, want inactive", got)
	}
}

func TestFileSinkDrainAndRotate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.ndjson")
	ring := NewRing(256)
	sink, err := NewFileSink(ring, path, 2048, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sink.Start()
	for i := 0; i < 100; i++ {
		ring.Record(&Event{Kind: "query", SQL: "SELECT a1 FROM t WHERE a1 < 100", LatencySec: 0.001})
	}
	deadline := time.Now().Add(2 * time.Second)
	for sink.Stats().Written < 100 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	sink.Stop()
	st := sink.Stats()
	if st.Written != 100 {
		t.Fatalf("written %d, want 100", st.Written)
	}
	if st.Rotations == 0 {
		t.Fatal("expected at least one rotation at 2 KiB max size")
	}
	// Both the live file and the rotation must be whole NDJSON lines.
	var lines int
	for _, p := range []string{path, path + ".1"} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("%s: bad line %q: %v", p, sc.Text(), err)
			}
			lines++
		}
		f.Close()
	}
	if lines == 0 {
		t.Fatal("no event lines on disk")
	}
}

// TestStatementHashPinned pins the hash to the values hash/fnv's New64a and
// fmt's %016x produced before the hash was inlined: event logs written by
// older builds must keep joining on stmt_hash.
func TestStatementHashPinned(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{"", "cbf29ce484222325"},
		{"SELECT 1", "199e7bca63ea84f2"},
		{"SELECT a1 FROM t10000_100 WHERE a1 < 100", "84edf7d3bfe86fae"},
		{"SELECT größe FROM tabelle_ü", "20579146f92383b5"},
		{"SELECT users.a1 FROM users JOIN events ON users.a1 = events.a1", "df2f60ee096f9d97"},
		{"\x00\xff", "0831c907b4ea2b60"},
	} {
		if got := StatementHash(tc.sql); got != tc.want {
			t.Errorf("StatementHash(%q) = %q, want %q", tc.sql, got, tc.want)
		}
	}
}
