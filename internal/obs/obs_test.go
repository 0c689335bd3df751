package obs

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// counterSource fabricates a cumulative series: qps queries/step with
// errs failures/step and a latency histogram fed lat per query.
type counterSource struct {
	mu      sync.Mutex
	c       Cumulative
	latHist *metrics.Histogram
}

func newCounterSource() *counterSource {
	return &counterSource{latHist: metrics.NewLatencyHistogram()}
}

func (cs *counterSource) step(queries, errors uint64, lat time.Duration) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.c.Queries += queries
	cs.c.Errors += errors
	for i := uint64(0); i < queries; i++ {
		cs.latHist.Observe(lat)
	}
}

func (cs *counterSource) snapshot() Cumulative {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c := cs.c
	c.Latency = cs.latHist.Snapshot()
	return c
}

func TestCollectorRatesAndQuantiles(t *testing.T) {
	src := newCounterSource()
	slo := NewSLO(time.Second, nil)
	now := time.Unix(1_700_000_000, 0)
	slo.Tick(now, src.snapshot()) // prime
	src.step(100, 10, 2*time.Millisecond)
	now = now.Add(time.Second)
	slo.Tick(now, src.snapshot())
	recent := slo.samples.Recent(1)
	if len(recent) != 1 {
		t.Fatalf("ring has %d samples, want 1", len(recent))
	}
	s := recent[0]
	if s.Queries != 100 || s.Errors != 10 {
		t.Fatalf("Queries %v Errors %v, want 100/10", s.Queries, s.Errors)
	}
	if s.P99Sec < 2e-3 || s.P99Sec > 8e-3 {
		t.Fatalf("P99Sec = %v, want a small bucket bound covering 2ms", s.P99Sec)
	}
	// Next window is slow: the windowed p99 must jump even though the
	// lifetime histogram is dominated by fast observations.
	src.step(50, 0, 400*time.Millisecond)
	now = now.Add(time.Second)
	slo.Tick(now, src.snapshot())
	s = slo.samples.Recent(1)[0]
	if s.Queries != 50 || s.P99Sec < 0.4 {
		t.Fatalf("slow step: Queries %v P99Sec %v, want 50 and >= 0.4", s.Queries, s.P99Sec)
	}
}

// stepper feeds an SLO cumulative counters one step at a time, starting
// from a primed baseline at base.
type stepper struct {
	slo *SLO
	now time.Time
	c   Cumulative
}

func newStepper(slo *SLO, base time.Time) *stepper {
	slo.Tick(base, Cumulative{})
	return &stepper{slo: slo, now: base}
}

// tick advances one step during which queries ran and errors of them failed.
func (st *stepper) tick(step time.Duration, queries, errors uint64) {
	st.now = st.now.Add(step)
	st.c.Queries += queries
	st.c.Errors += errors
	st.slo.Tick(st.now, st.c)
}

func TestSLOFiringAndResolution(t *testing.T) {
	slo := NewSLO(time.Second, []Objective{{
		Name: "availability", Kind: KindAvailability, Target: 0.9,
		FastWindow: 5 * time.Second, SlowWindow: 15 * time.Second,
		BurnFactor: 2, ClearAfter: 3 * time.Second,
	}})
	st := newStepper(slo, time.Unix(1_700_000_000, 0))
	tick := func(errors uint64) { st.tick(time.Second, 100, errors) }
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
	if snap := slo.Snapshot(); len(snap) != 1 || snap[0].State != StateFiring || snap[0].FiredTotal != 1 {
		t.Fatalf("Snapshot() = %+v, want the one objective firing once", snap)
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
	slo := NewSLO(time.Second, []Objective{{
		Name: "availability", Kind: KindAvailability, Target: 0.99,
		FastWindow: 3 * time.Second, SlowWindow: 9 * time.Second, BurnFactor: 2,
	}})
	st := newStepper(slo, time.Unix(1_700_000_000, 0))
	for i := 0; i < 20; i++ {
		st.tick(time.Second, 0, 0) // zero traffic
	}
	if got := slo.Snapshot()[0].State; got != StateInactive {
		t.Fatalf("idle process: state %q, want inactive", got)
	}
}

// TestSLOWindowReadsItsOwnSteps: a window reads the window/step steps that
// ended inside it, not the step that ended exactly a window ago (it covers
// time before the window), and tells sub-second steps apart. After 8
// all-error steps and 4 clean ones a 4-step window burns 0.
func TestSLOWindowReadsItsOwnSteps(t *testing.T) {
	for _, step := range []time.Duration{time.Second, 250 * time.Millisecond} {
		slo := NewSLO(step, []Objective{{
			Name: "availability", Kind: KindAvailability, Target: 0.9,
			FastWindow: 4 * step, SlowWindow: 4 * step, BurnFactor: 2,
		}})
		st := newStepper(slo, time.Unix(1_700_000_000, 0))
		for i := 0; i < 8; i++ {
			st.tick(step, 10, 10)
		}
		for clean, want := range []float64{10, 7.5, 5, 2.5, 0} {
			if clean > 0 {
				st.tick(step, 10, 0)
			}
			if a := slo.Snapshot()[0]; math.Abs(a.FastBurn-want) > 1e-9 || math.Abs(a.SlowBurn-want) > 1e-9 {
				t.Errorf("step %s, %d clean steps after errors: burn fast %v slow %v, want %v",
					step, clean, a.FastBurn, a.SlowBurn, want)
			}
		}
	}
}

// TestNewFitsSlowWindowInRing: SLO.burn divides a window's bad fractions by
// window/step samples, so a slow window longer than the ring would read its
// missing samples as good (a 2h window at the default 5s step reads 750 of a
// true 1000 burn). New rejects it; the longest window the ring holds reads
// the true burn, and with no objective there is no SLO and no sampling.
func TestNewFitsSlowWindowInRing(t *testing.T) {
	const step = 5 * time.Second
	objectives := func(slow time.Duration) []Objective {
		return DefaultObjectives(0.999, 0, 0, time.Minute, slow, 14)
	}
	if _, err := New(Config{Step: step, Objectives: objectives(2 * time.Hour)}); err == nil {
		t.Error("New accepted a 2h slow window at a 5s step (1440 samples, ring 1080)")
	}
	for _, slow := range []time.Duration{5 * time.Minute, SampleRingSize * step} {
		if _, err := New(Config{Step: step, Objectives: objectives(slow)}); err != nil {
			t.Errorf("slow window %s: %v", slow, err)
		}
	}

	slo := NewSLO(step, objectives(SampleRingSize*step))
	st := newStepper(slo, time.Unix(1_700_000_000, 0))
	for i := 0; i < SampleRingSize+10; i++ {
		st.tick(step, 1, 1)
	}
	if got := slo.Snapshot()[0].SlowBurn; math.Abs(got-1000) > 1e-6 {
		t.Errorf("all-error traffic over a ring-long slow window burns %v, want 1000", got)
	}

	idle, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	idle.Start(func() Cumulative {
		t.Error("SLO sampled with no objective declared")
		return Cumulative{}
	})
	if idle.SLO != nil {
		t.Errorf("no objective: SLO %v, want none", idle.SLO)
	}
	idle.Stop()
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
	sink.Stop() // the final drain writes whatever the ticker left
	st := sink.Stats()
	if st.Lost != 0 || st.WriteErrs != 0 {
		t.Fatalf("lost %d, write errors %d, want 0 each", st.Lost, st.WriteErrs)
	}
	if st.Rotations == 0 {
		t.Fatal("expected at least one rotation at 2 KiB max size")
	}
	// Both the live file and the rotation must be whole NDJSON lines, and
	// the newest line on disk is the last event recorded.
	var lines int
	var newest uint64
	for _, p := range []string{path + ".1", path} {
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
			newest = ev.ID
		}
		f.Close()
	}
	if lines == 0 || newest != 100 {
		t.Fatalf("%d event lines on disk, the newest event %d; want some, ending at 100", lines, newest)
	}
}

// TestFileSinkCountsUnwritableEvents: when a rotation cannot reopen the log
// (its directory is gone), every event drained until the path opens again is
// a counted write error and no rotation is counted; once the directory is
// back, the next drain writes to the file again.
func TestFileSinkCountsUnwritableEvents(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "events.ndjson")
	ring := NewRing(16)
	sink, err := NewFileSink(ring, path, 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	record := func(n int) {
		for i := 0; i < n; i++ {
			ring.Record(&Event{Kind: "query", SQL: "SELECT 1"})
		}
		sink.drain()
	}
	record(1) // fills the 1-byte log: the next event rotates
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	record(3)
	if st := sink.Stats(); st.WriteErrs != 3 || st.Rotations != 0 {
		t.Fatalf("directory gone: %+v, want 3 write errors and no rotation", st)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	record(1)
	if st := sink.Stats(); st.WriteErrs != 3 {
		t.Fatalf("directory back: %+v, want the write errors to stop at 3", st)
	}
	sink.f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal(data, &ev); err != nil || ev.ID != 5 {
		t.Fatalf("log after the directory came back = %q (%v), want event 5 alone", data, err)
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
		h := StatementHash(tc.sql)
		if got, _ := h.MarshalText(); string(got) != tc.want {
			t.Errorf("StatementHash(%q) = %q, want %q", tc.sql, got, tc.want)
		}
		// The event keeps the number and writes the same string.
		line, err := json.Marshal(&Event{StmtHash: h})
		if want := `"stmt_hash":"` + tc.want + `"`; err != nil || !strings.Contains(string(line), want) {
			t.Errorf("event JSON %s (%v), want it to carry %s", line, err, want)
		}
		var back Event
		if err := json.Unmarshal(line, &back); err != nil || back.StmtHash != h {
			t.Errorf("event JSON %s read back as hash %v (%v), want %v", line, back.StmtHash, err, h)
		}
	}
	var bad Event
	for _, line := range []string{`{"stmt_hash":"84edf7d3bfe86fa"}`, `{"stmt_hash":"84edf7d3bfe86fag"}`, `{"stmt_hash":"+4edf7d3bfe86fae"}`} {
		if err := json.Unmarshal([]byte(line), &bad); err == nil {
			t.Errorf("%s decoded as hash %v", line, bad.StmtHash)
		}
	}
}
