package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"sort"
	"strconv"
	"time"

	"intellisphere/bench/mix"
	"intellisphere/internal/catalog"
	"intellisphere/internal/datagen"
	"intellisphere/internal/querygrid"
)

// transport is how a workload's statements reach the server.
type transport int

const (
	viaQuery  transport = iota // one statement per POST /query
	viaBatch                   // batchSize statements per POST /query/batch
	viaStream                  // pipelined over one POST /query/stream
)

const (
	batchSize   = 16
	streamDepth = 32 // statements awaiting their frame on /query/stream
	// A run is one discarded warm-up round plus measuredRounds timed ones,
	// all of equal length. A round is a string of slices: workSlice of the
	// workload, then twinSlice of the twin (see twin.go), so the host speed a
	// round's statements ran at is measured between them, never more than a
	// tenth of a second away. Every timing metric is computed per round,
	// scaled by that round's twin rate, and the run reports the median round.
	measuredRounds = 13
	workSlice      = 100 * time.Millisecond
	twinSlice      = 25 * time.Millisecond
	// bootsPerRun cold boots are timed per run, each after a cold boot of
	// the twin; setup_s is the median of the boots scaled by the twin's.
	bootsPerRun = 25
	// The first sampleStmts statements of the stream (warm-up included: what
	// the estimators answer does not depend on timing) are the fixed, seeded
	// sample behind est_qerror_mean and plan_actual_sec_mean: a run is
	// time-boxed, so its total count varies, but this prefix does not, and
	// the two metrics repeat bit for bit for one seed. Their answers, and
	// every keepEvery-th request's after that, are kept for the answer check.
	sampleStmts = 20000
	keepEvery   = 32
	// adminEvery is connection 2's mutation schedule on admin_churn: one
	// mutation per adminEvery statements answered on connection 1, sent while
	// connection 1 carries on. The issue proposed a clock, one every 10 ms; a
	// clock ties the mix to the host — on a host half as fast each statement
	// carries twice the mutation work (an fsync and 64 re-plans), which no
	// scaling by the twin undoes — so the schedule counts statements: 400 is
	// 25 ms at the reference speed (10 ms made run-to-run spread 2.5 times
	// wider, and the workload stresses the same paths at either rate).
	adminEvery = 400
)

// workload is one traffic mix. Every workload is a closed loop driven from
// this process over at most two connections (the host has two cores).
type workload struct {
	name  string
	mix   mix.Config // Seed is filled in per run
	via   transport
	admin bool      // a second connection issues durable admin mutations
	twin  twinShape // the host-speed yardstick shaped like this traffic
}

// The twin shapes: as many records a request as the workload has statements
// (the stream's are flushed about a pipeline's depth at a time), and decode
// passes chosen so that a twin request costs about what a workload request
// does. nominal is the twin's rate on the reference host, a quiet spell of
// the guest this was written on; it only fixes the scale results are quoted
// at and must not change once results are being compared.
var workloads = []workload{
	{name: "hot_set", mix: mix.Config{Shapes: 64}, via: viaQuery,
		twin: twinShape{records: 1, units: 4, nominal: 14000}},
	{name: "literal_churn", mix: mix.Config{Shapes: 2048, ZipfS: 1.1, Distinct: 1}, via: viaStream,
		twin: twinShape{records: streamDepth, units: 6, nominal: 750}},
	{name: "zipf_mix", mix: mix.Config{Shapes: 2048, ZipfS: 1.1, Distinct: 0.2, Local: 0.005}, via: viaBatch,
		twin: twinShape{records: batchSize, units: 6, nominal: 1400}},
	{name: "admin_churn", mix: mix.Config{Shapes: 64}, via: viaQuery, admin: true,
		twin: twinShape{records: 1, units: 4, nominal: 14000}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// exchange is one kept request: the statements sent and the raw response.
type exchange struct {
	first int // index of sqls[0] in the stream
	sqls  []string
	body  []byte
}

// round is one time box of the run.
type round struct {
	stmts int           // statements answered
	work  time.Duration // time spent on the workload: the round less its twin slices
	cpu   time.Duration // server user+sys CPU spent during the round
	lat   []float64     // per-request round-trip times, µs
	twin  twinSample    // the round's twin slices together
}

// answerMarker appears exactly once in every successful statement answer and
// never in an error frame.
var answerMarker = []byte(`"estimated_sec":`)

// recorder does the run's bookkeeping; the driving goroutine reports every
// completed request to it, and runs the twin slices through it.
type recorder struct {
	proc     *serveProc
	twin     *twinProc
	roundDur time.Duration

	rounds     []round // closed rounds; rounds[0] is the warm-up
	cur        round
	roundStart time.Time
	sliceStart time.Time
	cpuStart   time.Duration
	// kick, when set, gets a token every adminEvery statements: the admin
	// connection's cue for its next mutation.
	kick      chan struct{}
	sinceKick int

	attempted, failed int
	requests          int // requests completed
	respBytes         int // response body bytes received
	kept              []exchange
	err               error
}

func newRecorder(proc *serveProc, twin *twinProc, roundDur time.Duration) (*recorder, error) {
	cpu, err := proc.cpu()
	if err != nil {
		return nil, err
	}
	now := time.Now()
	return &recorder{proc: proc, twin: twin, roundDur: roundDur, roundStart: now, sliceStart: now, cpuStart: cpu}, nil
}

// exchange records one completed request and reports whether the work slice
// is over: the caller then lets what it has in flight finish and calls
// reference. body is only valid during the call.
func (r *recorder) exchange(now, sent time.Time, sqls []string, status int, body []byte) bool {
	n := len(sqls)
	answered := 0
	if status == http.StatusOK {
		answered = bytes.Count(body, answerMarker)
		if answered > n {
			answered = n
		}
	}
	if r.attempted < sampleStmts || r.requests%keepEvery == 0 {
		r.kept = append(r.kept, exchange{first: r.attempted, sqls: sqls, body: append([]byte(nil), body...)})
	}
	r.attempted += n
	r.failed += n - answered
	r.requests++
	r.respBytes += len(body)
	r.cur.stmts += answered
	if r.kick != nil {
		if r.sinceKick += answered; r.sinceKick >= adminEvery {
			r.sinceKick -= adminEvery
			select {
			case r.kick <- struct{}{}:
			default: // the previous mutation is still out; this one is skipped
			}
		}
	}
	r.cur.lat = append(r.cur.lat, float64(now.Sub(sent))/float64(time.Microsecond))
	return now.Sub(r.sliceStart) >= workSlice
}

// reference ends the work slice, runs a twin slice, closes the round if its
// time is up, and reports whether the run is over. Nothing of the workload
// may be in flight.
func (r *recorder) reference() bool {
	r.cur.work += time.Since(r.sliceStart)
	s, err := r.twin.run(twinSlice)
	if err != nil {
		r.err = err
		return true
	}
	r.cur.twin.add(s)
	now := time.Now()
	r.sliceStart = now
	if now.Sub(r.roundStart) < r.roundDur {
		return false
	}
	cpu, err := r.proc.cpu()
	if err != nil {
		r.err = err
		return true
	}
	r.cur.cpu = cpu - r.cpuStart
	r.rounds = append(r.rounds, r.cur)
	r.cur = round{lat: make([]float64, 0, len(r.cur.lat)+len(r.cur.lat)/4)}
	r.roundStart, r.cpuStart = now, cpu
	return len(r.rounds) == 1+measuredRounds
}

// timings are the per-round figures of the measured rounds. The timing ones
// are quoted at the reference host speed: scaled by the round's twin rate
// over the workload's nominal one.
type timings struct {
	qps, p50, p99, cpuPerStmt []float64
	hostSpeed                 []float64 // twin rate over nominal; 1 is the reference host
	rawQPS                    []float64 // as the clock saw it
	samples                   int       // latency samples in the smallest round
}

func (r *recorder) timings() timings {
	var t timings
	for i, rd := range r.rounds[1:] {
		sort.Float64s(rd.lat)
		speed := rd.twin.rate() / r.twin.shape.nominal
		raw := float64(rd.stmts) / rd.work.Seconds()
		t.hostSpeed = append(t.hostSpeed, speed)
		t.rawQPS = append(t.rawQPS, raw)
		t.qps = append(t.qps, raw/speed)
		t.p50 = append(t.p50, percentile(rd.lat, 0.50)*speed)
		t.p99 = append(t.p99, percentile(rd.lat, 0.99)*speed)
		t.cpuPerStmt = append(t.cpuPerStmt, float64(rd.cpu)/float64(time.Microsecond)/float64(rd.stmts)*speed)
		if i == 0 || len(rd.lat) < t.samples {
			t.samples = len(rd.lat)
		}
	}
	return t
}

// appendQueryBody appends the POST /query body for sql to dst.
func appendQueryBody(dst []byte, sql string) []byte {
	dst = append(dst, `{"sql":`...)
	dst = strconv.AppendQuote(dst, sql)
	return append(dst, '}')
}

// driveQuery sends one statement per POST /query over one connection, each
// after the previous reply.
func driveQuery(addr string, gen *mix.Generator, rec *recorder) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	var body []byte
	for {
		sql := gen.Next()
		body = appendQueryBody(body[:0], sql)
		sent := time.Now()
		status, resp, err := c.do("/query", body)
		if err != nil {
			return err
		}
		if rec.exchange(time.Now(), sent, []string{sql}, status, resp) && rec.reference() {
			return rec.err
		}
	}
}

// driveBatch sends batchSize statements per POST /query/batch over one
// connection, each request after the previous reply.
func driveBatch(addr string, gen *mix.Generator, rec *recorder) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	var body []byte
	for {
		sqls := make([]string, batchSize)
		body = append(body[:0], '[')
		for i := range sqls {
			sqls[i] = gen.Next()
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendQuote(body, sqls[i])
		}
		body = append(body, ']')
		sent := time.Now()
		status, resp, err := c.do("/query/batch", body)
		if err != nil {
			return err
		}
		if rec.exchange(time.Now(), sent, sqls, status, resp) && rec.reference() {
			return rec.err
		}
	}
}

// driveStream pipelines statements over one POST /query/stream request: a
// writer goroutine keeps up to streamDepth statements in flight while the
// caller reads the frames; a statement's latency runs from its hand-over to
// the pipeline until its frame has been read. When a work slice is over the
// reader stops handing slots back, so the pipeline runs dry and the writer
// parks; the twin slice runs then, and the slots go back after it.
func driveStream(addr string, gen *mix.Generator, rec *recorder) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close() // also unblocks the writer if the reader fails first

	type sent struct {
		sql string
		at  time.Time
	}
	slots := make(chan struct{}, streamDepth) // one token per statement in flight
	inflight := make(chan sent, streamDepth)  // the same statements, in order, for the reader
	stop := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		defer close(inflight)
		werr <- func() error {
			c.bw.WriteString("POST /query/stream HTTP/1.1\r\nHost: bench\r\nTransfer-Encoding: chunked\r\n\r\n")
			cw := httputil.NewChunkedWriter(c.bw)
			var line []byte
			for running := true; running; {
				select {
				case slots <- struct{}{}:
				default:
					// The pipeline is full: what is buffered must reach the
					// server before waiting for a frame to free a slot.
					if err := c.bw.Flush(); err != nil {
						return err
					}
					select {
					case slots <- struct{}{}:
					case <-stop:
						running = false
						continue
					}
				}
				s := sent{sql: gen.Next(), at: time.Now()}
				line = strconv.AppendQuote(line[:0], s.sql)
				line = append(line, '\n')
				if _, err := cw.Write(line); err != nil {
					return err
				}
				inflight <- s
				select {
				case <-stop:
					running = false
				default:
				}
			}
			cw.Close()
			c.bw.WriteString("\r\n")
			return c.bw.Flush()
		}()
	}()
	stopped := false
	halt := func() {
		if !stopped {
			stopped = true
			close(stop)
		}
	}
	defer halt()

	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/query/stream answered %s", resp.Status)
	}
	frames := bufio.NewReaderSize(resp.Body, 64<<10)
	var frame []byte
	draining, held := false, 0 // held: slots of answered statements not handed back yet
	for s := range inflight {
		head, err := frames.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("read frame length: %w", err)
		}
		n, err := strconv.Atoi(string(bytes.TrimSpace(head)))
		if err != nil {
			return fmt.Errorf("bad frame length %q", head)
		}
		if cap(frame) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(frames, frame); err != nil {
			return fmt.Errorf("read frame: %w", err)
		}
		now := time.Now()
		if !stopped && rec.exchange(now, s.at, []string{s.sql}, http.StatusOK, frame) {
			draining = true
		}
		if !draining {
			<-slots
			continue
		}
		if held++; held < streamDepth {
			continue
		}
		// Every slot belongs to an answered statement: nothing is in flight.
		if rec.reference() {
			halt()
		}
		for ; held > 0; held-- {
			<-slots
		}
		draining = false
	}
	if err := <-werr; err != nil {
		return err
	}
	return rec.err
}

// adminLoad is connection 2 of admin_churn.
type adminLoad struct {
	attempted, failed int
	ackUS             []float64 // mutation round-trip times, µs
	err               error
}

// adminMutation describes admin_churn's k-th mutation, alternating QueryGrid
// link overrides (table is nil) with catalog registrations. Both bump a
// generation (so cached plans go stale) and are WAL-appended and fsynced
// before the ack, and neither changes any answer: the override re-installs
// the default link, and no statement reads the bench_* tables. The catalog
// refuses to register a name twice, so each registration uses a fresh name;
// the state this adds is bounded by the run length.
func adminMutation(k int) (system string, link querygrid.LinkConfig, table *catalog.Table) {
	if k%2 == 0 {
		systems := []string{"hive", "spark", "presto", "flink"}
		return systems[k/2%len(systems)], querygrid.DefaultLink(), nil
	}
	t, err := datagen.Table(1000, 100, "hive")
	if err != nil {
		panic(err) // fixed, valid arguments
	}
	t.Name = fmt.Sprintf("bench_%d", k/2)
	return "", querygrid.LinkConfig{}, t
}

// driveAdmin issues one admin mutation per token on kick until stop closes.
func driveAdmin(addr string, stop <-chan struct{}, kick <-chan struct{}, load *adminLoad) {
	c, err := dial(addr)
	if err != nil {
		load.err = err
		return
	}
	defer c.close()
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-kick:
		}
		system, link, table := adminMutation(k)
		path, body := "/links", []byte(nil)
		if table == nil {
			body, _ = json.Marshal(map[string]any{"system": system, "link": link})
		} else {
			path = "/catalog"
			body, _ = json.Marshal(map[string]any{"table": table})
		}
		sent := time.Now()
		status, _, err := c.do(path, body)
		if err != nil {
			load.err = err
			return
		}
		load.ackUS = append(load.ackUS, float64(time.Since(sent))/float64(time.Microsecond))
		load.attempted++
		if status != http.StatusOK {
			load.failed++
		}
	}
}
