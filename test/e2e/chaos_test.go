// Package e2e black-box tests the real serve binary: the top of the test
// layering (unit → httptest → this), and the only place cmd/serve's flag
// wiring runs under test. server_test.go is the shared build / start / stop /
// request helper, scenarios_test.go boots one server per flag family, and the
// crash-recovery soak here is the durability subsystem's acceptance test: a
// seeded stream of randomized actions — queries, batches, catalog
// registrations, materializations, link overrides, fault pulses, model tunes
// and rollbacks — interleaved with SIGKILL+restart cycles against the same
// data directory. After every recovery it asserts that every acknowledged
// mutation survived, that /explain answers byte-identical plans to both the
// pre-kill process and a never-killed in-process reference engine fed the
// same mutations, that circuit breakers recover after fault pulses, and
// that the server process does not leak goroutines between kills.
//
//	go test ./test/e2e                                   # scenarios + short seeded soak
//	go test ./test/e2e -run AdmissionScenario            # one scenario
//	go test -race ./test/e2e -run Soak -chaos.actions=2000 -timeout 30m   # long soak
//	go test ./test/e2e -run Soak -chaos.seed=7           # different action stream
package e2e

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"intellisphere/internal/catalog"
	"intellisphere/internal/datagen"
	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
	"intellisphere/internal/obs"
	"intellisphere/internal/querygrid"
)

var (
	chaosActions = flag.Int("chaos.actions", 200, "randomized actions to drive through the soak")
	chaosSeed    = flag.Int64("chaos.seed", 1, "action-stream seed (same seed, same soak)")
)

// demoSeed is the -seed both the server process and the in-process
// reference engine build from; identical seeds make their boot states
// bit-identical.
const demoSeed = 1

// flinkStatements exercise the blackbox logical-op remote: the aggregation
// the tuner smoke drifts plus a scan. They feed flink's execution log (so
// tune actions have material) and join the byte-compare probe set.
var flinkStatements = []string{
	"SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10",
	"SELECT a1 FROM t500000_250 WHERE a1 < 100000",
}

// probe is one statement in the byte-compare set. flink-touching probes
// leave the reference comparison once a server-side tune or rollback
// mutates flink's models (the reference never tunes — tuning consumes the
// server's own execution log), but they always stay in the pre-kill vs
// post-recovery self-comparison.
type probe struct {
	sql   string
	flink bool
}

// tableSpec records one acknowledged catalog registration so recovery
// checks know what must survive.
type tableSpec struct {
	name         string
	rows         int64
	width        int
	system       string
	materialized bool
}

// soak owns the server, the reference engine, and the mirrored mutation
// state.
type soak struct {
	*server
	r       *rand.Rand
	dataDir string

	ref           *engine.Engine
	probes        []probe
	specs         []tableSpec
	links         map[string]querygrid.LinkConfig
	flinkDiverged bool
	nextTable     int
	baseGoroutine int
}

// soakArgs are the flags every server incarnation starts with: the same
// deterministic federation seed, the durable data directory, the blackbox
// tunable remote, pprof (for the goroutine-leak check), a tight breaker
// so fault pulses cycle closed → open → closed quickly, and a wide-event
// log inside the data directory so every SIGKILL also tears the NDJSON
// sink mid-write (the torn-tail check below).
func soakArgs(dataDir string) []string {
	return []string{
		"-data-dir", dataDir,
		"-seed", strconv.Itoa(demoSeed),
		"-logical-remote",
		"-pprof",
		"-breaker-failures", "2",
		"-breaker-open-timeout", "200ms",
		"-event-log", filepath.Join(dataDir, "events.ndjson"),
	}
}

// explain fetches the server's rendered plan for one statement.
func (s *server) explain(sql string) string {
	s.t.Helper()
	var out struct {
		Explain string `json:"explain"`
	}
	s.getJSON("/explain?q="+url.QueryEscape(sql), &out)
	return out.Explain
}

// goroutines reads the server's live goroutine count from pprof.
func (s *server) goroutines() int {
	s.t.Helper()
	_, data := s.get("/debug/pprof/goroutine?debug=1")
	var n int
	if _, err := fmt.Sscanf(string(data), "goroutine profile: total %d", &n); err != nil {
		s.t.Fatalf("parse goroutine profile: %v\n%s", err, data)
	}
	return n
}

// soakTable builds the deterministic table both the server mutation and the
// reference registration share: datagen is a pure function of (rows, width,
// system), renamed to a unique soak name.
func soakTable(t *testing.T, name string, rows int64, width int, system string) *catalog.Table {
	t.Helper()
	tb, err := datagen.Table(rows, width, system)
	if err != nil {
		t.Fatal(err)
	}
	tb.Name = name
	return tb
}

// actRegisterTable registers a fresh table through POST /catalog (half the
// time materializing it in the same request) and mirrors the acknowledged
// mutation onto the reference engine.
func (s *soak) actRegisterTable() {
	s.t.Helper()
	s.nextTable++
	name := fmt.Sprintf("soak_t%d", s.nextTable)
	rows := int64(2000 + s.r.Intn(28000))
	width := []int{40, 100, 250}[s.r.Intn(3)]
	system := []string{"hive", "spark", "presto"}[s.r.Intn(3)]
	mat := s.r.Intn(2) == 0

	tb := soakTable(s.t, name, rows, width, system)
	tbJSON, err := json.Marshal(tb)
	if err != nil {
		s.t.Fatal(err)
	}
	body := fmt.Sprintf(`{"table": %s}`, tbJSON)
	if mat {
		body = fmt.Sprintf(`{"table": %s, "materialize": %q}`, tbJSON, name)
	}
	status, resp := s.post("/catalog", body)
	if status != http.StatusOK {
		s.t.Fatalf("register %s: status %d: %s", name, status, resp)
	}
	if err := s.ref.RegisterTable(soakTable(s.t, name, rows, width, system)); err != nil {
		s.t.Fatalf("reference register %s: %v", name, err)
	}
	if mat {
		if err := s.ref.Materialize(name); err != nil {
			s.t.Fatalf("reference materialize %s: %v", name, err)
		}
	}
	s.specs = append(s.specs, tableSpec{name: name, rows: rows, width: width, system: system, materialized: mat})
	s.probes = append(s.probes, probe{
		sql: fmt.Sprintf("SELECT %s.a1 FROM %s JOIN t100000_100 ON %s.a1 = t100000_100.a1", name, name, name),
	})
}

// actSetLink installs a random QueryGrid override and mirrors it.
func (s *soak) actSetLink() {
	s.t.Helper()
	system := []string{"hive", "spark", "presto", "flink"}[s.r.Intn(4)]
	s.setLink(system, querygrid.LinkConfig{
		BandwidthBytesPerSec: 1e7 + s.r.Float64()*9e8,
		LatencySec:           s.r.Float64() * 0.5,
		PerRowOverheadUS:     s.r.Float64() * 5,
	})
}

// setLink installs a QueryGrid override and mirrors it.
func (s *soak) setLink(system string, cfg querygrid.LinkConfig) {
	s.t.Helper()
	body, err := json.Marshal(map[string]any{"system": system, "link": cfg})
	if err != nil {
		s.t.Fatal(err)
	}
	status, resp := s.post("/links", string(body))
	if status != http.StatusOK {
		s.t.Fatalf("set link %s: status %d: %s", system, status, resp)
	}
	if err := s.ref.SetLink(system, cfg); err != nil {
		s.t.Fatalf("reference set link %s: %v", system, err)
	}
	s.links[system] = cfg
}

// actQuery runs one random probe through /query, requiring only that the
// server answers.
func (s *soak) actQuery() {
	s.t.Helper()
	s.query(s.probes[s.r.Intn(len(s.probes))].sql)
}

// actBatch runs three random probes through /query/batch.
func (s *soak) actBatch() {
	s.t.Helper()
	sqls := make([]string, 3)
	for i := range sqls {
		sqls[i] = s.probes[s.r.Intn(len(s.probes))].sql
	}
	body, _ := json.Marshal(sqls)
	status, resp := s.post("/query/batch", string(body))
	if status != http.StatusOK {
		s.t.Fatalf("batch: status %d: %s", status, resp)
	}
}

// actExplainCompare byte-compares one probe against the reference engine
// (self-comparison against the pre-kill process happens at kill points).
func (s *soak) actExplainCompare() {
	s.t.Helper()
	p := s.probes[s.r.Intn(len(s.probes))]
	if p.flink && s.flinkDiverged {
		return
	}
	want, err := s.ref.Explain(p.sql)
	if err != nil {
		s.t.Fatalf("reference explain %q: %v", p.sql, err)
	}
	if got := s.explain(p.sql); got != want {
		s.t.Fatalf("explain %q diverged from reference:\nserver:\n%s\nreference:\n%s", p.sql, got, want)
	}
}

// hiveCandidates are statements over tables with a hive copy and a copy
// elsewhere. Each reads from whichever copy is cheapest under the links
// installed so far, so hiveStatement asks the reference engine which of them
// reads from hive.
var hiveCandidates = []string{
	"SELECT a2, COUNT(*) FROM t1000000_100 GROUP BY a2",
	"SELECT a5, COUNT(a1) FROM t10000000_1000 GROUP BY a5",
	"SELECT users.a1 FROM users JOIN events ON users.a1 = events.a1",
	"SELECT warehouse.a1 FROM warehouse JOIN t10000000_250 ON warehouse.a1 = t10000000_250.a1",
}

// hiveStatement returns the first of hiveCandidates whose plan has a step on
// hive or a transfer from it ("" when none has). A join algorithm's name may
// say hive on any system, so the test is on the step's system.
func (s *soak) hiveStatement() string {
	s.t.Helper()
	for _, sql := range hiveCandidates {
		text, err := s.ref.Explain(sql)
		if err != nil {
			s.t.Fatalf("reference explain %q: %v", sql, err)
		}
		steps, _, _ := strings.Cut(text, "rejected alternatives:")
		if strings.Contains(steps, "hive →") || strings.Contains(steps, "on hive ") {
			return sql
		}
	}
	return ""
}

// actFaultPulse forces an outage on hive and drives a statement whose plan
// reads from hive and whose tables have another copy: every answer must be
// degraded with hive excluded, and enough of them open the breaker (health
// 503). Then it lifts the outage and drives the statement until the breaker
// closes again (health 200) — the breakers-recover assertion. Hive is the
// slowest engine, so a plan reads from it only when its link is competitive:
// when the random links leave none that does, the pulse first gives hive a
// link faster than any actSetLink draws.
func (s *soak) actFaultPulse() {
	s.t.Helper()
	hiveSQL := s.hiveStatement()
	if hiveSQL == "" {
		s.setLink("hive", querygrid.LinkConfig{BandwidthBytesPerSec: 1e9})
		if hiveSQL = s.hiveStatement(); hiveSQL == "" {
			s.t.Fatalf("no statement reads from hive under links %+v", s.links)
		}
	}
	if status, resp := s.post("/faults", `{"system": "hive", "outage": true}`); status != http.StatusOK {
		s.t.Fatalf("force outage: status %d: %s", status, resp)
	}
	s.eventually("hive's breaker to open under the forced outage", func() bool {
		var out struct {
			Degraded bool     `json:"degraded"`
			Excluded []string `json:"excluded"`
		}
		status, body := s.query(hiveSQL)
		if err := json.Unmarshal(body, &out); status != http.StatusOK || err != nil ||
			!out.Degraded || len(out.Excluded) != 1 || out.Excluded[0] != "hive" {
			s.t.Fatalf("query during the hive outage: status %d, want 200 degraded with hive excluded: %s", status, body)
		}
		status, _ = s.get("/health")
		return status == http.StatusServiceUnavailable
	})
	if status, resp := s.post("/faults", `{"system": "hive", "outage": false}`); status != http.StatusOK {
		s.t.Fatalf("lift outage: status %d: %s", status, resp)
	}
	s.eventually("hive's breaker to close after the outage lifted", func() bool {
		s.query(hiveSQL)
		status, _ := s.get("/health")
		return status == http.StatusOK
	})
}

// actModel tunes or rolls back flink's models through POST /models. A 400
// is a legitimate verdict (log too small, nothing to roll back); a 200 that
// changed the live model retires flink probes from the reference
// comparison — the reference cannot reproduce a tune built from the
// server's own execution log.
func (s *soak) actModel() {
	s.t.Helper()
	if s.r.Intn(2) == 0 {
		// Feed flink's execution log first — tuning consumes it, and the
		// random query mix alone rarely leaves min_log records pending.
		for i := 0; i < 6; i++ {
			s.query(flinkStatements[0])
		}
		status, resp := s.post("/models",
			`{"action": "force-tune", "system": "flink", "holdout": 2, "min_log": 4, "train_iterations": 120}`)
		switch status {
		case http.StatusOK:
			var out struct {
				Promoted bool `json:"promoted"`
			}
			if err := json.Unmarshal(resp, &out); err != nil {
				s.t.Fatalf("decode tune response: %v: %s", err, resp)
			}
			if out.Promoted {
				s.flinkDiverged = true
			}
		case http.StatusBadRequest:
		default:
			s.t.Fatalf("tune: status %d: %s", status, resp)
		}
		return
	}
	status, resp := s.post("/models", `{"action": "rollback", "system": "flink"}`)
	switch status {
	case http.StatusOK:
		s.flinkDiverged = true
	case http.StatusBadRequest:
	default:
		s.t.Fatalf("rollback: status %d: %s", status, resp)
	}
}

// step runs one weighted random action.
func (s *soak) step() {
	switch n := s.r.Intn(100); {
	case n < 35:
		s.actQuery()
	case n < 55:
		s.actExplainCompare()
	case n < 70:
		s.actRegisterTable()
	case n < 80:
		s.actSetLink()
	case n < 88:
		s.actBatch()
	case n < 94:
		s.actFaultPulse()
	default:
		s.actModel()
	}
}

// modelLineage is the crash-stable slice of GET /models: version IDs,
// origins, and live flags per system (timestamps are re-stamped on replay,
// so they are excluded by construction).
type modelLineage map[string][]string

func (s *soak) lineage() modelLineage {
	s.t.Helper()
	var out struct {
		Systems []struct {
			System   string `json:"system"`
			Versions []struct {
				ID     int    `json:"id"`
				Origin string `json:"origin"`
				Live   bool   `json:"live"`
			} `json:"versions"`
		} `json:"systems"`
	}
	s.getJSON("/models", &out)
	lin := modelLineage{}
	for _, sys := range out.Systems {
		for _, v := range sys.Versions {
			lin[sys.System] = append(lin[sys.System], fmt.Sprintf("%d/%s/%v", v.ID, v.Origin, v.Live))
		}
	}
	return lin
}

// checkRecovery is the post-restart invariant sweep: acked catalog and link
// mutations present, Explain byte-identical to both the pre-kill capture
// and the reference (non-diverged probes), model lineage intact.
func (s *soak) checkRecovery(preKill map[string]string, preLineage modelLineage) {
	s.t.Helper()
	var health struct {
		Status     string `json:"status"`
		Durability *struct {
			Recovery struct {
				Restored bool `json:"restored"`
				Replayed int  `json:"replayed"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	s.getJSON("/health", &health)
	if health.Durability == nil {
		s.t.Fatalf("recovered server reports no durability block")
	}
	// Nothing rotates the WAL in a short soak, so acknowledged mutations come
	// back by replay after a SIGKILL and from the snapshot after a SIGTERM.
	if rec := health.Durability.Recovery; len(s.specs)+len(s.links) > 0 && !rec.Restored && rec.Replayed == 0 {
		s.t.Fatalf("recovery restored no snapshot and replayed no WAL record: %+v", rec)
	}

	for _, p := range s.probes {
		got := s.explain(p.sql)
		if want := preKill[p.sql]; got != want {
			s.t.Fatalf("explain %q diverged across SIGKILL:\npre-kill:\n%s\nrecovered:\n%s", p.sql, want, got)
		}
		if !p.flink || !s.flinkDiverged {
			want, err := s.ref.Explain(p.sql)
			if err != nil {
				s.t.Fatalf("reference explain %q: %v", p.sql, err)
			}
			if got != want {
				s.t.Fatalf("recovered explain %q diverged from reference:\nserver:\n%s\nreference:\n%s", p.sql, got, want)
			}
		}
	}

	var entries []struct {
		Table struct {
			Name string `json:"name"`
		} `json:"table"`
		Materialized bool `json:"materialized"`
	}
	s.getJSON("/catalog", &entries)
	mat := map[string]bool{}
	have := map[string]bool{}
	for _, e := range entries {
		have[e.Table.Name] = true
		mat[e.Table.Name] = e.Materialized
	}
	for _, spec := range s.specs {
		if !have[spec.name] {
			s.t.Fatalf("acked table %s lost across SIGKILL", spec.name)
		}
		if mat[spec.name] != spec.materialized {
			s.t.Fatalf("table %s materialization flag = %v, want %v", spec.name, mat[spec.name], spec.materialized)
		}
	}

	var links struct {
		Links map[string]querygrid.LinkConfig `json:"links"`
	}
	s.getJSON("/links", &links)
	for system, want := range s.links {
		if got, ok := links.Links[system]; !ok || got != want {
			s.t.Fatalf("acked link override on %s lost across SIGKILL: got %+v want %+v", system, links.Links[system], want)
		}
	}

	if got := s.lineage(); fmt.Sprint(got) != fmt.Sprint(preLineage) {
		s.t.Fatalf("model lineage diverged across SIGKILL:\npre-kill: %v\nrecovered: %v", preLineage, got)
	}

	s.checkEventLog()
}

// checkEventLog validates the wide-event NDJSON sink after a crash: the
// sink writes with no fsync, so SIGKILL may tear the final line mid-write,
// but every complete (newline-terminated) line must still parse as a wide
// event. At most one torn trailing fragment is tolerated — a torn line
// anywhere else means interleaved or corrupted writes.
func (s *soak) checkEventLog() {
	s.t.Helper()
	data, err := os.ReadFile(filepath.Join(s.dataDir, "events.ndjson"))
	if err != nil {
		s.t.Fatalf("read event log: %v", err)
	}
	lines := strings.Split(string(data), "\n")
	// A well-formed file ends with "\n", leaving one empty trailing element;
	// anything non-empty there is the (single permitted) torn fragment.
	complete, tail := lines[:len(lines)-1], lines[len(lines)-1]
	parsed := 0
	for i, line := range complete {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			s.t.Fatalf("event log line %d is torn or corrupt mid-file: %v: %q", i+1, err, line)
		}
		if ev.ID == 0 || ev.Kind == "" {
			s.t.Fatalf("event log line %d parsed but is not a wide event: %q", i+1, line)
		}
		parsed++
	}
	if tail != "" {
		var ev obs.Event
		if json.Unmarshal([]byte(tail), &ev) == nil && ev.ID != 0 {
			parsed++ // the kill landed exactly between the event and its newline
		}
	}
	if parsed == 0 {
		s.t.Fatalf("event log has no parseable events after %d queries", len(s.probes))
	}
}

// TestCrashRecoverySoak is the seeded black-box soak. See the package
// comment for invocation variants.
func TestCrashRecoverySoak(t *testing.T) {
	skipIfShort(t)
	ref, err := demo.BuildFederation(demo.Config{Seed: demoSeed, LogicalRemote: true})
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	s := &soak{
		server:  newServer(t, soakArgs(dataDir)...),
		r:       rand.New(rand.NewSource(*chaosSeed)),
		dataDir: dataDir,
		ref:     ref.Engine,
		links:   map[string]querygrid.LinkConfig{},
	}
	for _, sql := range demo.Statements() {
		s.probes = append(s.probes, probe{sql: sql})
	}
	for _, sql := range flinkStatements {
		s.probes = append(s.probes, probe{sql: sql, flink: true})
	}
	s.start()
	s.baseGoroutine = s.goroutines()

	actions := *chaosActions
	cycles := actions / 40
	if cycles < 3 {
		cycles = 3
	}
	perCycle := actions / cycles
	t.Logf("soak: %d actions, %d SIGKILL cycles, seed %d", actions, cycles, *chaosSeed)

	done := 0
	for cycle := 0; cycle < cycles; cycle++ {
		for i := 0; i < perCycle && done < actions; i++ {
			s.step()
			done++
		}
		// Once quiet, the process must not hold more goroutines than it
		// booted with plus transient slack (drainer, background snapshot,
		// in-flight HTTP); a leak never settles.
		s.eventually(fmt.Sprintf("goroutines to settle near the %d at boot", s.baseGoroutine), func() bool {
			return s.goroutines() <= s.baseGoroutine+30
		})

		preKill := map[string]string{}
		for _, p := range s.probes {
			preKill[p.sql] = s.explain(p.sql)
		}
		preLineage := s.lineage()

		// Half the kills land while a registration is in flight, so the WAL
		// tail is torn mid-mutation. The response is never received, so the
		// mutation is unacknowledged: the recovered server may or may not
		// have it (either is correct), and the name is burned so a later
		// registration cannot collide with a survivor.
		if s.r.Intn(2) == 0 {
			s.nextTable++
			name := fmt.Sprintf("soak_t%d", s.nextTable)
			tb := soakTable(t, name, 5000, 40, "hive")
			tbJSON, _ := json.Marshal(tb)
			go http.Post(s.base+"/catalog", "application/json",
				strings.NewReader(fmt.Sprintf(`{"table": %s}`, tbJSON)))
			time.Sleep(time.Duration(s.r.Intn(3)) * time.Millisecond)
		}
		s.kill()
		s.start()
		s.baseGoroutine = s.goroutines()
		s.checkRecovery(preKill, preLineage)
	}

	// Final cycle: graceful SIGTERM writes a shutdown snapshot; the next
	// boot must recover from it (restored, nothing to replay) and still
	// answer byte-identical plans.
	preKill := map[string]string{}
	for _, p := range s.probes {
		preKill[p.sql] = s.explain(p.sql)
	}
	preLineage := s.lineage()
	s.stop()
	s.start()
	var health struct {
		Durability *struct {
			Recovery struct {
				Restored bool `json:"restored"`
				Replayed int  `json:"replayed"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	s.getJSON("/health", &health)
	if health.Durability == nil || !health.Durability.Recovery.Restored || health.Durability.Recovery.Replayed != 0 {
		s.t.Fatalf("boot after SIGTERM did not recover from the shutdown snapshot: %+v", health.Durability)
	}
	s.checkRecovery(preKill, preLineage)
	t.Logf("soak done: %d actions, %d tables registered, flink diverged=%v", done, len(s.specs), s.flinkDiverged)
}
