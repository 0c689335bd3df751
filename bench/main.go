// Command bench is the repository's benchmark: it builds cmd/serve from the
// checkout, boots it on loopback, drives one of four seeded closed-loop
// workloads through its socket, checks every kept answer against an
// uncached in-process reference engine, and prints each metric by name with
// its unit. The last line of standard output is the machine-readable result.
// Everything runs pinned to one CPU (pin.go) and every timing is quoted at a
// reference host speed, measured by a twin server between slices of the
// workload (twin.go).
//
//	bench -workload hot_set -seed 1 -seconds 28 -trace 0   end-to-end metrics
//	bench -workload hot_set -seed 1 -seconds 28 -trace 1   per-layer metrics
//	bench -seed 1                                          all four workloads
//	bench -aa                                              the suite twice, compared
//
// See README.md in this directory for the workloads, the metrics and how the
// layers map onto them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"intellisphere/bench/mix"
)

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json the command reads: the metric
// names, units and bounds it prints and compares against live there, once.
type benchFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadBenchFile(root string) (*benchFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// env is what every run shares: the checkout, the built server and a
// scratch directory for server state.
type env struct {
	root   string
	bin    string
	runDir string
	defs   *benchFile
	out    io.Writer // where reports go
	ladder int       // statements the per-layer run replays in-process
	pinned string    // what pinToOneCPU did, for the report
}

func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	defs, err := loadBenchFile(root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(buildDir(root), "bin"), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServe(root)
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(buildDir(root), "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, bin: bin, runDir: runDir, defs: defs, out: os.Stdout, ladder: ladderStmts}
	// The build above may use every CPU; the measurements get one.
	if cpu, err := pinToOneCPU(); err != nil {
		e.pinned = "not pinned to a CPU (" + err.Error() + "): expect a wide spread"
	} else {
		e.pinned = fmt.Sprintf("driver, server and twin pinned to CPU %d", cpu)
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.runDir) }

// dataDir returns a fresh, empty durable-state directory for a workload that
// boots the server with -data-dir, and "" for one that does not.
func (e *env) dataDir(w workload) (string, error) {
	if !w.admin {
		return "", nil
	}
	return os.MkdirTemp(e.runDir, "data-")
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed integer loop, in µs (median of five): a yardstick
// for how fast this host runs the harness right now. It explains a noisy
// run; it is never compared as a gain.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		x := uint64(r + 1)
		start := time.Now()
		for i := 0; i < 2_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		runs = append(runs, float64(time.Since(start))/float64(time.Microsecond))
		calibSink += x
	}
	return median(runs)
}

// outcome is one socket run of one workload.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64 // end-to-end metrics by name
	notes             []string
	timings           timings
	admin             *adminLoad
	calibUS           float64
	dataDir           string             // what the server left behind (admin workloads)
	counts            map[string]float64 // /metrics/prom deltas over the run (traced runs)
	heapMB            float64
	respBytesPerStmt  float64
}

// perRound renders per-round values for the report's notes.
func perRound(format string, xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, format, x)
	}
	return b.String()
}

// socketRun boots a server, drives w against it for seconds, the twin's
// slices in between, and shuts the server down. For the per-layer run
// (traced) it also takes the server's
// /metrics/prom before and after, and SIGKILLs an admin workload's server
// instead of draining it, so that its data directory holds the WAL a crash
// would leave for recovery to replay.
func (e *env) socketRun(w workload, twin *twinProc, seed int64, seconds float64, traced bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	dir, err := e.dataDir(w)
	if err != nil {
		return nil, err
	}
	out.dataDir = dir
	proc, _, err := startServe(e.bin, dir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			proc.kill()
		}
	}()
	var before map[string]float64
	if traced {
		if before, err = scrapeProm(proc.addr); err != nil {
			return nil, err
		}
	}

	w.mix.Seed = seed
	gen := mix.New(w.mix)
	rec, err := newRecorder(proc, twin, time.Duration(seconds/float64(1+measuredRounds)*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	var admin *adminLoad
	adminStop, adminDone := make(chan struct{}), make(chan struct{})
	if w.admin {
		admin = &adminLoad{}
		rec.kick = make(chan struct{}, 1)
		go func() { defer close(adminDone); driveAdmin(proc.addr, adminStop, rec.kick, admin) }()
	} else {
		close(adminDone)
	}
	switch w.via {
	case viaQuery:
		err = driveQuery(proc.addr, gen, rec)
	case viaBatch:
		err = driveBatch(proc.addr, gen, rec)
	case viaStream:
		err = driveStream(proc.addr, gen, rec)
	}
	close(adminStop)
	<-adminDone
	if err == nil && admin != nil {
		err = admin.err
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w\nserver log:\n%s", w.name, err, proc.logs.String())
	}

	if traced {
		after, err := scrapeProm(proc.addr)
		if err != nil {
			return nil, err
		}
		out.counts = map[string]float64{}
		for k, v := range after {
			out.counts[k] = v - before[k]
		}
		out.heapMB = after["intellisphere_heap_inuse_bytes"] / (1 << 20)
	}
	rss, err := proc.peakRSSMB()
	if err != nil {
		return nil, err
	}
	stopped = true
	if traced && w.admin {
		proc.kill()
	} else {
		proc.terminate()
	}

	out.attempted, out.failed = rec.attempted, rec.failed
	out.respBytesPerStmt = float64(rec.respBytes) / float64(rec.attempted)
	if admin != nil {
		out.admin = admin
		out.attempted += admin.attempted
		out.failed += admin.failed
	}
	wrong, notes, acc, err := checkAnswers(rec.kept)
	if err != nil {
		return nil, err
	}
	out.failed += wrong
	out.notes = notes
	out.timings = rec.timings()
	t := out.timings
	out.metrics["throughput_qps"] = median(t.qps)
	out.metrics["latency_p50_us"] = median(t.p50)
	out.metrics["latency_p99_us"] = median(t.p99)
	out.metrics["cpu_us_per_stmt"] = median(t.cpuPerStmt)
	out.metrics["rss_peak_mb"] = rss
	out.metrics["est_qerror_mean"] = acc.qerrorMean
	out.metrics["plan_actual_sec_mean"] = acc.actualSecMean
	out.notes = append(out.notes, e.pinned,
		fmt.Sprintf("%d timed rounds of %.2fs, at least %d latency samples each; accuracy over the first %d statements",
			measuredRounds, rec.roundDur.Seconds(), t.samples, acc.sample),
		"host speed per round (twin rate over nominal): "+perRound("%.2f", t.hostSpeed),
		"statements/s per round as the clock saw them:   "+perRound("%.0f", t.rawQPS),
		"statements/s per round at the reference speed: "+perRound("%.0f", t.qps))
	return out, nil
}

// setupSeconds times bootsPerRun cold boots of the server with the
// workload's flags (exec to the first 200 on /health), each right after a
// cold boot of the twin and quoted against it, and returns the median at the
// reference host speed.
func (e *env) setupSeconds(w workload) (float64, error) {
	var boots []float64
	for i := 0; i < bootsPerRun; i++ {
		twin, twinTook, err := startTwin(w.twin)
		if err != nil {
			return 0, err
		}
		twin.stop()
		dir, err := e.dataDir(w)
		if err != nil {
			return 0, err
		}
		proc, took, err := startServe(e.bin, dir)
		if err != nil {
			return 0, err
		}
		proc.kill()
		boots = append(boots, took.Seconds()/twinTook.Seconds()*twinBootNominal)
	}
	return median(boots), nil
}

// measure is the end-to-end run of one workload: the timed boots, then the
// socket run between two calibrations. A run during which the host's own
// speed moved by more than a tenth is flagged noisy_host.
func (e *env) measure(w workload, seed int64, seconds float64) (*outcome, error) {
	setup, err := e.setupSeconds(w)
	if err != nil {
		return nil, err
	}
	twin, _, err := startTwin(w.twin)
	if err != nil {
		return nil, err
	}
	defer twin.stop()
	before := calibrate()
	out, err := e.socketRun(w, twin, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	out.noteCalibration(before, calibrate())
	out.metrics["setup_s"] = setup
	return out, nil
}

// noteCalibration records the calibration loop's time before and after the
// run and flags the run when the two differ by more than a tenth.
func (o *outcome) noteCalibration(before, after float64) {
	o.calibUS = (before + after) / 2
	if math.Abs(after-before) > 0.1*math.Min(before, after) {
		o.notes = append(o.notes, fmt.Sprintf("noisy_host: calibration loop took %.0fµs before and %.0fµs after the run", before, after))
	}
}

// report prints one run: a header, each metric with its unit, and as the
// last line the result object the benchmark contract asks for.
func report(w io.Writer, name string, seed int64, out *outcome, defs []metricDef, values map[string]float64) error {
	attempted, failed := out.attempted, out.failed
	fmt.Fprintf(w, "workload %s seed %d: sent %d ok %d failed %d\n", name, seed, attempted, attempted-failed, failed)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, d.Name)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// runOne measures one workload in the requested mode and reports it. It
// returns the end-to-end metrics (nil for a traced run) and whether every
// answer was correct.
func (e *env) runOne(w workload, seed int64, seconds float64, traced bool) (map[string]float64, bool, error) {
	if traced {
		out, layers, err := e.traceRun(w, seed, seconds)
		if err != nil {
			return nil, false, err
		}
		return nil, out.failed == 0, report(e.out, w.name, seed, out, e.defs.PerLayer, layers)
	}
	out, err := e.measure(w, seed, seconds)
	if err != nil {
		return nil, false, err
	}
	return out.metrics, out.failed == 0, report(e.out, w.name, seed, out, e.defs.EndToEnd, out.metrics)
}

// aaRuns is how many runs of each workload a side of the A/A comparison
// takes the median of. One run a side is not enough on a host whose speed
// shifts for a minute at a time; the two sides' runs alternate so that such
// a shift lands on both.
const aaRuns = 3

// compareAA runs the whole suite twice on the same build — aaRuns runs a
// side, alternating — and prints, per workload and metric, both sides'
// medians, their relative difference and the bound. It reports whether
// every pair agreed within its bound.
func (e *env) compareAA(seed int64, seconds float64) (bool, error) {
	type side map[string][]float64 // metric → one value per run
	agree := true
	var table []string
	for _, w := range workloads {
		sides := [2]side{{}, {}}
		for r := 0; r < 2*aaRuns; r++ {
			m, _, err := e.runOne(w, seed, seconds, false)
			if err != nil {
				return false, err
			}
			for name, v := range m {
				sides[r%2][name] = append(sides[r%2][name], v)
			}
		}
		for _, d := range e.defs.EndToEnd {
			a, b := median(sides[0][d.Name]), median(sides[1][d.Name])
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := ""
			if diff > d.Bound {
				verdict, agree = "  DISAGREE", false
			}
			table = append(table, fmt.Sprintf("%-14s %-22s %14.4f %14.4f %7.2f%% %7.2f%%%s", w.name, d.Name, a, b, 100*diff, 100*d.Bound, verdict))
		}
	}
	fmt.Fprintf(e.out, "\n%-14s %-22s %14s %14s %8s %8s\n", "workload", "metric", "side A", "side B", "diff", "bound")
	for _, row := range table {
		fmt.Fprintln(e.out, row)
	}
	return agree, nil
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed sends the same statements")
	seconds := flag.Float64("seconds", 0, "length of one run, warm-up round included (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics in place of the end-to-end ones")
	aa := flag.Bool("aa", false, "run the suite twice on this build (3 alternating runs a side) and compare the medians against the bounds")
	twinAddr := flag.String("twin", "", "serve the host-speed twin on this address (what the driver starts beside the server; see twin.go)")
	twinUnits := flag.Int("twin-units", 0, "decode passes per record the twin does")
	flag.Parse()

	if *twinAddr != "" {
		fmt.Fprintln(os.Stderr, "bench:", twinServe(*twinAddr, *twinUnits))
		os.Exit(2)
	}

	ok, err := run(*name, *seed, *seconds, *trace != 0, *aa)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, aa bool) (bool, error) {
	e, err := newEnv()
	if err != nil {
		return false, err
	}
	defer e.close()
	if seconds <= 0 {
		seconds = float64(e.defs.RunSeconds)
	}
	if aa {
		return e.compareAA(seed, seconds)
	}
	todo := workloads
	if name != "" {
		w, ok := workloadByName(name)
		if !ok {
			return false, fmt.Errorf("unknown workload %q (see BENCHMARK.json)", name)
		}
		todo = []workload{w}
	}
	allOK := true
	for _, w := range todo {
		_, ok, err := e.runOne(w, seed, seconds, traced)
		if err != nil {
			return false, err
		}
		allOK = allOK && ok
	}
	return allOK, nil
}
