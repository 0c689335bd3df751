// Command serve runs the demo federation behind an HTTP/JSON API: the same
// three simulated remotes and Figure 10 tables as cmd/intellisphere, but
// served concurrently to many clients with a plan cache in front of the
// optimizer.
//
// Usage:
//
//	serve -addr :8080
//
// Endpoints:
//
//	POST /query        {"sql": "SELECT ..."}   plan + execute
//	POST /query/batch  ["SELECT ...", ...]     each statement as /query, in order
//	POST /query/stream NDJSON statements       pipelined: length-prefixed frames back
//	POST /explain      {"sql": "SELECT ..."}   plan only
//	GET  /query?q=SELECT+...                   curl-friendly form of the above
//	GET  /query?q=SELECT+...&trace=1           traced form: returns the span tree
//	GET  /metrics/prom                         serving counters, Prometheus text format
//	GET  /trace?n=5&format=text                recent traced queries
//	GET  /trace?errors=1&system=hive&min_ms=50 filtered traces
//	GET  /events?n=100&errors=1                recent wide events and the total captured
//	GET  /slo                                  objectives, burn rates, alert states
//	GET  /health                               breaker states and fallback counters
//	GET  /faults                               fault-injector switches and stats
//	POST /faults   {"system": "hive", "outage": true}       force/lift an outage
//	POST /faults   {"system": "hive", "rates": {...}}       dial fault rates live
//	GET  /models                               costing profile and model versions per system
//	POST /models   {"action": "tune", "system": ...}        candidate tune/rollback
//	GET  /catalog                              tables with materialization flags
//	POST /catalog  {"table": {...}}                         register a table
//	POST /catalog  {"materialize": "name"}                  materialize locally
//	GET  /links                                QueryGrid link configurations
//	POST /links    {"system": ..., "link": {...}}           install an override
//
// -data-dir makes engine state durable: admin mutations (catalog
// registrations, materializations, link overrides, profile switches, model
// promotions and rollbacks) append to a checksummed write-ahead log and ack
// only after fsync; the WAL rotates into an atomic snapshot past 4 MiB and
// on graceful shutdown. Booting against the same directory restores the
// newest valid snapshot, replays the log past it — truncating any torn tail
// a crash left behind — and resumes with plans byte-identical to the
// pre-crash process. Without the flag the server is
// stateless, exactly as before.
//
// -logical-remote adds a fourth, blackbox remote ("flink") whose cost
// models are logical-op neural networks — the family the feedback loop can
// retrain. -tune-interval arms the background drift tuner over it (and any
// other profile-backed system): accuracy windows that stay above the drift
// threshold trigger a candidate retrain, shadow-scored against the live
// model on held-out executions and promoted only on improvement.
// -tune-drift-q, -tune-holdout, and -tune-min-log tune the loop.
//
// -warm pre-plans the demo statement mix (demo.Statements), each statement
// twice — the cache admits on second sight — so every one of them is resident
// before the first client arrives. -pprof additionally mounts
// the net/http/pprof profiling handlers under /debug/pprof/ (off by
// default — profiling endpoints are not for unauthenticated exposure).
// -contention-profile N arms the runtime's mutex and block samplers
// (SetMutexProfileFraction / SetBlockProfileRate) so those two pprof
// endpoints actually populate; combine it with -pprof to measure lock
// contention on a live server.
//
// Observability is on by default: every query feeds the engine-time latency
// histogram, -event-sample of ordinary queries (plus every error and every
// query past -slow-query-ms) become wide events on /events, and the -slo-*
// objectives evaluate multi-window burn-rate alerts on /slo (burn rates and
// transition counts there; /metrics/prom carries each alert state) over a
// ring of the serving counters they sample every -obs-step. The ring holds
// 1080 steps, and a -slo-slow window longer than that is refused at startup.
// -event-log additionally streams events to a size-rotated NDJSON file.
// -obs-step 0 switches the whole pipeline off; the engine then pays one
// atomic load per query for it and nothing else.
//
// The hot endpoints (/query, /query/batch, /query/stream) sit behind an
// admission controller: -max-inflight caps concurrent work, -queue-depth
// bounds the wait line (over-queue arrivals shed with 503 + Retry-After),
// and -rate-limit arms a per-client token bucket keyed by the X-Client-ID
// header (exceeders get 429). Admission decisions are counted on
// /metrics/prom.
//
// Every remote sits behind a seeded, deterministic fault injector that
// starts disarmed, so every response is byte-identical to a build without
// the fault layer until a client dials rates or an outage in through
// POST /faults, e.g.
//
//	curl -d '{"system":"hive","rates":{"transient":0.05}}' localhost:8080/faults
//
// SIGINT/SIGTERM drain in-flight requests and (with -data-dir) write a final
// snapshot before exiting; every answered query's estimator feedback is
// already in the models it snapshots.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"intellisphere/internal/admission"
	"intellisphere/internal/demo"
	"intellisphere/internal/durable"
	"intellisphere/internal/engine"
	"intellisphere/internal/obs"
	"intellisphere/internal/resilience"
	"intellisphere/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout (must be positive)")
	seed := flag.Int64("seed", 1, "simulator noise seed")
	cacheSize := flag.Int("cache-size", 0, "statement cache capacity: parsed statement and plan per SQL text, cached from its second sighting (0 = default 256, negative disables)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failures that open a breaker (0 = default 5)")
	breakerTimeout := flag.Duration("breaker-open-timeout", 0, "open-breaker rejection window before half-open probes (0 = default 10s)")
	maxInFlight := flag.Int("max-inflight", 0, "admission cap on concurrently executing requests (0 = default 64)")
	queueDepth := flag.Int("queue-depth", 0, "bounded wait line beyond the in-flight cap; arrivals past it shed with 503 (0 = default 2x max-inflight)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client token-bucket refill in requests/sec, keyed by X-Client-ID (0 = unlimited)")
	warm := flag.Bool("warm", false, "plan the demo statement mix until it is resident in the cache before serving")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	contention := flag.Int("contention-profile", 0, "mutex/block profiling sample rate for the pprof mutex and block endpoints (0 = off; 1 = every event; n = 1-in-n mutex events / n ns block threshold)")
	logicalRemote := flag.Bool("logical-remote", false, "add the blackbox 'flink' remote with logical-op (tunable) cost models")
	tuneInterval := flag.Duration("tune-interval", 0, "drift-tuner poll period (0 disables the background tuner)")
	tuneDriftQ := flag.Float64("tune-drift-q", 0, "mean q-error above which an accuracy window reads drifting, to the tuner and on /metrics/prom alike (0 = default 2.0)")
	tuneHoldout := flag.Int("tune-holdout", 0, "per-model holdout records withheld for candidate shadow scoring (0 = default 8)")
	tuneMinLog := flag.Int("tune-min-log", 0, "minimum per-model execution log before a candidate tune (0 = default 16)")
	dataDir := flag.String("data-dir", "", "durable state directory: snapshots + write-ahead log (empty = stateless)")
	eventSample := flag.Float64("event-sample", 1.0, "wide-event head-sampling rate for ordinary queries [0,1]; errors and slow queries are always captured")
	slowQueryMS := flag.Int("slow-query-ms", 500, "latency at which a query counts as slow and is always captured as an event (0 disables the rule)")
	eventLog := flag.String("event-log", "", "NDJSON wide-event log path, size-rotated (empty = in-memory ring only)")
	eventLogMax := flag.Int64("event-log-max-bytes", 0, "event-log size that triggers rotation to .1 (0 = default 8 MiB)")
	obsStep := flag.Duration("obs-step", 5*time.Second, "step at which the -slo-* objectives sample the serving counters and are evaluated (<= 0 disables the whole observability pipeline)")
	sloAvailability := flag.Float64("slo-availability", 0.999, "availability SLO target as a good fraction (0 disables)")
	sloLatency := flag.Duration("slo-latency-p99", 250*time.Millisecond, "p99 latency SLO threshold (0 disables)")
	sloQError := flag.Float64("slo-qerror", 0, "estimator mean q-error SLO threshold (0 disables)")
	sloFast := flag.Duration("slo-fast", time.Minute, "fast burn-rate window")
	sloSlow := flag.Duration("slo-slow", 5*time.Minute, "slow burn-rate window")
	sloBurn := flag.Float64("slo-burn", 14, "burn-rate multiple that fires an SLO alert")
	flag.Parse()
	// Server.Handler reads a non-positive timeout as its 30s default, while
	// WriteTimeout below is built from the flag itself; refuse the value
	// rather than run 30s handlers under a 5s (or no) write timeout.
	if *timeout <= 0 {
		fmt.Fprintln(os.Stderr, "serve: -timeout must be positive")
		os.Exit(2)
	}

	log.Printf("building demo federation (seed %d)...", *seed)
	fed, err := demo.BuildFederation(demo.Config{
		Seed: *seed, PlanCacheSize: *cacheSize,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: *breakerFailures,
			OpenTimeout:      *breakerTimeout,
		},
		LogicalRemote: *logicalRemote,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	eng := fed.Engine
	var dur *engine.Durability
	if *dataDir != "" {
		// Durability attaches after the deterministic boot build: recovery
		// restores the newest valid snapshot, replays the WAL past it, and
		// every admin mutation from here on acks only after its fsynced log
		// append. SIGKILL at any point loses nothing acknowledged.
		var rec durable.Recovery
		dur, rec, err = engine.OpenDurability(eng, engine.DurabilityConfig{Dir: *dataDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve: recover:", err)
			os.Exit(1)
		}
		switch {
		case rec.Restored:
			log.Printf("recovered %s: snapshot seq %d + %d WAL records in %.3fs (discarded %d snapshots, torn tail %v)",
				*dataDir, rec.SnapshotSeq, rec.Replayed, rec.DurationSec, rec.SnapshotsDiscarded, rec.TornTail)
		case rec.Replayed > 0:
			log.Printf("recovered %s: %d WAL records replayed in %.3fs (torn tail %v)",
				*dataDir, rec.Replayed, rec.DurationSec, rec.TornTail)
		default:
			log.Printf("durable state in %s (fresh)", *dataDir)
		}
	}
	if *warm {
		sqls := demo.Statements()
		for _, sql := range sqls {
			// Twice: the cache admits a statement on its second sighting.
			for sighting := 0; sighting < 2; sighting++ {
				if _, err := eng.Explain(sql); err != nil {
					log.Printf("warm %q: %v", sql, err)
					break
				}
			}
		}
		log.Printf("plan cache warmed with %d statements", len(sqls))
	}
	var tuner *engine.Tuner
	if *tuneInterval > 0 {
		train := engine.DefaultTuneTrain
		train.Seed = *seed
		tuner = eng.StartTuner(engine.TunerConfig{
			Interval: *tuneInterval,
			DriftQ:   *tuneDriftQ,
			Tune: engine.TuneOptions{
				Holdout: *tuneHoldout,
				MinLog:  *tuneMinLog,
				Train:   train,
			},
		})
		log.Printf("drift tuner armed: interval %s", *tuneInterval)
	}

	srvOpts := server.New(eng).
		WithFaults(fed.Injectors).
		WithAdmission(admission.Config{
			MaxInFlight: *maxInFlight,
			QueueDepth:  *queueDepth,
			RateLimit:   *rateLimit,
		})
	if dur != nil {
		srvOpts = srvOpts.WithDurability(dur)
	}
	var observer *obs.Observer
	if *obsStep > 0 {
		observer, err = obs.New(obs.Config{
			Events: obs.RecorderConfig{
				SampleRate:    *eventSample,
				SlowThreshold: time.Duration(*slowQueryMS) * time.Millisecond,
			},
			EventLogPath:     *eventLog,
			EventLogMaxBytes: *eventLogMax,
			Step:             *obsStep,
			Objectives:       obs.DefaultObjectives(*sloAvailability, *sloLatency, *sloQError, *sloFast, *sloSlow, *sloBurn),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		srvOpts = srvOpts.WithObservability(observer)
		// The cumulative source reads engine + admission stats, so the
		// SLO's sampling starts only after the server is fully assembled.
		observer.Start(srvOpts.ObsSource())
		if *eventLog != "" {
			log.Printf("observability on: step %s, sample %.3g, event log %s", *obsStep, *eventSample, *eventLog)
		} else {
			log.Printf("observability on: step %s, sample %.3g", *obsStep, *eventSample)
		}
	}
	handler := srvOpts.Handler(*timeout)
	if *contention > 0 {
		// Without these, the /debug/pprof/mutex and /debug/pprof/block
		// endpoints exist but stay silently empty — the runtime samples
		// nothing by default. Sampling costs a little on every contended
		// lock, so it stays opt-in rather than riding -pprof.
		runtime.SetMutexProfileFraction(*contention)
		runtime.SetBlockProfileRate(*contention)
		log.Printf("contention profiling on: mutex fraction=%d, block rate=%dns", *contention, *contention)
	}
	if *pprofOn {
		// The API mux is timeout-wrapped; pprof handlers must not be (a CPU
		// profile legitimately streams for 30s), so they mount on an outer
		// mux beside the API routes, explicitly rather than through the
		// pprof package's DefaultServeMux registrations.
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = outer
		log.Print("pprof mounted at /debug/pprof/")
	}

	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// The timeout handler bounds the work; give writes a little slack
		// beyond it so timeout responses still reach the client. It counts
		// from the request header, so /query/stream, which has no fixed
		// length, moves its own deadlines as it goes.
		WriteTimeout: *timeout + 5*time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before logging, so the line names the bound address: with
	// -addr 127.0.0.1:0 it is how a caller (test/e2e) learns the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	log.Printf("serving on %s", ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		log.Print("shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// Shutdown order matters: drain HTTP first (no new mutations, and
		// every answered query has logged its feedback into the models), stop
		// the background tuner (no more model promotions), then snapshot the
		// final state and close the store — the next boot restores from the
		// snapshot with an empty WAL.
		if tuner != nil {
			tuner.Stop()
		}
		// Stopping the observer drains the event log's final batch, so a
		// graceful shutdown loses no captured events.
		observer.Stop()
		if dur != nil {
			if err := dur.Snapshot(); err != nil {
				log.Printf("shutdown snapshot: %v", err)
			}
			if err := dur.Close(); err != nil {
				log.Printf("close durable store: %v", err)
			}
		}
		log.Print("bye")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	}
}
