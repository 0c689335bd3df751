GO ?= go

.PHONY: all build vet bench-vet test race allocs loc fuzz-smoke bench bench-parallel-smoke bench-snapshot bench-snapshot-smoke smoke trace-smoke obs-smoke stream-smoke chaos tuner-smoke crash-smoke crash-soak ci

all: build

build:
	$(GO) build ./...

# go vet's default analyzer suite includes structtag (mismatched JSON tags)
# and copylocks; the shadow analyzer is not in the default suite and would
# need golang.org/x/tools, which this module deliberately avoids — variable
# shadowing is covered by review and the -race suite instead. Then gofmt over
# every tracked .go file, bench/ included: a name it prints fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# The repo benchmark is its own module under bench/ (replace intellisphere =>
# ../, so no network), which `./...` above never reaches: without this, a
# change that deletes a signature bench/ imports passes CI and breaks the
# benchmark.
bench-vet:
	$(GO) -C bench vet ./...

test:
	$(GO) test ./... -count=1

# The full suite under the race detector — exercises parallel training and
# concurrent queries through the shared planner, estimators and rings with
# real contention.
race:
	$(GO) test -race ./... -count=1

# Allocation budgets: every AllocsPerRun-style test skips under -race
# (instrumentation allocates), so the race suite alone never enforces one.
# This runs them — the warm /query path, the never-seen-statement path
# (parse, plan miss, /query/stream), the NN kernels, the untraced span and
# noise-key paths — without the detector.
allocs:
	$(GO) test -run 'Alloc' ./internal/... -count=1

# Non-test Go lines per internal/* package and in total: the LOC delta a
# simplicity PR reports next to its bench delta (run it in a clone of the
# parent commit for the "before"). Then the surface counts: routes, cmd/serve
# flags, /metrics/prom series.
loc:
	sh scripts/loc.sh

# Five seconds of coverage-guided fuzzing per target over the untrusted
# inputs that have one — SQL text, statements inside JSON, admin JSON bodies
# — and over the hand-rolled answer encoder against encoding/json. The checked-in corpora
# under testdata/fuzz already run as plain tests in `race`; this step is what
# looks for inputs nobody wrote down. A crasher lands in testdata/fuzz/<target>.
fuzz-smoke:
	$(GO) test ./internal/sqlparse -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzStatementForms$$' -fuzztime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzEncodeAnswer$$' -fuzztime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzAdminBody$$' -fuzztime 5s

# Short benchmark smoke: the two perf-critical kernels, one iteration each,
# just to prove they still run (use `go test -bench=.` for real numbers).
bench:
	$(GO) test ./internal/nn -run '^$$' -bench BenchmarkNNTrain -benchtime 1x
	$(GO) test ./internal/optimizer -run '^$$' -bench BenchmarkOptimizerPlan -benchtime 1x

# One-iteration pass over the RunParallel serving benchmarks at -cpu 1:
# proves the parallel suite still runs without paying for a real multi-core
# sweep. Not part of `make ci` (vet already proves it builds); real numbers
# come from `make bench-snapshot` (which sweeps -cpu 1,4,8).
bench-parallel-smoke:
	$(GO) test ./internal/engine -run '^$$' -bench 'Parallel' -benchtime 1x -cpu 1

# Full benchmark run recorded as a JSON perf snapshot (BENCH_PR10.json;
# earlier BENCH_PR*.json files are history, never overwritten): ns/op plus
# B/op + allocs/op per benchmark, and the RunParallel serving suite under a
# -cpu sweep with throughput scaling ratios, so the trajectory across PRs
# stays diffable.
bench-snapshot:
	GO="$(GO)" sh scripts/bench_snapshot.sh

# One-iteration pass through the same script into a throwaway file — proves
# the suite and the snapshot parser still work without paying for a real
# measurement. Part of `make ci`.
bench-snapshot-smoke:
	GO="$(GO)" BENCHTIME=1x BENCH_OUT="$$(mktemp)" sh scripts/bench_snapshot.sh

# End-to-end serving smoke: build cmd/serve, start it, run one query and a
# metrics scrape over HTTP, then shut down gracefully.
smoke:
	GO="$(GO)" sh scripts/smoke_serve.sh

# Observability smoke: traced query against a live cmd/serve (span names
# asserted end to end), /trace ring replay, /metrics/prom exposition-format
# check, and the -pprof surface.
trace-smoke:
	GO="$(GO)" sh scripts/trace_smoke.sh

# Continuous-observability smoke: a live cmd/serve with tight SLO windows
# must correlate a /events wide event to its /trace span tree, fill the
# /history time-series, drive the availability SLO through a full firing →
# resolved burn-rate cycle, expose histogram exemplars on /metrics/prom,
# and write the NDJSON event log.
obs-smoke:
	GO="$(GO)" sh scripts/obs_smoke.sh

# High-QPS serving smoke: 100 statements pipelined down one /query/stream
# connection against a live cmd/serve (in-order, length-prefix-framed
# responses asserted), then a saturation pass against a one-slot admission
# gate: over-queue arrivals shed 503 + Retry-After, queued work completes.
stream-smoke:
	GO="$(GO)" sh scripts/stream_smoke.sh

# Fault-injection suite: the seeded chaos tests under the race detector,
# then an outage + recovery cycle driven against a live cmd/serve through
# the /faults control plane.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/... -count=1
	GO="$(GO)" sh scripts/chaos_serve.sh

# Adaptivity smoke: a live cmd/serve with the blackbox flink remote and a
# fast drift tuner; a 20x latency regime injected through /faults must drive
# the full loop — drift flagged, candidate retrained from executed-query
# logs, shadow-scored, promoted (drift flag clears) — and POST /models must
# roll the promotion back.
tuner-smoke:
	GO="$(GO)" sh scripts/tuner_smoke.sh

# Durability smoke: mutate a -data-dir server through the admin surface,
# SIGKILL it, restart against the same directory, and require byte-identical
# /explain plans; then a SIGTERM → snapshot-restore cycle.
crash-smoke:
	GO="$(GO)" sh scripts/crash_smoke.sh

# Seeded crash-recovery soak: the black-box e2e harness drives randomized
# actions interleaved with SIGKILL+restart cycles, checking acked mutations,
# byte-identical plans vs a never-killed reference, breaker recovery, and
# goroutine leaks after every recovery. The CI default is a short soak; the
# full acceptance run is
#   $(GO) test -race ./test/e2e -chaos.actions=2000 -chaos.seed=7 -timeout 30m
crash-soak:
	$(GO) test -race ./test/e2e -run TestCrashRecoverySoak -count=1

ci: vet bench-vet build race allocs bench fuzz-smoke bench-snapshot-smoke smoke trace-smoke obs-smoke stream-smoke chaos tuner-smoke crash-smoke crash-soak
