GO ?= go

.PHONY: all build vet bench-vet test race allocs loc fuzz-smoke e2e ci

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

# The full suite under the race detector — exercises the experiment fan-out
# and concurrent queries through the shared planner, estimators and rings
# with real contention.
race:
	$(GO) test -race ./... -count=1

# Allocation budgets: every AllocsPerRun-style test skips under -race
# (instrumentation allocates), so the race suite alone never enforces one.
# This runs them — the warm /query path, the never-seen-statement path
# (parse, plan miss, /query/stream), PredictAll, the untraced span and
# noise-key paths, the row engine's local statements — without the detector.
allocs:
	$(GO) test -run 'Alloc' ./internal/... -count=1

# Non-test Go lines per internal/* package and in total: the LOC delta a
# simplicity PR reports next to its bench delta (run it in a clone of the
# parent commit for the "before"). Then the surface counts: routes, cmd/serve
# flags, /metrics/prom series, environment variables read; then the tooling
# counts: shell lines, make targets, CI steps, Benchmark functions, cmd/serve
# flags no e2e test passes.
loc:
	sh scripts/loc.sh

# Five seconds of coverage-guided fuzzing per target over the untrusted
# inputs that have one — SQL text, statements inside JSON, admin JSON bodies
# — over the /query/batch decode against the reflective one it replaced, over
# the hand-rolled answer encoder against encoding/json, and over the row
# engine against the interpreter it replaced (generated statements, not raw
# bytes). The checked-in corpora under testdata/fuzz already run as plain
# tests in `race`; this step is what looks for inputs nobody wrote down. A
# crasher lands in testdata/fuzz/<target>.
fuzz-smoke:
	$(GO) test ./internal/sqlparse -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzStatementForms$$' -fuzztime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzBatchBody$$' -fuzztime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzEncodeAnswer$$' -fuzztime 5s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzAdminBody$$' -fuzztime 5s
	$(GO) test ./internal/rowengine -run '^$$' -fuzz '^FuzzExecute$$' -fuzztime 5s

# The black-box layer by hand: builds cmd/serve once and drives it over real
# sockets — four scenarios (defaults, observability, admission, tuner), one
# server boot each, plus the seeded crash-recovery soak. `race` already runs
# all of it; this is the entry for one scenario or a long soak:
#   $(GO) test ./test/e2e -run AdmissionScenario -count=1
#   $(GO) test -race ./test/e2e -run Soak -chaos.actions=2000 -chaos.seed=7 -timeout 30m
e2e:
	$(GO) test ./test/e2e -count=1

# Every test runs exactly once: under the race detector in `race` (test/e2e
# included, which then builds a race-instrumented server), or without it in
# `allocs` (the tests that skip under -race).
ci: vet bench-vet build race allocs fuzz-smoke
