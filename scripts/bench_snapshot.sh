#!/bin/sh
# Record the perf trajectory: run the benchmark suite and emit a JSON
# snapshot (ns/op, and B/op + allocs/op where the benchmark reports them)
# keyed by benchmark name. Used by `make bench-snapshot` (full run, writes
# BENCH_PR10.json; earlier snapshots like BENCH_PR4.json / BENCH_PR6.json /
# BENCH_PR9.json are historical records and are never overwritten) and by
# `make ci` (BENCHTIME=1x smoke into a throwaway file, just to prove the
# suite and the parser still work).
#
# The parallel suite (internal/engine Benchmark*Parallel) runs under a
# -cpu sweep (BENCH_CPUS, default 1,4,8); its entries keep the GOMAXPROCS
# suffix as a /cpu=N key component, and a trailing "scaling" object reports
# the lowest-vs-highest-cpu throughput ratio per benchmark along with the
# host's available core count — scaling ratios measured on a host with fewer
# cores than the sweep asks for are bounded by the hardware, not the code.
set -eu

GO=${GO:-go}
OUT=${BENCH_OUT:-BENCH_PR10.json}
BENCHTIME=${BENCHTIME:-1s}
BENCH_CPUS=${BENCH_CPUS:-1,4,8}
NPROC=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -1 )
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

run() {
    pkg=$1
    pattern=$2
    $GO test "$pkg" -run '^$' -bench "$pattern" -benchtime "$BENCHTIME" | tee -a "$TMP"
}

runp() {
    pkg=$1
    pattern=$2
    $GO test "$pkg" -run '^$' -bench "$pattern" -benchtime "$BENCHTIME" -cpu "$BENCH_CPUS" | tee -a "$TMP"
}

run ./internal/nn 'BenchmarkNNTrain|BenchmarkForwardBatch|BenchmarkPredictAll'
run ./internal/optimizer 'BenchmarkOptimizerPlan'
run ./internal/engine 'BenchmarkExplain$'
run ./internal/server 'BenchmarkStreamVsHTTP'
runp ./internal/engine 'BenchmarkExplainParallel|BenchmarkQueryParallel'

awk -v nproc="$NPROC" '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
    name = $1
    cpu = 1
    if (match(name, /-[0-9]+$/)) {
        cpu = substr(name, RSTART + 1)
        sub(/-[0-9]+$/, "", name)
    }
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        else if ($(i + 1) == "B/op") bytes = $i
        else if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (name ~ /Parallel/) {
        # Parallel suite: the GOMAXPROCS suffix is the point — keep it as a
        # key component and remember ns/op per (benchmark, cpu) for the
        # scaling summary.
        key = name "/cpu=" cpu
        pns[name, cpu] = ns
        if (!(name in pmin) || cpu + 0 < pmin[name]) pmin[name] = cpu + 0
        if (!(name in pmax) || cpu + 0 > pmax[name]) pmax[name] = cpu + 0
        pseen[name] = 1
    } else {
        key = name
    }
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"iterations\": %s, \"ns_per_op\": %s", key, $2, ns
    if (allocs != "") printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bytes, allocs
    printf "}"
}
END {
    if (!first) printf ",\n"
    printf "  \"scaling\": {\"host_cpus\": %s", nproc
    for (name in pseen) {
        lo = pmin[name]; hi = pmax[name]
        nlo = pns[name, lo]; nhi = pns[name, hi]
        if (nlo == "" || nhi == "" || nhi + 0 == 0) continue
        printf ",\n    \"%s\": {\"cpu%s_ns\": %s, \"cpu%s_ns\": %s, \"throughput_x\": %.2f}", \
            name, lo, nlo, hi, nhi, nlo / nhi
    }
    print "}"
    print "}"
}
' "$TMP" >"$OUT"

echo "bench snapshot written to $OUT"
