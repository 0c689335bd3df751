#!/bin/sh
# Smoke test for cmd/serve: build the binary, start it, issue one query and
# one metrics scrape, then shut it down via SIGTERM and check it exits
# cleanly. Used by `make smoke` and CI.
set -eu

GO=${GO:-go}
ADDR=${SMOKE_ADDR:-127.0.0.1:18080}
BIN=$(mktemp -d)/serve
LOG=$(mktemp)

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -f "$LOG"
    rm -rf "$(dirname "$BIN")"
}
trap cleanup EXIT

$GO build -o "$BIN" ./cmd/serve

"$BIN" -addr "$ADDR" -warm >"$LOG" 2>&1 &
PID=$!

# Wait for the server to come up (training the demo models takes a moment).
i=0
until curl -sf "http://$ADDR/profiles" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 120 ]; then
        echo "smoke: server did not come up; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "smoke: server exited early; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.5
done

# -warm logs one line per statement that failed to plan; any such line means
# the demo statement mix has drifted from the demo catalog.
if grep -q 'warm "' "$LOG"; then
    echo "smoke: plan-cache warm-up failed; log:" >&2
    cat "$LOG" >&2
    exit 1
fi

out=$(curl -sf "http://$ADDR/query" -d '{"sql": "SELECT a1 FROM t10000_100 WHERE a1 < 100"}')
echo "$out" | grep -q '"actual_sec"' || { echo "smoke: bad /query response: $out" >&2; exit 1; }

out=$(curl -sf "http://$ADDR/query/batch" \
    -d '["SELECT a1 FROM t10000_100 WHERE a1 < 100", {"sql": "SELECT a2, COUNT(*) FROM t1000000_100 GROUP BY a2"}, "SELECT a1 FROM no_such_table"]')
echo "$out" | grep -q '"actual_sec"' || { echo "smoke: bad /query/batch response: $out" >&2; exit 1; }
echo "$out" | grep -q '"error"' || { echo "smoke: /query/batch lost the per-statement error: $out" >&2; exit 1; }

out=$(curl -sf "http://$ADDR/metrics/prom")
echo "$out" | grep -q '^intellisphere_plan_cache_hits_total ' || { echo "smoke: bad /metrics/prom response: $out" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/metrics")
[ "$code" = 404 ] || { echo "smoke: GET /metrics answered $code, want 404 (/metrics/prom is the only metrics route)" >&2; exit 1; }

kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 60 ]; then
        echo "smoke: server did not shut down; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.5
done
wait "$PID" 2>/dev/null || true
PID=

echo "smoke: ok"
