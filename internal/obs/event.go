// Package obs is the continuous-observability layer of the serving stack:
// a wide-event query log (one structured record per query, head-sampled with
// always-capture for errors and slow queries), and an SLO that samples the
// serving counters once per step into a ring and evaluates burn-rate alerts
// over it. Everything is in-process, lock-free on the hot paths, and
// zero-cost when not wired up: the engine holds an atomic pointer to a
// Recorder and emits nothing while it is nil.
package obs

import (
	"fmt"
	"strconv"
)

// Event is one wide query event — the per-query record rich enough to audit
// the cost estimator after the fact (estimated vs actual cost, chosen
// systems, cache verdict) and to debug the serving path (admission outcome,
// retries, degradation, latency, trace correlation). Encoded as one NDJSON
// line by the file sink and served as JSON from /events.
type Event struct {
	// ID is the event's ring sequence number (1-based, monotonic).
	ID uint64 `json:"id"`
	// UnixNano is the event completion time.
	UnixNano int64 `json:"ts_ns"`
	// Kind is the request shape: "query", "batch", or "admission" (a
	// request rejected before reaching the engine).
	Kind string `json:"kind"`
	// Capture says why the event was kept: "head" (head sampling), "error"
	// or "slow" (always-capture rules).
	Capture string `json:"capture"`
	SQL     string `json:"sql,omitempty"`
	// StmtHash is the FNV-1a hash of the statement text, the stable join
	// key for grouping events of one statement shape across log rotations.
	StmtHash Hash `json:"stmt_hash,omitempty"`
	// Outcome is "ok", "error", "shed", or "rate_limited".
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// CacheHit records whether the plan came from the plan cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Systems lists the distinct remote systems the chosen plan placed
	// steps on.
	Systems []string `json:"systems,omitempty"`
	// EstimatedSec and ActualSec are the optimizer's cost estimate and the
	// measured execution time for the chosen plan.
	EstimatedSec float64 `json:"estimated_sec,omitempty"`
	ActualSec    float64 `json:"actual_sec,omitempty"`
	// LatencySec is engine time: parse + plan + execute. The clock starts in
	// Engine.serve, after admission and the request body read, and stops at
	// the end of the execute stage, before the response is encoded and
	// written, so admission wait, body read, encode and write are not in it.
	LatencySec float64 `json:"latency_sec"`
	// ParseNS, PlanNS and ExecuteNS split the latency into the engine's
	// stages, in nanoseconds: readings of one clock, so they sum to the
	// latency exactly. Zero (omitted) for a stage that did not run — the
	// parse of a statement-cache hit, whatever follows a failure.
	ParseNS   int64 `json:"parse_ns,omitempty"`
	PlanNS    int64 `json:"plan_ns,omitempty"`
	ExecuteNS int64 `json:"execute_ns,omitempty"`
	// Retries counts step re-attempts beyond the first try.
	Retries int `json:"retries,omitempty"`
	// Degraded marks results produced by a fallback replan that excluded
	// an unavailable system.
	Degraded bool `json:"degraded,omitempty"`
	// TraceID correlates the event to /trace?n=... when the query was
	// traced (0 otherwise).
	TraceID uint64 `json:"trace_id,omitempty"`
}

// Hash is a statement hash, FNV-1a 64 of the raw text. An event keeps the
// number; JSON carries it as 16 hex digits, rendered only when marshalled.
type Hash uint64

// StatementHash hashes a statement's text. The offset basis is FNV's, fixed,
// so a statement hashes alike in every process and the engine's statement
// cache can keep the value it computed on a miss.
func StatementHash(sql string) Hash {
	h := Hash(14695981039346656037)
	for i := 0; i < len(sql); i++ {
		h = (h ^ Hash(sql[i])) * 1099511628211
	}
	return h
}

// MarshalText writes the hash as 16 hex digits.
func (h Hash) MarshalText() ([]byte, error) { return fmt.Appendf(nil, "%016x", uint64(h)), nil }

// UnmarshalText reads back what MarshalText writes.
func (h *Hash) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 16, 64)
	if err != nil || len(b) != 16 {
		return fmt.Errorf("obs: statement hash %q is not 16 hex digits", b)
	}
	*h = Hash(v)
	return nil
}
