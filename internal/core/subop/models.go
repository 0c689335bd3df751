// Package subop implements the paper's sub-operator costing (Section 4) for
// openbox remote systems: per-record linear models for each primitive
// sub-operation of Figure 5, learned from a handful of probe queries;
// analytic cost formulas composing them into physical-algorithm costs
// (Figure 6); applicability rules that eliminate physical algorithms the
// remote cannot pick; and the worst / average / in-house-comparable choice
// policies for whatever ambiguity remains.
package subop

import (
	"encoding/json"
	"fmt"

	"intellisphere/internal/cluster"
	"intellisphere/internal/remote"
	"intellisphere/internal/stats"
)

// ModelSet holds the learned per-record cost models of one remote system.
// Each line maps record size (bytes) to per-record cost (µs on one
// execution stream). HashBuild carries the second, spill-regime line of
// Figure 13(f). BaselineSec is the learned fixed per-query latency (job
// startup and friends) recovered from the probe fits' intercepts.
type ModelSet struct {
	Lines       Lines          `json:"lines"`
	HashSpill   stats.Line     `json:"hash_spill"`
	BaselineSec float64        `json:"baseline_sec"`
	Cluster     cluster.Config `json:"cluster"`
}

// Lines holds the learned line of each modeled sub-operator, indexed by
// remote.SubOp, so that a cost formula's look-up is an array index. Its JSON
// is that of the map from sub-operator to line it replaced, so saved
// profiles, snapshots and /models answers keep their bytes.
type Lines struct {
	line    [remote.NumSubOps]stats.Line
	modeled [remote.NumSubOps]bool
}

// Get returns op's learned line; ok is false when op was not modeled.
func (l *Lines) Get(op remote.SubOp) (line stats.Line, ok bool) {
	if op < 0 || op >= remote.NumSubOps || !l.modeled[op] {
		return stats.Line{}, false
	}
	return l.line[op], true
}

// Set records op's learned line.
func (l *Lines) Set(op remote.SubOp, line stats.Line) {
	l.line[op], l.modeled[op] = line, true
}

// Len counts the modeled sub-operators.
func (l *Lines) Len() int {
	n := 0
	for _, ok := range l.modeled {
		if ok {
			n++
		}
	}
	return n
}

// MarshalJSON writes the modeled lines as the map it stands for.
func (l Lines) MarshalJSON() ([]byte, error) {
	m := make(map[remote.SubOp]stats.Line, l.Len())
	for op, ok := range l.modeled {
		if ok {
			m[remote.SubOp(op)] = l.line[op]
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads the map MarshalJSON writes; null leaves every
// sub-operator unmodeled, and a number naming no sub-operator is an error.
func (l *Lines) UnmarshalJSON(data []byte) error {
	var m map[remote.SubOp]stats.Line
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*l = Lines{}
	for op, line := range m {
		if op < 0 || op >= remote.NumSubOps {
			return fmt.Errorf("subop: no sub-operator numbered %d", int(op))
		}
		l.Set(op, line)
	}
	return nil
}

// Validate reports whether the mandatory (Basic) sub-operators are modeled.
// Per Figure 5, missing Basic sub-ops disqualify the approach; missing
// Specific ones merely degrade it.
func (ms *ModelSet) Validate() error {
	if ms == nil || ms.Lines.Len() == 0 {
		return fmt.Errorf("subop: empty model set")
	}
	for _, op := range remote.BasicSubOps() {
		if _, ok := ms.Lines.Get(op); !ok {
			return fmt.Errorf("subop: mandatory sub-operator %v is not modeled", op)
		}
	}
	if err := ms.Cluster.Validate(); err != nil {
		return fmt.Errorf("subop: %w", err)
	}
	return nil
}

// defaultSpecific supplies the paper's "rough default values" for Specific
// sub-operators that were not probed (Figure 5 says missing them is not a
// hindrance).
var defaultSpecific = map[remote.SubOp]stats.Line{
	remote.HashBuild: {Slope: 0.02, Intercept: 15},
	remote.HashProbe: {Slope: 0.008, Intercept: 1},
	remote.RecMerge:  {Slope: 0.03, Intercept: 30},
}

// PerRecord returns the modeled per-record µs cost of op at the given
// record size. For HashBuild, inMemory selects the regime (the spill line
// is floored at the in-memory one, mirroring the physical reality that
// spilling can't be cheaper). Costs are floored at zero.
func (ms *ModelSet) PerRecord(op remote.SubOp, size float64, inMemory bool) float64 {
	line, ok := ms.Lines.Get(op)
	if !ok {
		line, ok = defaultSpecific[op]
		if !ok {
			return 0
		}
	}
	v := line.Eval(size)
	if op == remote.HashBuild && !inMemory {
		if spill := ms.HashSpill.Eval(size); spill > v {
			v = spill
		}
	}
	if v < 0 {
		return 0
	}
	return v
}

// FitsInMemory reports whether a hash build of the given size stays within
// one task's memory budget on the modeled cluster — the openbox knowledge
// that selects the HashBuild regime and feeds the broadcast applicability
// rule.
func (ms *ModelSet) FitsInMemory(bytes float64) bool {
	return ms.Cluster.FitsInMemory(bytes)
}
