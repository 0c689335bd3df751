package engine

import "encoding/json"

// The external tests (package engine_test, which can build a demo
// federation) restore snapshots through these.

// SnapshotState is the snapshot Durability.Snapshot would write now.
func (e *Engine) SnapshotState() ([]byte, error) { return json.Marshal(e.snapshot()) }

// RestoreState recovers a snapshot into the engine as a boot does.
func (e *Engine) RestoreState(data []byte) error {
	return e.restore(pending{}, data)
}

// EstimatorGeneration is the estimator registry's mutation counter.
func (e *Engine) EstimatorGeneration() uint64 { return e.estimators.Generation() }
