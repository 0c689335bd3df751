package remote

import (
	"fmt"
	"hash/fnv"
	"math"

	"intellisphere/internal/cluster"
	"intellisphere/internal/plan"
)

// Execution reports one simulated operator run on a remote system.
type Execution struct {
	ElapsedSec float64 // wall-clock time inside the remote system
	Algorithm  string  // physical algorithm the remote chose
}

// Probe is a primitive calibration query from Figure 5's footnotes: it
// exercises ReadDFS plus (for all but the ReadDFS probe itself) exactly one
// target sub-operation, so the caller can difference out the read cost.
type Probe struct {
	Target     SubOp
	Records    float64
	RecordSize float64
	// BuildBytes sizes the hash table for HashBuild probes so callers can
	// exercise both the in-memory and the spill regime. 0 means one DFS
	// block per task (always in memory on sane configurations).
	BuildBytes float64
}

// Validate reports structural problems with the probe.
func (p Probe) Validate() error {
	if p.Records <= 0 || p.RecordSize <= 0 {
		return fmt.Errorf("remote: probe needs positive records (%v) and record size (%v)", p.Records, p.RecordSize)
	}
	if p.BuildBytes < 0 {
		return fmt.Errorf("remote: negative probe build bytes %v", p.BuildBytes)
	}
	return nil
}

// System is a remote engine in the IntelliSphere ecosystem. Implementations
// simulate execution analytically over operator statistics; they never
// materialize rows.
type System interface {
	// Name returns the system's registered name.
	Name() string
	// Cluster exposes the cluster shape. Openbox costing may read it;
	// blackbox costing must not.
	Cluster() cluster.Config
	// ExecuteJoin runs a join and returns its elapsed time.
	ExecuteJoin(spec plan.JoinSpec) (Execution, error)
	// ExecuteAgg runs a grouping/aggregation.
	ExecuteAgg(spec plan.AggSpec) (Execution, error)
	// ExecuteScan runs a filtering/projecting scan.
	ExecuteScan(spec plan.ScanSpec) (Execution, error)
	// ExecuteProbe runs a primitive calibration query (Figure 5).
	ExecuteProbe(p Probe) (Execution, error)
}

// noise produces a deterministic multiplicative factor 1±amplitude derived
// from the key string and seed, so repeated identical queries time
// identically (the simulator is reproducible) while distinct queries get
// independent perturbations.
// The hot paths render keys with the noiseKey builder and call noiseBytes
// directly; this string form remains for tests and cold callers.
func noise(key string, seed int64, amplitude float64) float64 {
	if amplitude == 0 {
		return 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	return noiseFinish(h.Sum64(), amplitude)
}

// sortUnit returns the per-record sort cost including the log-scaling term
// that makes large sorts super-linear (a nonlinearity the logical-op NN can
// capture but a plain linear model cannot).
func sortUnit(t *SubOpCosts, s, recordsPerTask float64) float64 {
	u := t.Costs[Sort].At(s)
	if t.SortLogFactor > 0 && recordsPerTask > 2 {
		u *= 1 + t.SortLogFactor*math.Log2(recordsPerTask)
	}
	return u
}
