package subop

import (
	"fmt"

	"intellisphere/internal/core"
	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
)

// ChoicePolicy resolves the cost when the applicability rules leave several
// candidate physical algorithms (Section 4's "Usage"): assume the worst
// case, average the candidates, or assume the remote picks what an in-house
// cost-based optimizer would (the cheapest).
type ChoicePolicy int

// The three policies of Section 4.
const (
	WorstCase ChoicePolicy = iota
	AverageCase
	InHouseComparable
)

// String names the policy.
func (p ChoicePolicy) String() string {
	switch p {
	case WorstCase:
		return "worst-case"
	case AverageCase:
		return "average"
	case InHouseComparable:
		return "in-house-comparable"
	default:
		return fmt.Sprintf("ChoicePolicy(%d)", int(p))
	}
}

// skewThreshold is the duplicates-per-key ratio beyond which the skew join
// becomes applicable (matches the expert knowledge injected into the rules).
const skewThreshold = 50000

// maxApplicable bounds ApplicableJoins' result: Hive's five algorithms.
const maxApplicable = 5

// ApplicableJoins applies the paper's applicability rules: starting from
// the engine's full algorithm list, eliminate choices the remote cannot
// pick given the cardinalities and physical-layout statistics at hand.
// It appends at least one to out, which the estimator keeps on its stack.
func ApplicableJoins(out []remote.JoinAlgorithm, kind remote.EngineKind, spec plan.JoinSpec, ms *ModelSet) []remote.JoinAlgorithm {
	small, _ := spec.SmallSide()
	fits := ms.Cluster.BroadcastFits(small.Bytes())
	bothPartitioned := spec.Left.PartitionedOn && spec.Right.PartitionedOn
	bothSorted := spec.Left.SortedOn && spec.Right.SortedOn
	dup := func(s plan.TableSide) float64 {
		if s.KeyNDV <= 0 {
			return 1
		}
		return s.Rows / s.KeyNDV
	}
	skewed := dup(spec.Left) > skewThreshold || dup(spec.Right) > skewThreshold

	if kind == remote.EnginePresto {
		if spec.Cartesian {
			return append(out, remote.PrestoCrossJoin)
		}
		if fits {
			out = append(out, remote.PrestoReplicatedJoin)
		}
		out = append(out, remote.PrestoPartitionedJoin)
		return out
	}
	if kind == remote.EngineSpark {
		if spec.Cartesian {
			// Equi-join algorithms are eliminated for cartesian products.
			if fits {
				out = append(out, remote.SparkBroadcastNLJoin)
			}
			out = append(out, remote.SparkCartesianJoin)
			return out
		}
		if fits {
			out = append(out, remote.SparkBroadcastHashJoin)
		}
		if fits || ms.FitsInMemory(small.Bytes()/float64(ms.Cluster.Slots())) {
			out = append(out, remote.SparkShuffleHashJoin)
		}
		out = append(out, remote.SparkSortMergeJoin)
		return out
	}
	// Hive: cartesian products fall through to the shuffle join.
	if !spec.Cartesian {
		if fits {
			out = append(out, remote.HiveBroadcastJoin)
		}
		if bothPartitioned {
			if bothSorted {
				out = append(out, remote.HiveSortMergeBucketJoin)
			}
			out = append(out, remote.HiveBucketMapJoin)
		}
		if skewed {
			out = append(out, remote.HiveSkewJoin)
		}
	}
	out = append(out, remote.HiveShuffleJoin)
	return out
}

// Estimator implements core.Estimator with the sub-operator approach: it
// predicts the physical algorithms the remote may pick, evaluates each
// candidate's analytic formula, and resolves ambiguity with the configured
// policy.
type Estimator struct {
	Models *ModelSet
	Engine remote.EngineKind
	Policy ChoicePolicy
}

var _ core.Estimator = (*Estimator)(nil)

// NewEstimator validates the model set and builds the estimator.
func NewEstimator(ms *ModelSet, kind remote.EngineKind, policy ChoicePolicy) (*Estimator, error) {
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{Models: ms, Engine: kind, Policy: policy}, nil
}

// Approach implements core.Estimator.
func (e *Estimator) Approach() core.Approach { return core.SubOp }

// EstimateJoin implements core.Estimator.
func (e *Estimator) EstimateJoin(spec plan.JoinSpec) (core.Estimate, error) {
	if e.Models == nil {
		return core.Estimate{}, core.ErrUntrained
	}
	var algBuf [maxApplicable]remote.JoinAlgorithm
	algs := ApplicableJoins(algBuf[:0], e.Engine, spec, e.Models)
	type scored struct {
		alg remote.JoinAlgorithm
		sec float64
	}
	var costBuf [maxApplicable]scored
	costs := costBuf[:0]
	for _, a := range algs {
		sec, err := e.Models.JoinCost(spec, a)
		if err != nil {
			return core.Estimate{}, err
		}
		costs = append(costs, scored{alg: a, sec: sec})
	}
	pick := costs[0]
	switch e.Policy {
	case WorstCase:
		for _, c := range costs[1:] {
			if c.sec > pick.sec {
				pick = c
			}
		}
	case InHouseComparable:
		for _, c := range costs[1:] {
			if c.sec < pick.sec {
				pick = c
			}
		}
	case AverageCase:
		sum := 0.0
		for _, c := range costs {
			sum += c.sec
		}
		pick.sec = sum / float64(len(costs))
		pick.alg = "average:" + pick.alg
	}
	return core.Estimate{Seconds: pick.sec, Approach: core.SubOp, Algorithm: string(pick.alg)}, nil
}

// EstimateAgg implements core.Estimator.
func (e *Estimator) EstimateAgg(spec plan.AggSpec) (core.Estimate, error) {
	if e.Models == nil {
		return core.Estimate{}, core.ErrUntrained
	}
	sec, err := e.Models.AggCost(spec)
	if err != nil {
		return core.Estimate{}, err
	}
	return core.Estimate{Seconds: sec, Approach: core.SubOp, Algorithm: "hash_aggregation"}, nil
}

// EstimateScan implements core.Estimator.
func (e *Estimator) EstimateScan(spec plan.ScanSpec) (core.Estimate, error) {
	if e.Models == nil {
		return core.Estimate{}, core.ErrUntrained
	}
	sec, err := e.Models.ScanCost(spec)
	if err != nil {
		return core.Estimate{}, err
	}
	return core.Estimate{Seconds: sec, Approach: core.SubOp, Algorithm: "scan"}, nil
}
