package experiments

import (
	"fmt"
	"strings"

	"intellisphere/internal/core/subop"
	"intellisphere/internal/nn"
	"intellisphere/internal/parallel"
	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
	"intellisphere/internal/stats"
	"intellisphere/internal/workload"
)

// Ablations quantify the design choices DESIGN.md calls out. They are not
// paper figures; they justify defaults.

// LogOutputAblationResult compares training the join network on raw seconds
// versus log-space targets. RMSE% is dominated by the largest joins; the
// median relative error shows what log-space targets buy on the bulk of
// the workload, whose costs span orders of magnitude.
type LogOutputAblationResult struct {
	RawRMSEPct   float64
	LogRMSEPct   float64
	RawR2        float64
	LogR2        float64
	RawMedRelErr float64
	LogMedRelErr float64
}

// String prints the comparison.
func (r *LogOutputAblationResult) String() string {
	return fmt.Sprintf("log-output ablation (join NN): raw targets RMSE%% %.2f (R² %.3f, med rel err %.3f) vs log targets RMSE%% %.2f (R² %.3f, med rel err %.3f)",
		r.RawRMSEPct, r.RawR2, r.RawMedRelErr, r.LogRMSEPct, r.LogR2, r.LogMedRelErr)
}

// medianRelErr computes the median of |pred-actual|/actual.
func medianRelErr(pred, actual []float64) (float64, error) {
	rel := make([]float64, len(pred))
	for i := range pred {
		rel[i] = abs(pred[i]-actual[i]) / actual[i]
	}
	return stats.Percentile(rel, 50)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RunLogOutputAblation trains the join model both ways on the same split.
func RunLogOutputAblation(env *Env) (*LogOutputAblationResult, error) {
	cfg := env.Cfg
	qs, err := workload.JoinTrainingSet(env.Tables, cfg.JoinPairs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	run, err := workload.RunJoinSet(env.Hive, qs)
	if err != nil {
		return nil, err
	}
	trainX, trainY, testX, testY, err := nn.Split(run.X, run.Y, 0.7, cfg.Seed)
	if err != nil {
		return nil, err
	}
	d := len(plan.JoinDimNames())
	res := &LogOutputAblationResult{}
	// The two target encodings train independently; run both variants
	// concurrently.
	type variant struct{ pct, r2, med float64 }
	variants, err := parallel.Map(2, func(i int) (variant, error) {
		logOut := i == 1
		reg, _, err := nn.TrainRegressor(trainX, trainY, nn.RegressorConfig{
			Network:   nn.Config{InputDim: d, Hidden: []int{2 * d, d}, Activation: nn.Tanh, Seed: cfg.Seed},
			Train:     nn.TrainConfig{Iterations: cfg.NNIterations, LearningRate: 0.01, BatchSize: 64, Seed: cfg.Seed},
			LogOutput: logOut,
		})
		if err != nil {
			return variant{}, err
		}
		pred := reg.PredictAll(testX)
		line, pct, err := accuracyLine(pred, testY)
		if err != nil {
			return variant{}, err
		}
		med, err := medianRelErr(pred, testY)
		if err != nil {
			return variant{}, err
		}
		return variant{pct: pct, r2: line.R2, med: med}, nil
	})
	if err != nil {
		return nil, err
	}
	res.RawRMSEPct, res.RawR2, res.RawMedRelErr = variants[0].pct, variants[0].r2, variants[0].med
	res.LogRMSEPct, res.LogR2, res.LogMedRelErr = variants[1].pct, variants[1].r2, variants[1].med
	return res, nil
}

// AlphaAblationResult compares a fixed α = 0.5 against the closed-form
// batch re-fit over the Figure 14 suite.
type AlphaAblationResult struct {
	FixedRMSEPct    float64
	AdaptiveRMSEPct float64
	FinalAlpha      float64
}

// String prints the comparison.
func (r *AlphaAblationResult) String() string {
	return fmt.Sprintf("α ablation: fixed 0.5 RMSE%% %.2f vs adaptive RMSE%% %.2f (final α %.2f)",
		r.FixedRMSEPct, r.AdaptiveRMSEPct, r.FinalAlpha)
}

// RunAlphaAblation evaluates both α strategies batch by batch.
func RunAlphaAblation(env *Env) (*AlphaAblationResult, error) {
	s, err := newOORSetup(env)
	if err != nil {
		return nil, err
	}
	fixed, err := cloneModel(s.join)
	if err != nil {
		return nil, err
	}
	fixed.SetAlpha(0.5)
	adaptive, err := cloneModel(s.join)
	if err != nil {
		return nil, err
	}
	adaptive.SetAlpha(0.5)

	const batch = 9
	var fixedPred, adaptPred []float64
	for i, spec := range s.specs {
		fe, err := fixed.Estimate(spec.Dims())
		if err != nil {
			return nil, err
		}
		fixedPred = append(fixedPred, fe.Seconds)
		ae, err := adaptive.Estimate(spec.Dims())
		if err != nil {
			return nil, err
		}
		adaptPred = append(adaptPred, ae.Seconds)
		adaptive.Observe(spec.Dims(), s.actuals[i], ae.NNSeconds, ae.RegSeconds)
		if (i+1)%batch == 0 {
			adaptive.RefitAlpha()
		}
	}
	res := &AlphaAblationResult{FinalAlpha: adaptive.Alpha()}
	if res.FixedRMSEPct, err = stats.RMSEPercent(fixedPred, s.actuals); err != nil {
		return nil, err
	}
	if res.AdaptiveRMSEPct, err = stats.RMSEPercent(adaptPred, s.actuals); err != nil {
		return nil, err
	}
	return res, nil
}

// PolicyAblationResult compares the three choice policies on joins whose
// applicability rules leave several candidate algorithms.
type PolicyAblationResult struct {
	N          int
	WorstPct   float64
	AvgPct     float64
	InHousePct float64
}

// String prints the comparison.
func (r *PolicyAblationResult) String() string {
	return fmt.Sprintf("choice-policy ablation over %d ambiguous joins: worst RMSE%% %.2f, average RMSE%% %.2f, in-house RMSE%% %.2f",
		r.N, r.WorstPct, r.AvgPct, r.InHousePct)
}

// RunPolicyAblation builds joins with small sides straddling the broadcast
// threshold on bucketed tables (so several algorithms stay applicable) and
// scores each policy against the remote's actual choice.
func RunPolicyAblation(env *Env) (*PolicyAblationResult, error) {
	models, _, err := subop.Train(env.Hive, subop.TrainConfig{})
	if err != nil {
		return nil, err
	}
	var specs []plan.JoinSpec
	limit := env.Hive.Cluster().BroadcastLimit()
	for _, frac := range []float64{0.2, 0.5, 0.9} {
		for _, size := range []float64{100, 250, 500} {
			rows := limit * frac / size
			specs = append(specs, plan.JoinSpec{
				Left: plan.TableSide{Rows: 8e6, RowSize: size, ProjectedSize: 28, KeyNDV: 8e6,
					PartitionedOn: true, SortedOn: true},
				Right: plan.TableSide{Rows: rows, RowSize: size, ProjectedSize: 28, KeyNDV: rows,
					PartitionedOn: true, SortedOn: true},
				OutputRows: rows,
			})
		}
	}
	// Nine simulated executions and 27 formula estimates: plain loops.
	actual, err := workload.RunJoinSpecs(env.Hive, specs)
	if err != nil {
		return nil, err
	}
	res := &PolicyAblationResult{N: len(specs)}
	var pcts [3]float64
	for i, p := range []subop.ChoicePolicy{subop.WorstCase, subop.AverageCase, subop.InHouseComparable} {
		est, err := subop.NewEstimator(models, remote.EngineHive, p)
		if err != nil {
			return nil, err
		}
		pred := make([]float64, len(specs))
		for j, spec := range specs {
			ce, err := est.EstimateJoin(spec)
			if err != nil {
				return nil, err
			}
			pred[j] = ce.Seconds
		}
		if pcts[i], err = stats.RMSEPercent(pred, actual); err != nil {
			return nil, err
		}
	}
	res.WorstPct, res.AvgPct, res.InHousePct = pcts[0], pcts[1], pcts[2]
	return res, nil
}

// NeighborKResult is one remedy neighborhood-size setting.
type NeighborKResult struct {
	K       int
	RMSEPct float64
}

// NeighborKAblationResult sweeps the remedy's NeighborK.
type NeighborKAblationResult struct {
	Rows []NeighborKResult
}

// String prints the sweep.
func (r *NeighborKAblationResult) String() string {
	var b strings.Builder
	b.WriteString("remedy neighborhood ablation (online remedy, α=0.5):")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  k=%d → RMSE%% %.2f;", row.K, row.RMSEPct)
	}
	return b.String()
}

// RunNeighborKAblation retrains the join model once and evaluates the
// remedy under different neighborhood sizes.
func RunNeighborKAblation(env *Env, ks []int) (*NeighborKAblationResult, error) {
	if len(ks) == 0 {
		ks = []int{4, 8, 16, 32}
	}
	s, err := newOORSetup(env)
	if err != nil {
		return nil, err
	}
	res := &NeighborKAblationResult{}
	// Each k setting works on its own model clone, so the sweep fans out.
	rows, err := parallel.Map(len(ks), func(i int) (NeighborKResult, error) {
		k := ks[i]
		// Re-train cheaply by cloning and adjusting the config through the
		// snapshot (NeighborK is part of the serialized config).
		m, err := cloneModel(s.join)
		if err != nil {
			return NeighborKResult{}, err
		}
		m.SetAlpha(0.5)
		m.SetNeighborK(k)
		var pred []float64
		for _, spec := range s.specs {
			est, err := m.Estimate(spec.Dims())
			if err != nil {
				return NeighborKResult{}, err
			}
			pred = append(pred, est.Seconds)
		}
		pct, err := stats.RMSEPercent(pred, s.actuals)
		if err != nil {
			return NeighborKResult{}, err
		}
		return NeighborKResult{K: k, RMSEPct: pct}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// TopologyAblationResult compares the paper's cross-validation topology
// search (Section 3: layer1 ∈ [d, 2d], layer2 ∈ [3, layer1/2]) against the
// fixed (2d, d) default, on the aggregation model.
type TopologyAblationResult struct {
	FixedHidden     []int
	FixedRMSEPct    float64
	BestHidden      []int
	BestRMSEPct     float64
	TopologiesTried int
}

// String prints the comparison.
func (r *TopologyAblationResult) String() string {
	return fmt.Sprintf("topology ablation (agg NN): fixed %v RMSE%% %.2f vs cross-validated %v RMSE%% %.2f (%d topologies tried)",
		r.FixedHidden, r.FixedRMSEPct, r.BestHidden, r.BestRMSEPct, r.TopologiesTried)
}

// RunTopologyAblation trains the aggregation model under both topology
// policies and scores each on the same held-out split.
func RunTopologyAblation(env *Env) (*TopologyAblationResult, error) {
	cfg := env.Cfg
	qs, err := workload.AggTrainingSet(env.Tables)
	if err != nil {
		return nil, err
	}
	run, err := workload.RunAggSet(env.Hive, qs)
	if err != nil {
		return nil, err
	}
	trainX, trainY, testX, testY, err := nn.Split(run.X, run.Y, 0.7, cfg.Seed)
	if err != nil {
		return nil, err
	}
	d := len(plan.AggDimNames())
	iters := cfg.NNIterations / 2
	if iters < 100 {
		iters = 100
	}
	base := nn.RegressorConfig{
		Network:   nn.Config{InputDim: d, Activation: nn.Tanh, Seed: cfg.Seed},
		Train:     nn.TrainConfig{Iterations: iters, LearningRate: 0.01, BatchSize: 64, Seed: cfg.Seed},
		LogOutput: true,
	}

	res := &TopologyAblationResult{FixedHidden: []int{2 * d, d}}
	fixedCfg := base
	fixedCfg.Network.Hidden = res.FixedHidden
	fixed, _, err := nn.TrainRegressor(trainX, trainY, fixedCfg)
	if err != nil {
		return nil, err
	}
	if res.FixedRMSEPct, err = stats.RMSEPercent(fixed.PredictAll(testX), testY); err != nil {
		return nil, err
	}

	best, tried, err := nn.SearchTopology(trainX, trainY, base)
	if err != nil {
		return nil, err
	}
	res.TopologiesTried = len(tried)
	res.BestHidden = best.Hidden
	bestCfg := base
	bestCfg.Network = best
	reg, _, err := nn.TrainRegressor(trainX, trainY, bestCfg)
	if err != nil {
		return nil, err
	}
	if res.BestRMSEPct, err = stats.RMSEPercent(reg.PredictAll(testX), testY); err != nil {
		return nil, err
	}
	return res, nil
}
