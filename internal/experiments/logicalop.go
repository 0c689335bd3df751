package experiments

import (
	"fmt"
	"strings"

	"intellisphere/internal/nn"
	"intellisphere/internal/plan"
	"intellisphere/internal/regress"
	"intellisphere/internal/stats"
	"intellisphere/internal/workload"
)

// LogicalOpResult reproduces one operator's logical-op evaluation —
// Figure 11 for aggregation, Figure 12 for join. Panels:
//
//	(a) cumulative remote training time over the query sweep
//	(b) NN convergence (RMSE% vs training iterations)
//	(c) NN predicted-vs-actual fit on the held-out 30%
//	(d) linear-regression predicted-vs-actual fit on the same split
type LogicalOpResult struct {
	Operator   string
	NumQueries int
	// TrainingCurve samples the cumulative simulated training time.
	TrainingCurve []TrainPoint
	TotalTrainSec float64
	Convergence   []ConvPoint
	NNLine        stats.Line
	NNRMSEPct     float64
	LinRegLine    stats.Line
	LinRegRMSEPct float64
}

// TrainPoint is one sample of panel (a).
type TrainPoint struct {
	Queries       int
	CumulativeSec float64
}

// String prints the figure's rows.
func (r *LogicalOpResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s logical-op evaluation\n", r.Operator)
	fmt.Fprintf(&b, "(a) training cost: %d queries, %.2f simulated hours\n", r.NumQueries, r.TotalTrainSec/3600)
	for _, p := range r.TrainingCurve {
		fmt.Fprintf(&b, "      %6d queries  %10.1f s\n", p.Queries, p.CumulativeSec)
	}
	b.WriteString("(b) NN convergence:\n")
	for _, p := range r.Convergence {
		fmt.Fprintf(&b, "      iter %6d  RMSE%% %6.2f\n", p.Iterations, p.RMSEPct)
	}
	fmt.Fprintf(&b, "(c) NN accuracy:     %s  (RMSE%% %.2f)\n", r.NNLine, r.NNRMSEPct)
	fmt.Fprintf(&b, "(d) linreg accuracy: %s  (RMSE%% %.2f)\n", r.LinRegLine, r.LinRegRMSEPct)
	return b.String()
}

// sampleCurve thins a cumulative series to ~12 points.
func sampleCurve(cum []float64) []TrainPoint {
	if len(cum) == 0 {
		return nil
	}
	step := len(cum) / 12
	if step < 1 {
		step = 1
	}
	var out []TrainPoint
	for i := step - 1; i < len(cum); i += step {
		out = append(out, TrainPoint{Queries: i + 1, CumulativeSec: cum[i]})
	}
	if out[len(out)-1].Queries != len(cum) {
		out = append(out, TrainPoint{Queries: len(cum), CumulativeSec: cum[len(cum)-1]})
	}
	return out
}

// runLogicalOp is shared by Figures 11 and 12.
func runLogicalOp(env *Env, operator string, run *workload.RunResult, inputDim int) (*LogicalOpResult, error) {
	cfg := env.Cfg
	res := &LogicalOpResult{
		Operator:      operator,
		NumQueries:    len(run.Y),
		TrainingCurve: sampleCurve(run.Cumulative),
		TotalTrainSec: run.TotalSec,
	}

	trainX, trainY, testX, testY, err := nn.Split(run.X, run.Y, 0.7, cfg.Seed)
	if err != nil {
		return nil, err
	}

	netCfg := nn.Config{
		InputDim:   inputDim,
		Hidden:     []int{2 * inputDim, inputDim},
		Activation: nn.Tanh,
		Seed:       cfg.Seed,
	}
	trainCfg := nn.TrainConfig{
		LearningRate: 0.01,
		BatchSize:    64,
		Seed:         cfg.Seed,
	}
	reg, curve, err := trainWithConvergence(trainX, trainY, netCfg, trainCfg, cfg.NNIterations, cfg.ConvergenceSamples)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s NN: %w", operator, err)
	}
	res.Convergence = curve

	res.NNLine, res.NNRMSEPct, err = accuracyLine(reg.PredictAll(testX), testY)
	if err != nil {
		return nil, err
	}

	// Panel (d): plain multivariate linear regression on the same split.
	lin, err := regress.Fit(trainX, trainY)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s linear model: %w", operator, err)
	}
	linPred := make([]float64, len(testX))
	for i, row := range testX {
		p := lin.Predict(row)
		if p < 0 {
			p = 0
		}
		linPred[i] = p
	}
	res.LinRegLine, res.LinRegRMSEPct, err = accuracyLine(linPred, testY)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunFig11 reproduces Figure 11: the aggregation logical operator.
func RunFig11(env *Env) (*LogicalOpResult, error) {
	qs, err := workload.AggTrainingSet(env.Tables)
	if err != nil {
		return nil, err
	}
	run, err := workload.RunAggSet(env.Hive, qs)
	if err != nil {
		return nil, err
	}
	return runLogicalOp(env, "aggregation", run, len(plan.AggDimNames()))
}

// RunFig12 reproduces Figure 12: the join logical operator.
func RunFig12(env *Env) (*LogicalOpResult, error) {
	qs, err := workload.JoinTrainingSet(env.Tables, env.Cfg.JoinPairs, env.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	run, err := workload.RunJoinSet(env.Hive, qs)
	if err != nil {
		return nil, err
	}
	return runLogicalOp(env, "join", run, len(plan.JoinDimNames()))
}
