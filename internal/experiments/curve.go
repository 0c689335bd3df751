package experiments

import (
	"fmt"
	"strings"

	"intellisphere/internal/nn"
	"intellisphere/internal/parallel"
	"intellisphere/internal/plan"
	"intellisphere/internal/workload"
)

// TrainingSizePoint is one point of the training-cost-vs-quality curve.
type TrainingSizePoint struct {
	Queries    int
	TrainSec   float64 // cumulative simulated remote time for this many queries
	RMSEPct    float64 // held-out accuracy of a model trained on this prefix
	AccuracyR2 float64
}

// TrainingSizeCurveResult quantifies the paper's central economic tension:
// logical-op quality grows with remote training spend, which is exactly why
// the hybrid approach serves approximate sub-op estimates while the
// prolonged training runs (Figure 9). Not a paper figure; a supplementary
// experiment.
type TrainingSizeCurveResult struct {
	Points []TrainingSizePoint
}

// String prints the curve.
func (r *TrainingSizeCurveResult) String() string {
	var b strings.Builder
	b.WriteString("join logical-op quality vs training spend:\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %5d queries  %8.1f simulated s  RMSE%% %6.2f  R² %.3f\n",
			p.Queries, p.TrainSec, p.RMSEPct, p.AccuracyR2)
	}
	return b.String()
}

// RunTrainingSizeCurve trains the join model on growing prefixes of the
// training workload and scores each on a common held-out set.
func RunTrainingSizeCurve(env *Env, fractions []float64) (*TrainingSizeCurveResult, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	}
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
	// Approximate per-query training spend from the full run's average.
	perQuery := run.TotalSec / float64(len(run.Y))

	d := len(plan.JoinDimNames())
	res := &TrainingSizeCurveResult{}
	// Each prefix trains an independent model; the curve points fan out
	// across the cores.
	points, err := parallel.Map(len(fractions), func(i int) (TrainingSizePoint, error) {
		n := int(fractions[i] * float64(len(trainX)))
		if n < d+2 {
			n = d + 2
		}
		if n > len(trainX) {
			n = len(trainX)
		}
		reg, _, err := nn.TrainRegressor(trainX[:n], trainY[:n], nn.RegressorConfig{
			Network:   nn.Config{InputDim: d, Hidden: []int{2 * d, d}, Activation: nn.Tanh, Seed: cfg.Seed},
			Train:     nn.TrainConfig{Iterations: cfg.NNIterations, LearningRate: 0.01, BatchSize: 64, Seed: cfg.Seed},
			LogOutput: true,
		})
		if err != nil {
			return TrainingSizePoint{}, err
		}
		line, pct, err := accuracyLine(reg.PredictAll(testX), testY)
		if err != nil {
			return TrainingSizePoint{}, err
		}
		return TrainingSizePoint{
			Queries:    n,
			TrainSec:   perQuery * float64(n),
			RMSEPct:    pct,
			AccuracyR2: line.R2,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}
