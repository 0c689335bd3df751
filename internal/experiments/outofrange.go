package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"intellisphere/internal/catalog"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/nn"
	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
	"intellisphere/internal/stats"
	"intellisphere/internal/workload"
)

// oorSetup is the shared Figure 14 / Table 1 environment: models trained on
// datasets of up to 8×10^6 records, and the 45-query evaluation suite at
// 20×10^6 records.
type oorSetup struct {
	env     *Env
	join    *logicalop.Model
	subOp   *subop.ModelSet
	specs   []plan.JoinSpec
	actuals []float64
}

func newOORSetup(env *Env) (*oorSetup, error) {
	cfg := env.Cfg
	// Training tables capped at 8M records, as in the paper.
	var tables []*catalog.Table
	for _, t := range env.Tables {
		if t.Rows <= 8_000_000 {
			tables = append(tables, t)
		}
	}
	qs, err := workload.JoinTrainingSet(tables, cfg.JoinPairs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	run, err := workload.RunJoinSet(env.Hive, qs)
	if err != nil {
		return nil, err
	}
	lcfg := logicalop.DefaultConfig(len(plan.JoinDimNames()), cfg.Seed)
	lcfg.NN.Train.Iterations = cfg.NNIterations
	join, _, err := logicalop.Train("join", plan.JoinDimNames(), run.X, run.Y, lcfg)
	if err != nil {
		return nil, err
	}

	models, _, err := subop.Train(env.Hive, subop.TrainConfig{})
	if err != nil {
		return nil, err
	}

	oorCfg := workload.DefaultOutOfRange()
	oorCfg.Count = cfg.OutOfRangeCount
	oorCfg.Seed = cfg.Seed + 11
	specs, err := workload.OutOfRangeJoins(oorCfg)
	if err != nil {
		return nil, err
	}
	actuals, err := workload.RunJoinSpecs(env.Hive, specs)
	if err != nil {
		return nil, err
	}
	return &oorSetup{env: env, join: join, subOp: models, specs: specs, actuals: actuals}, nil
}

// cloneModel deep-copies a logical model through its JSON snapshot so
// different arms of the experiment cannot contaminate each other.
func cloneModel(m *logicalop.Model) (*logicalop.Model, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	var out logicalop.Model
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Fig14Result compares the four out-of-range prediction strategies of
// Figure 14: the sub-op formula, the raw NN, the NN with the online remedy
// (fixed α = 0.5), and the NN after offline tuning on 70% of the new range.
type Fig14Result struct {
	N          int
	SubOpLine  stats.Line
	SubOpPct   float64
	NNLine     stats.Line
	NNPct      float64
	RemedyLine stats.Line
	RemedyPct  float64
	TunedLine  stats.Line
	TunedPct   float64
	TunedN     int
}

// String prints the figure rows.
func (r *Fig14Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "out-of-range prediction, %d merge-join queries at 20M records (trained ≤ 8M)\n", r.N)
	fmt.Fprintf(&b, "  sub-op            %s  RMSE%% %6.2f\n", r.SubOpLine, r.SubOpPct)
	fmt.Fprintf(&b, "  NN                %s  RMSE%% %6.2f\n", r.NNLine, r.NNPct)
	fmt.Fprintf(&b, "  NN+online remedy  %s  RMSE%% %6.2f   (α=0.5)\n", r.RemedyLine, r.RemedyPct)
	fmt.Fprintf(&b, "  NN+offline tuning %s  RMSE%% %6.2f   (on held-out %d)\n", r.TunedLine, r.TunedPct, r.TunedN)
	return b.String()
}

// RunFig14 reproduces Figure 14.
func RunFig14(env *Env) (*Fig14Result, error) {
	s, err := newOORSetup(env)
	if err != nil {
		return nil, err
	}
	return s.fig14()
}

func (s *oorSetup) fig14() (*Fig14Result, error) {
	res := &Fig14Result{N: len(s.specs)}

	// Sub-op arm: predict the algorithm with the applicability rules and
	// evaluate the composed formula.
	subEst, err := subop.NewEstimator(s.subOp, remote.EngineHive, subop.InHouseComparable)
	if err != nil {
		return nil, err
	}
	var subPred []float64
	for _, spec := range s.specs {
		ce, err := subEst.EstimateJoin(spec)
		if err != nil {
			return nil, err
		}
		subPred = append(subPred, ce.Seconds)
	}
	if res.SubOpLine, res.SubOpPct, err = accuracyLine(subPred, s.actuals); err != nil {
		return nil, err
	}

	// Raw NN and the α=0.5 online remedy.
	remedyModel, err := cloneModel(s.join)
	if err != nil {
		return nil, err
	}
	remedyModel.SetAlpha(0.5)
	var nnPred, remedyPred []float64
	for _, spec := range s.specs {
		est, err := remedyModel.Estimate(spec.Dims())
		if err != nil {
			return nil, err
		}
		if !est.OutOfRange {
			return nil, fmt.Errorf("experiments: spec unexpectedly in range: %+v", spec.Dims())
		}
		nnPred = append(nnPred, est.NNSeconds)
		remedyPred = append(remedyPred, est.Seconds)
	}
	if res.NNLine, res.NNPct, err = accuracyLine(nnPred, s.actuals); err != nil {
		return nil, err
	}
	if res.RemedyLine, res.RemedyPct, err = accuracyLine(remedyPred, s.actuals); err != nil {
		return nil, err
	}

	// Offline tuning: feed ~70% of the executions into the log, retrain,
	// evaluate on the remaining 30%.
	tunedModel, err := cloneModel(s.join)
	if err != nil {
		return nil, err
	}
	cut := len(s.specs) * 7 / 10
	for i := 0; i < cut; i++ {
		tunedModel.Observe(s.specs[i].Dims(), s.actuals[i], 1, 1)
	}
	tc := nn.TrainConfig{Iterations: s.env.Cfg.NNIterations, LearningRate: 0.01, BatchSize: 64, Seed: s.env.Cfg.Seed + 3}
	if _, err := tunedModel.OfflineTune(tc); err != nil {
		return nil, err
	}
	var tunedPred, tunedActual []float64
	for i := cut; i < len(s.specs); i++ {
		est, err := tunedModel.Estimate(s.specs[i].Dims())
		if err != nil {
			return nil, err
		}
		tunedPred = append(tunedPred, est.Seconds)
		tunedActual = append(tunedActual, s.actuals[i])
	}
	res.TunedN = len(tunedPred)
	if res.TunedLine, res.TunedPct, err = accuracyLine(tunedPred, tunedActual); err != nil {
		return nil, err
	}
	return res, nil
}

// Table1Row is one batch of the α auto-adjustment experiment.
type Table1Row struct {
	Batch   int
	Alpha   float64 // α used while estimating this batch
	RMSEPct float64
}

// Table1Result reproduces Table 1: the 45 out-of-range queries split into
// five batches of nine; after each batch the system re-fits α to minimize
// the RMSE of the executed batches.
type Table1Result struct {
	Rows []Table1Row
}

// String prints the table.
func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("α auto-adjustment (Table 1)\n  batch   α      RMSE%\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %5d  %5.2f  %6.2f\n", row.Batch, row.Alpha, row.RMSEPct)
	}
	return b.String()
}

// RunTable1 reproduces Table 1.
func RunTable1(env *Env) (*Table1Result, error) {
	s, err := newOORSetup(env)
	if err != nil {
		return nil, err
	}
	return s.table1()
}

func (s *oorSetup) table1() (*Table1Result, error) {
	model, err := cloneModel(s.join)
	if err != nil {
		return nil, err
	}
	model.SetAlpha(0.5)

	const batches = 5
	n := len(s.specs) / batches
	res := &Table1Result{}
	for b := 0; b < batches; b++ {
		lo, hi := b*n, (b+1)*n
		if b == batches-1 {
			hi = len(s.specs)
		}
		alphaUsed := model.Alpha()
		var pred, actual []float64
		for i := lo; i < hi; i++ {
			est, err := model.Estimate(s.specs[i].Dims())
			if err != nil {
				return nil, err
			}
			pred = append(pred, est.Seconds)
			actual = append(actual, s.actuals[i])
			model.Observe(s.specs[i].Dims(), s.actuals[i], est.NNSeconds, est.RegSeconds)
		}
		pct, err := stats.RMSEPercent(pred, actual)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table1Row{Batch: b + 1, Alpha: alphaUsed, RMSEPct: pct})
		model.RefitAlpha()
	}
	return res, nil
}
