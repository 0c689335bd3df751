// Blackbox (logical-operator) costing walkthrough, Section 3 of the paper:
// a remote system about which nothing is known internally is trained by
// executing thousands of Figure 10 workload queries, a per-operator neural
// network learns the cost surface, and then an out-of-range query
// demonstrates the full Figure 3 flowchart — pivot detection, the online
// remedy (NN + on-the-fly regression combined with α), logging actual
// executions, α re-fitting, and the offline tuning phase that folds the log
// back into the network and expands the trained ranges.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"intellisphere"
	"intellisphere/internal/catalog"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/nn"
	"intellisphere/internal/plan"
	"intellisphere/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// The blackbox remote: we use a Hive-like simulator, but the training
	// below never looks inside it — it only submits queries and reads
	// elapsed times.
	blackbox, err := intellisphere.NewHiveSystem("blackbox", intellisphere.DefaultHiveCluster(), intellisphere.SystemOptions{Seed: 21})
	if err != nil {
		return err
	}

	// Training workload over tables capped at 8M rows (so 20M is genuinely
	// un-seen later).
	tables, err := fig10TablesUpTo(8_000_000)
	if err != nil {
		return err
	}
	joinQs, err := workload.JoinTrainingSet(tables, 150, 21)
	if err != nil {
		return err
	}
	trained, err := workload.RunJoinSet(blackbox, joinQs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "executed %d training joins on the blackbox remote (%.1f simulated hours)\n",
		len(joinQs), trained.TotalSec/3600)

	cfg := intellisphere.DefaultLogicalConfig(7, 22)
	cfg.NN.Train.Iterations = 800
	model, trainRes, err := logicalop.Train("join", plan.JoinDimNames(), trained.X, trained.Y, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trained the 7-dim join network; final normalized RMSE %.4f\n", trainRes.FinalRMSE)
	for _, d := range model.Dimensions() {
		fmt.Fprintf(w, "  dim %-12s trained range [%.0f, %.0f] step %.0f\n", d.Name, d.Min, d.Max, d.StepSize)
	}

	// An out-of-range join: 20M rows against a model trained up to 8M.
	spec := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 20e6, RowSize: 250, ProjectedSize: 28, KeyNDV: 20e6},
		Right:      plan.TableSide{Rows: 20e6, RowSize: 250, ProjectedSize: 28, KeyNDV: 20e6},
		OutputRows: 5e6,
	}
	actual, err := blackbox.ExecuteJoin(spec)
	if err != nil {
		return err
	}
	est, err := model.Estimate(spec.Dims())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nout-of-range query (20M ⋈ 20M rows): actual %.1fs\n", actual.ElapsedSec)
	fmt.Fprintf(w, "  pivot dimensions: %v\n", est.PivotDims)
	fmt.Fprintf(w, "  raw NN:           %.1fs (saturates — cannot extrapolate)\n", est.NNSeconds)
	fmt.Fprintf(w, "  remedy regression:%.1fs\n", est.RegSeconds)
	fmt.Fprintf(w, "  combined (α=%.2f): %.1fs\n", model.Alpha(), est.Seconds)

	// Log a batch of out-of-range executions and re-fit α.
	oor, err := workload.OutOfRangeJoins(workload.DefaultOutOfRange())
	if err != nil {
		return err
	}
	for _, s := range oor {
		ex, err := blackbox.ExecuteJoin(s)
		if err != nil {
			return err
		}
		e, err := model.Estimate(s.Dims())
		if err != nil {
			return err
		}
		model.Observe(s.Dims(), ex.ElapsedSec, e.NNSeconds, e.RegSeconds)
	}
	alpha, n := model.RefitAlpha()
	fmt.Fprintf(w, "\nafter logging %d executed out-of-range queries: α re-fit to %.2f\n", n, alpha)

	// Offline tuning: fold the log into the network and expand the ranges.
	if _, err := model.OfflineTune(nn.TrainConfig{Iterations: 600, LearningRate: 0.01, BatchSize: 64, Seed: 23}); err != nil {
		return err
	}
	est2, err := model.Estimate(spec.Dims())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after offline tuning: estimate %.1fs (actual %.1fs), out-of-range=%v\n",
		est2.Seconds, actual.ElapsedSec, est2.OutOfRange)
	for _, d := range model.Dimensions() {
		if d.Name == "num_rows_r" {
			fmt.Fprintf(w, "  dim %s range expanded to [%.0f, %.0f] (islands: %d)\n", d.Name, d.Min, d.Max, len(d.Islands))
		}
	}
	return nil
}

func fig10TablesUpTo(maxRows int64) ([]*catalog.Table, error) {
	all, err := datagen.Tables("blackbox")
	if err != nil {
		return nil, err
	}
	var out []*catalog.Table
	for _, t := range all {
		if t.Rows <= maxRows {
			out = append(out, t)
		}
	}
	return out, nil
}
