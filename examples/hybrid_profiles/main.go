// Hybrid costing profiles, Section 5 of the paper (Figure 9): a remote
// system "C" with little internal knowledge is first costed with an
// approximate sub-operator model (its probe training takes minutes), while
// the prolonged logical-op training runs "in the background"; once the
// neural models exist (t1), a staged profile holding them with logical-op
// active is built as a new estimator that replaces the first. The profile —
// the CP of Figure 9 — is serialized to disk and restored, and the
// per-operator override extension (joins via sub-op while the rest is
// logical-op) is demonstrated, again as a profile of its own.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"intellisphere"
	"intellisphere/internal/catalog"
	"intellisphere/internal/core"
	"intellisphere/internal/core/logicalop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/plan"
	"intellisphere/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	systemC, err := intellisphere.NewHiveSystem("system-c", intellisphere.DefaultHiveCluster(), intellisphere.SystemOptions{Seed: 31})
	if err != nil {
		return err
	}

	// Phase 1: approximate sub-op costing now (cheap probes).
	models, report, err := intellisphere.TrainSubOp(systemC)
	if err != nil {
		return err
	}
	profile := &intellisphere.CostingProfile{
		SystemName:  "system-c",
		Engine:      intellisphere.EngineHive,
		Active:      intellisphere.SubOp,
		Policy:      intellisphere.InHouseComparable,
		SubOpModels: models,
	}
	est, err := intellisphere.NewHybridEstimator(profile)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "phase 1: sub-op profile active after %d probe queries (%.1f simulated minutes)\n",
		report.TotalCount, report.TotalSec/60)

	spec := plan.JoinSpec{
		Left:       plan.TableSide{Rows: 4e6, RowSize: 250, ProjectedSize: 28, KeyNDV: 4e6},
		Right:      plan.TableSide{Rows: 2e6, RowSize: 250, ProjectedSize: 28, KeyNDV: 2e6},
		OutputRows: 1e6,
	}
	for i := 0; i < 3; i++ {
		ce, err := est.EstimateJoin(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  query %d costed by %-10s → %.1fs (%s)\n", i+1, ce.Approach, ce.Seconds, ce.Algorithm)
	}

	// Phase 2 (t1): the "prolonged" logical-op training completes, and the
	// staged profile — the same sub-op models plus the trained join model,
	// logical-op active — replaces the first as a new estimator.
	staged := *profile
	staged.Active = intellisphere.LogicalOp
	staged.LogicalJoin = trainJoinModel(systemC)
	est, err = intellisphere.NewHybridEstimator(&staged)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "phase 2: logical-op models trained; the staged profile replaces the sub-op one")

	ce, err := est.EstimateJoin(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  query 4 costed by %-10s → %.1fs (profile switched past its threshold)\n", ce.Approach, ce.Seconds)

	// Per-operator override: joins keep the (now secondary) sub-op models.
	override := staged
	override.PerOperator = map[string]core.Approach{"join": intellisphere.SubOp}
	if est, err = intellisphere.NewHybridEstimator(&override); err != nil {
		return err
	}
	ce, err = est.EstimateJoin(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  with per-operator override, joins route to %s again\n", ce.Approach)

	// Persist the CP and restore it.
	dir, err := os.MkdirTemp("", "intellisphere-profiles")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "system-c.json")
	data, err := json.Marshal(est.Profile())
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "profile persisted to %s (%d bytes)\n", path, len(data))

	var restored intellisphere.CostingProfile
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &restored); err != nil {
		return err
	}
	est2, err := intellisphere.NewHybridEstimator(&restored)
	if err != nil {
		return err
	}
	ce2, err := est2.EstimateJoin(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "restored profile estimates %.1fs via %s — identical models survive the round trip\n",
		ce2.Seconds, ce2.Approach)
	return nil
}

func trainJoinModel(sys intellisphere.RemoteSystem) *intellisphere.LogicalModel {
	all, err := datagen.Tables("system-c")
	if err != nil {
		log.Fatal(err)
	}
	var tables []*catalog.Table
	for _, t := range all {
		if t.Rows <= 8_000_000 {
			tables = append(tables, t)
		}
	}
	qs, err := workload.JoinTrainingSet(tables, 100, 31)
	if err != nil {
		log.Fatal(err)
	}
	run, err := workload.RunJoinSet(sys, qs)
	if err != nil {
		log.Fatal(err)
	}
	cfg := intellisphere.DefaultLogicalConfig(7, 32)
	cfg.NN.Train.Iterations = 500
	model, _, err := logicalop.Train("join", plan.JoinDimNames(), run.X, run.Y, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return model
}
