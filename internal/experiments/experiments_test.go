package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"intellisphere/internal/remote"
)

// The experiment tests run the Quick configuration and assert the paper's
// qualitative shapes (Section 7), not absolute numbers.

func quickEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(Quick())
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	cfg := Quick()
	cfg.MaxTableRows = 1 // leaves no tables
	if _, err := NewEnv(cfg); err == nil {
		t.Error("empty table cap accepted")
	}
	full, err := NewEnv(Full())
	if err != nil {
		t.Fatalf("Full env: %v", err)
	}
	if len(full.Tables) != 120 {
		t.Errorf("full env has %d tables, want 120", len(full.Tables))
	}
}

func TestFig11AggregationShapes(t *testing.T) {
	env := quickEnv(t)
	res, err := RunFig11(env)
	if err != nil {
		t.Fatalf("RunFig11: %v", err)
	}
	// 90 capped tables × 6 shrink columns × 5 aggregate counts.
	if res.NumQueries != 2700 {
		t.Errorf("agg queries = %d, want 2700", res.NumQueries)
	}
	if res.TotalTrainSec <= 0 || len(res.TrainingCurve) == 0 {
		t.Error("missing training-cost curve")
	}
	// Training curve is cumulative (nondecreasing, ends at the total).
	last := 0.0
	for _, p := range res.TrainingCurve {
		if p.CumulativeSec < last {
			t.Fatal("training curve not cumulative")
		}
		last = p.CumulativeSec
	}
	if last != res.TotalTrainSec {
		t.Errorf("curve ends at %v, total %v", last, res.TotalTrainSec)
	}
	// Convergence decreases substantially from start to finish.
	conv := res.Convergence
	if len(conv) < 3 {
		t.Fatalf("convergence has %d points", len(conv))
	}
	if conv[len(conv)-1].RMSEPct >= conv[0].RMSEPct {
		t.Errorf("convergence did not improve: first %.2f last %.2f", conv[0].RMSEPct, conv[len(conv)-1].RMSEPct)
	}
	// Figure 11(c)/(d): NN highly linear; linreg decent but worse.
	if res.NNLine.R2 < 0.9 {
		t.Errorf("agg NN R² = %v, want > 0.9 (paper: 0.986)", res.NNLine.R2)
	}
	if res.NNLine.Slope < 0.7 || res.NNLine.Slope > 1.3 {
		t.Errorf("agg NN slope = %v, want near 1", res.NNLine.Slope)
	}
	if res.LinRegLine.R2 > res.NNLine.R2 {
		t.Errorf("linreg R² (%v) beat the NN (%v) on aggregation", res.LinRegLine.R2, res.NNLine.R2)
	}
	if !strings.Contains(res.String(), "NN accuracy") {
		t.Error("String() missing panels")
	}
}

// TestFig12JoinShapes holds the headline of Figure 12 — the NN fits the join
// well, linear regression does not (paper: R² 0.887 vs 0.468) — at every
// seed of the out-of-range sweep.
func TestFig12JoinShapes(t *testing.T) {
	for _, r := range oorRuns(t) {
		res := r.fig12
		t.Logf("seed %3d: R² NN %.3f linreg %.3f  RMSE%% NN %6.2f linreg %6.2f",
			r.seed, res.NNLine.R2, res.LinRegLine.R2, res.NNRMSEPct, res.LinRegRMSEPct)
		if want := Quick().JoinPairs * 4; res.NumQueries != want {
			t.Errorf("seed %d: join queries = %d, want %d", r.seed, res.NumQueries, want)
		}
		if res.NNLine.R2 < 0.8 {
			t.Errorf("seed %d: join NN R² = %v, want > 0.8", r.seed, res.NNLine.R2)
		}
		if res.LinRegLine.R2 > res.NNLine.R2-0.05 {
			t.Errorf("seed %d: join linreg R² (%v) too close to NN (%v); the gap is the paper's point", r.seed, res.LinRegLine.R2, res.NNLine.R2)
		}
		if res.NNRMSEPct > res.LinRegRMSEPct {
			t.Errorf("seed %d: join NN RMSE%% (%v) worse than linreg (%v)", r.seed, res.NNRMSEPct, res.LinRegRMSEPct)
		}
	}
}

func TestJoinTrainingCostsMoreThanAgg(t *testing.T) {
	// Figures 11(a) vs 12(a): join training takes several times longer
	// than aggregation training (paper: 25.9h vs 4.3h).
	env := quickEnv(t)
	agg, err := RunFig11(env)
	if err != nil {
		t.Fatal(err)
	}
	join, err := RunFig12(env)
	if err != nil {
		t.Fatal(err)
	}
	perAgg := agg.TotalTrainSec / float64(agg.NumQueries)
	perJoin := join.TotalTrainSec / float64(join.NumQueries)
	if perJoin <= perAgg {
		t.Errorf("per-query join training (%v s) should exceed aggregation (%v s)", perJoin, perAgg)
	}
}

func TestFig13SubOpShapes(t *testing.T) {
	env := quickEnv(t)
	res, err := RunFig13(env)
	if err != nil {
		t.Fatalf("RunFig13: %v", err)
	}
	// Figure 13(a): tens-to-hundreds of probe queries, minutes of training.
	if res.Report.TotalCount > 400 {
		t.Errorf("sub-op training used %d queries", res.Report.TotalCount)
	}
	if len(res.TrainingCurve) != len(res.Report.SubOps) {
		t.Errorf("training curve has %d points, want %d", len(res.TrainingCurve), len(res.Report.SubOps))
	}
	// Panels (c)-(e): tight linear models.
	for _, sr := range res.Report.SubOps {
		switch sr.Target {
		case remote.WriteDFS, remote.Shuffle, remote.RecMerge, remote.ReadDFS:
			if sr.Line.R2 < 0.9 {
				t.Errorf("%v model R² = %v, want > 0.9", sr.Target, sr.Line.R2)
			}
		case remote.HashBuild:
			if sr.SpillLine == nil {
				t.Fatal("HashBuild missing its spill model")
			}
			if sr.SpillLine.Slope <= sr.Line.Slope {
				t.Errorf("spill slope %v not steeper than in-memory %v", sr.SpillLine.Slope, sr.Line.Slope)
			}
		}
	}
	// Panel (g): good correlation with slight overestimation (paper slope
	// 1.578, R² 0.929).
	if res.MergeJoinLine.R2 < 0.85 {
		t.Errorf("merge-join R² = %v, want > 0.85", res.MergeJoinLine.R2)
	}
	if res.MergeJoinLine.Slope < 1.0 || res.MergeJoinLine.Slope > 2.0 {
		t.Errorf("merge-join slope = %v, want overestimation in [1, 2]", res.MergeJoinLine.Slope)
	}
	if !strings.Contains(res.String(), "merge-join formula") {
		t.Error("String() incomplete")
	}
}

func TestSubOpTrainingVastlyCheaperThanLogicalOp(t *testing.T) {
	// The approach-comparison headline (Figure 8 / Section 4): the sub-op
	// training set is one to two orders of magnitude smaller than the
	// logical-op one, and the training time is a fraction of it.
	env := quickEnv(t)
	sub, err := RunFig13(env)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := RunFig11(env)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Report.TotalCount*9 > agg.NumQueries {
		t.Errorf("sub-op needed %d queries vs logical-op %d; want ≥9× fewer",
			sub.Report.TotalCount, agg.NumQueries)
	}
	if sub.Report.TotalSec*3 > agg.TotalTrainSec {
		t.Errorf("sub-op training (%v s) not ≥3× cheaper than logical-op (%v s)",
			sub.Report.TotalSec, agg.TotalTrainSec)
	}
}

func TestFig7ReadDFS(t *testing.T) {
	env := quickEnv(t)
	res, err := RunFig7(env)
	if err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	// The learned slope should approximate the paper's ground truth
	// y = 0.0041x + 0.6323 (which seeds the simulator).
	if res.Model.Slope < 0.0030 || res.Model.Slope > 0.0055 {
		t.Errorf("ReadDFS slope = %v, want ≈0.0041", res.Model.Slope)
	}
	if len(res.Flatness) == 0 {
		t.Fatal("missing flatness points")
	}
	if !strings.Contains(res.String(), "Figure 7") {
		t.Error("String() incomplete")
	}
}

// oorSeeds are the quick-mode seeds the out-of-range shapes are asserted
// over; 7 is the one the golden pins.
var oorSeeds = []int64{1, 2, 3, 5, 7, 11, 13, 17}

type oorRun struct {
	seed   int64
	fig12  *LogicalOpResult
	fig14  *Fig14Result
	table1 *Table1Result
}

// oorSweep builds one environment and out-of-range setup per seed and runs
// Figures 12 and 14 and Table 1 on it, once for the three tests. The seeds
// share nothing, so they run side by side.
var oorSweep = sync.OnceValues(func() ([]oorRun, error) {
	runs := make([]oorRun, len(oorSeeds))
	errs := make([]error, len(oorSeeds))
	var wg sync.WaitGroup
	for i, seed := range oorSeeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = runOOR(seed)
		}()
	}
	wg.Wait()
	return runs, errors.Join(errs...)
})

func runOOR(seed int64) (oorRun, error) {
	cfg := Quick()
	cfg.Seed = seed
	env, err := NewEnv(cfg)
	if err != nil {
		return oorRun{}, err
	}
	s, err := newOORSetup(env)
	if err != nil {
		return oorRun{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	f, err := s.fig14()
	if err != nil {
		return oorRun{}, fmt.Errorf("seed %d: fig14: %w", seed, err)
	}
	tb, err := s.table1()
	if err != nil {
		return oorRun{}, fmt.Errorf("seed %d: table1: %w", seed, err)
	}
	j, err := RunFig12(env)
	if err != nil {
		return oorRun{}, fmt.Errorf("seed %d: fig12: %w", seed, err)
	}
	return oorRun{seed: seed, fig12: j, fig14: f, table1: tb}, nil
}

func oorRuns(t *testing.T) []oorRun {
	t.Helper()
	runs, err := oorSweep()
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestFig14OutOfRangeOrdering(t *testing.T) {
	// The figure's ordering: raw NN is the worst; the online remedy, offline
	// tuning and sub-op each beat it. Required at 7 of the 8 seeds.
	held := 0
	for _, r := range oorRuns(t) {
		res := r.fig14
		ok := res.RemedyPct < res.NNPct && res.TunedPct < res.NNPct && res.SubOpPct < res.NNPct
		if ok {
			held++
		}
		t.Logf("seed %3d: NN %6.2f  remedy %6.2f  tuned %6.2f  sub-op %6.2f  ordering %v",
			r.seed, res.NNPct, res.RemedyPct, res.TunedPct, res.SubOpPct, ok)
		if r.seed != 7 {
			continue
		}
		if res.N != 45 {
			t.Errorf("suite size = %d, want 45", res.N)
		}
		// Sub-op stays consistent (high correlation) out of range.
		if res.SubOpLine.R2 < 0.85 {
			t.Errorf("sub-op out-of-range R² = %v", res.SubOpLine.R2)
		}
		out := res.String()
		for _, want := range []string{"sub-op", "online remedy", "offline tuning"} {
			if !strings.Contains(out, want) {
				t.Errorf("String() missing %q", want)
			}
		}
	}
	if held < 7 {
		t.Errorf("Figure 14 ordering held at %d of %d seeds, want at least 7", held, len(oorSeeds))
	}
}

func TestTable1AlphaAdaptation(t *testing.T) {
	// The paper's trend: the last batch beats the first. Required at 6 of
	// the 8 seeds.
	held := 0
	for _, r := range oorRuns(t) {
		rows := r.table1.Rows
		if len(rows) != 5 {
			t.Fatalf("seed %d: got %d batches, want 5", r.seed, len(rows))
		}
		first, last := rows[0].RMSEPct, rows[len(rows)-1].RMSEPct
		if last < first {
			held++
		}
		t.Logf("seed %3d: RMSE%% first %6.2f last %6.2f, final α %.2f", r.seed, first, last, rows[len(rows)-1].Alpha)
		if r.seed != 7 {
			continue
		}
		if rows[0].Alpha != 0.5 {
			t.Errorf("initial α = %v, want 0.5", rows[0].Alpha)
		}
		// α must actually adapt after the first batch.
		changed := false
		for _, row := range rows[1:] {
			if row.Alpha != 0.5 {
				changed = true
			}
			if row.Alpha <= 0 || row.Alpha >= 1 {
				t.Errorf("α = %v out of (0,1)", row.Alpha)
			}
		}
		if !changed {
			t.Error("α never adapted")
		}
		if !strings.Contains(r.table1.String(), "Table 1") {
			t.Error("String() incomplete")
		}
	}
	if held < 6 {
		t.Errorf("Table 1's last batch beat its first at %d of %d seeds, want at least 6", held, len(oorSeeds))
	}
}
