package main

import (
	"encoding/json"
	"fmt"
	"math"

	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
)

// served is the part of a /query answer the benchmark reads.
type served struct {
	Explain      string  `json:"explain"`
	EstimatedSec float64 `json:"estimated_sec"`
	ActualSec    float64 `json:"actual_sec"`
	Error        string  `json:"error"`
}

// referenceEngine builds the federation cmd/serve boots (same seed, same
// flink remote) with the plan cache and statement caches disabled: what it
// answers is what an uncached, unbatched, unstreamed engine answers.
func referenceEngine() (*engine.Engine, error) {
	return demo.Build(demo.Config{Seed: 1, LogicalRemote: true, PlanCacheSize: -1})
}

// accuracy is what the kept answers say about the estimators and the plans
// they chose, over the fixed sample of the stream's first sampleStmts
// statements.
type accuracy struct {
	qerrorMean    float64 // mean of max(est/act, act/est)
	actualSecMean float64 // mean simulated execution seconds
	sample        int
}

// checkAnswers compares every kept answer with the reference engine's: the
// rendered plan, its estimate and the simulated execution time must be
// identical, however the statement was served. It returns the number of
// wrong answers (with the first few described) and the accuracy figures.
func checkAnswers(kept []exchange) (wrong int, notes []string, acc accuracy, err error) {
	ref, err := referenceEngine()
	if err != nil {
		return 0, nil, acc, fmt.Errorf("reference engine: %w", err)
	}
	type answer struct {
		explain  string
		est, act float64
	}
	memo := map[string]answer{}
	var qsum, asum float64
	for _, ex := range kept {
		items := []json.RawMessage{ex.body}
		if len(ex.sqls) > 1 {
			items = nil
			if err := json.Unmarshal(ex.body, &items); err != nil || len(items) != len(ex.sqls) {
				wrong += len(ex.sqls)
				notes = append(notes, fmt.Sprintf("batch at statement %d: undecodable response", ex.first))
				continue
			}
		}
		for i, sql := range ex.sqls {
			var got served
			if err := json.Unmarshal(items[i], &got); err != nil || got.Error != "" {
				// Already counted as failed by the recorder when the answer
				// marker was missing; nothing to compare.
				continue
			}
			want, ok := memo[sql]
			if !ok {
				res, err := ref.Query(sql)
				if err != nil {
					return 0, nil, acc, fmt.Errorf("reference engine rejects generated statement %q: %w", sql, err)
				}
				want = answer{res.Plan.Explain(), res.Plan.EstimatedSec, res.ActualSec}
				memo[sql] = want
			}
			if got.Explain != want.explain || got.EstimatedSec != want.est || got.ActualSec != want.act {
				wrong++
				if len(notes) < 5 {
					notes = append(notes, fmt.Sprintf("%s: served estimate %v actual %v, reference %v / %v",
						sql, got.EstimatedSec, got.ActualSec, want.est, want.act))
				}
			}
			if ex.first+i < sampleStmts && got.EstimatedSec > 0 && got.ActualSec > 0 {
				qsum += math.Max(got.EstimatedSec/got.ActualSec, got.ActualSec/got.EstimatedSec)
				asum += got.ActualSec
				acc.sample++
			}
		}
	}
	if acc.sample > 0 {
		acc.qerrorMean = qsum / float64(acc.sample)
		acc.actualSecMean = asum / float64(acc.sample)
	}
	return wrong, notes, acc, nil
}
