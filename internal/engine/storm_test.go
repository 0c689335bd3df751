package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intellisphere/internal/datagen"
	"intellisphere/internal/nn"
	"intellisphere/internal/querygrid"
)

// TestPlanCacheGenerationStorm is the statement cache's torture test: reader
// goroutines hammer warm Explain while a mutator loops RegisterTable /
// SetLink and one model change — a re-install of the live estimator, a forced
// TuneCandidate or a RollbackModel, each a registry swap — every one of which
// advances the epoch. Under -race this exercises the statement cache and the
// stamped plan swapped in place by racing re-plans against concurrent
// invalidation.
//
// The oracle reads Optimizer.Epoch — the very counter the engine stamps
// plans with, not a re-derivation of it — so two equal reads bracket an
// interval in which nothing that prices a plan changed. Staleness is asserted
// two ways, both sound against the engine's mutate-then-bump ordering:
//   - any Explain observed entirely at the final epoch (the bracketing reads
//     both equal it) must render byte-identically to a from-scratch replan
//     of the final state;
//   - after the storm, moving the epoch with nothing changed — invalidation
//     the way production does it — and replanning must reproduce the cached
//     renders exactly: a stale survivor would differ.
//
// Counter reconciliation closes the books: every Explain/Query is exactly
// one hit or one miss, so hits+misses must equal the number of calls.
func TestPlanCacheGenerationStorm(t *testing.T) {
	e := newEngine(t)
	registerLogicalHive(t, e)

	statements := []string{
		"SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10",
		"SELECT r.a1 FROM t80000000_500 r JOIN t100000_100 s ON r.a1 = s.a1",
		"SELECT a1 FROM t40000_250 WHERE a1 < 1000",
	}

	var lookups atomic.Uint64
	// reinstall moves the epoch with nothing changed, the way every model
	// change moves it: a registry swap.
	reinstall := func() {
		live, err := e.Estimator("hivebb")
		if err != nil {
			t.Error(err)
			return
		}
		e.installEstimator("hivebb", live)
	}
	// Seed the execution log so the mutator's TuneCandidate passes have
	// records to retrain from.
	for _, sql := range statements {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
		lookups.Add(1)
	}

	type obs struct {
		sql, out string
		gen      uint64 // the epoch before and after, which were equal
	}
	const readers = 8
	const explainsPerReader = 150
	// Readers run at least explainsPerReader iterations and keep going until
	// the mutator is done plus a short tail, so some observations are always
	// bracketed at the final generation even when -race slows the mutator.
	// The bound on that wait is wall-clock: a count of warm Explains stopped
	// bounding anything once 100000 of them took less time than one retrain.
	deadline := time.Now().Add(time.Minute)
	mutatorDone := make(chan struct{})
	results := make([][]obs, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]obs, 0, explainsPerReader)
			tail := -1
			for i := 0; ; i++ {
				if i >= explainsPerReader {
					if tail < 0 {
						select {
						case <-mutatorDone:
							tail = i + 10
						default:
						}
					} else if i >= tail {
						break
					}
					if time.Now().After(deadline) {
						t.Error("reader never saw the mutator finish")
						return
					}
				}
				sql := statements[(g+i)%len(statements)]
				g1 := e.opt.Epoch()
				out, err := e.Explain(sql)
				lookups.Add(1)
				if err != nil {
					t.Errorf("Explain under storm: %v", err)
					return
				}
				if out == "" {
					t.Error("empty Explain under storm")
					return
				}
				if g2 := e.opt.Epoch(); g1 == g2 {
					buf = append(buf, obs{sql: sql, out: out, gen: g1})
				}
			}
			results[g] = buf
		}(g)
	}

	// The mutator: every step advances the epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(mutatorDone)
		slow := querygrid.DefaultLink()
		slow.BandwidthBytesPerSec /= 4 // cheaper shipping vs default: plans re-cost
		tune := nn.TrainConfig{Iterations: 20, BatchSize: 32, Seed: 5}
		for i := 0; i < 6; i++ {
			tb, err := datagen.Table(int64(10000+i), 40, "hivebb")
			if err != nil {
				t.Errorf("storm table: %v", err)
				return
			}
			tb.Name = fmt.Sprintf("storm_%d", i)
			if err := e.RegisterTable(tb); err != nil {
				t.Errorf("storm RegisterTable: %v", err)
				return
			}
			link := querygrid.DefaultLink()
			if i%2 == 0 {
				link = slow
			}
			if err := e.SetLink("hivebb", link); err != nil {
				t.Errorf("storm SetLink: %v", err)
				return
			}
			// Feed the aggregation model's log for the tunes below.
			for q := 0; q < 2; q++ {
				if _, err := e.Query(statements[0]); err != nil {
					t.Errorf("storm Query: %v", err)
					return
				}
				lookups.Add(1)
			}
			switch i % 3 {
			case 0:
				// Swap the live estimator for itself.
				reinstall()
			case 1:
				// Retrain a clone from the log and swap it in.
				out, err := e.TuneCandidate(context.Background(), "hivebb", TuneOptions{Holdout: 1, MinLog: 1, Force: true, Train: tune})
				if err != nil || !out.Promoted {
					t.Errorf("storm TuneCandidate: %+v, %v", out, err)
					return
				}
			case 2:
				// Swap the previous version back in.
				if _, err := e.RollbackModel("hivebb"); err != nil {
					t.Errorf("storm RollbackModel: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Quiescent check: cached renders vs a from-scratch replan of every entry.
	finalGen := e.opt.Epoch()
	fresh := make(map[string]string, len(statements))
	cached := make(map[string]string, len(statements))
	for _, sql := range statements {
		out, err := e.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		lookups.Add(1)
		cached[sql] = out
	}
	stale := e.PlanCacheStats().Stale
	reinstall()
	for _, sql := range statements {
		out, err := e.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		lookups.Add(1)
		fresh[sql] = out
		if cached[sql] != out {
			t.Errorf("stale plan served for %q after storm:\ncached:\n%s\nfresh:\n%s", sql, cached[sql], out)
		}
	}
	if got := e.PlanCacheStats().Stale - stale; got != uint64(len(statements)) {
		t.Errorf("%d of %d statements were re-planned after the epoch moved", got, len(statements))
	}
	if g := e.opt.Epoch(); g != finalGen+1 {
		t.Fatalf("epoch moved after storm: %d -> %d", finalGen, g)
	}

	// Live check: every observation bracketed at the final epoch must
	// match the final render. The mutator finished before the slowest
	// readers, so a healthy run has many such observations.
	atFinal := 0
	for _, buf := range results {
		for _, o := range buf {
			if o.gen != finalGen {
				continue
			}
			atFinal++
			if o.out != fresh[o.sql] {
				t.Errorf("stale plan served at final generation for %q", o.sql)
			}
		}
	}
	t.Logf("observations at final generation: %d", atFinal)
	if atFinal == 0 {
		t.Error("no observations bracketed at the final generation — live staleness check had no coverage")
	}

	s := e.PlanCacheStats()
	if s.Hits+s.Misses != lookups.Load() {
		t.Errorf("counters do not reconcile: hits %d + misses %d != lookups %d",
			s.Hits, s.Misses, lookups.Load())
	}
	if s.Stale == 0 {
		t.Error("storm produced no stale lookups — invalidation untested")
	}
}
