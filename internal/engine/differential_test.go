package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"intellisphere/internal/datagen"
	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
	"intellisphere/internal/nn"
	"intellisphere/internal/querygrid"
)

// TestCachedAnswersMatchUncached is the cached-vs-uncached-vs-recovered leg
// of the differential planning oracle: one generated stream — the demo
// statements and the blackbox flink remote's with varied literals, each
// distinct statement sent once, twice or several times at random distances,
// catalog, link and model mutations interleaved — goes through a default
// engine and through one with caching disabled, and every answer must match:
// the rendered plan byte for byte, the estimate and the simulated actual bit
// for bit. The cache may only ever skip work; admission, residency and a plan
// gone stale in place must never show in an answer. The model mutations are a
// forced TuneCandidate and a RollbackModel on flink; both engines executed
// the same statements, so their logs and candidates are the same. The cached
// engine logs every mutation to a data directory, and at the end a freshly
// built federation recovered from it must Explain every statement of the pool
// byte-identically.
func TestCachedAnswersMatchUncached(t *testing.T) {
	build := func(cacheSize int) *engine.Engine {
		e, err := demo.Build(demo.Config{Seed: 1, PlanCacheSize: cacheSize, LogicalRemote: true})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cached, uncached := build(0), build(-1)
	dir := t.TempDir()
	dur, _, err := engine.OpenDurability(cached, engine.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(24))
	var pool []string
	for _, sql := range append(demo.Statements(),
		"SELECT t500000_250.a1 FROM t500000_250 JOIN t80000000_500 ON t500000_250.a1 = t80000000_500.a1",
		"SELECT a1 FROM t500000_250 WHERE a1 < 100000",
	) {
		pool = append(pool, sql)
		for i := 0; i < 100; i++ {
			pool = append(pool, withLiteral(sql, 100+rng.Intn(900000)))
		}
	}
	// Only a step executed on flink logs to its models, the log TuneCandidate
	// retrains from, and flink's aggregation stays on flink only while the
	// filter keeps most of its 80M rows.
	const flinkAgg = "SELECT a10, SUM(a1) FROM t80000000_500 GROUP BY a10"
	pool = append(pool, flinkAgg)
	for i := 0; i < 100; i++ {
		pool = append(pool, withLiteral(flinkAgg, 40000000+rng.Intn(40000000)))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	slow := querygrid.DefaultLink()
	slow.BandwidthBytesPerSec /= 8
	tune := engine.TuneOptions{Holdout: 1, MinLog: 1, Force: true,
		Train: nn.TrainConfig{Iterations: 20, BatchSize: 32, Seed: 5}}
	var tunes, rollbacks int
	mutate := func(step int) {
		for _, e := range []*engine.Engine{cached, uncached} {
			var err error
			switch system := []string{"hive", "spark", "presto"}[step%3]; step % 6 {
			case 0, 2:
				err = e.SetLink(system, slow)
			case 1:
				err = e.SetLink(system, querygrid.DefaultLink())
			case 3:
				tb, terr := datagen.Table(int64(20000+step), 100, system)
				if terr != nil {
					t.Fatal(terr)
				}
				tb.Name = fmt.Sprintf("differential_%d", step)
				err = e.RegisterTable(tb)
			case 4:
				var out *engine.TuneOutcome
				if out, err = e.TuneCandidate(context.Background(), "flink", tune); err == nil && !out.Promoted {
					err = fmt.Errorf("forced tune not promoted: %+v", out)
				}
				tunes++
			case 5:
				_, err = e.RollbackModel("flink")
				rollbacks++
			}
			if err != nil {
				t.Fatalf("mutation %d: %v", step, err)
			}
		}
	}

	sightings := map[string]int{}
	for i, mutations := 0, 0; i < 1500; i++ {
		if i%60 == 59 {
			mutate(mutations)
			mutations++
		}
		// Cubing skews the draw: the head of the pool recurs every few
		// statements, the tail is seen once or twice in the whole stream.
		u := rng.Float64()
		sql := pool[int(u*u*u*float64(len(pool)))]
		sightings[sql]++
		got, err := cached.Query(sql)
		if err != nil {
			t.Fatalf("statement %d (%q): %v", i, sql, err)
		}
		want, err := uncached.Query(sql)
		if err != nil {
			t.Fatalf("statement %d (%q), uncached: %v", i, sql, err)
		}
		if got.Plan.Explain() != want.Plan.Explain() || got.Plan.EstimatedSec != want.Plan.EstimatedSec || got.ActualSec != want.ActualSec {
			t.Fatalf("statement %d (%q, sighting %d, cache hit %v):\ncached   %v / %v\n%s\nuncached %v / %v\n%s", i, sql, sightings[sql], got.CacheHit,
				got.Plan.EstimatedSec, got.ActualSec, got.Plan.Explain(), want.Plan.EstimatedSec, want.ActualSec, want.Plan.Explain())
		}
		if (got.Rows == nil) != (want.Rows == nil) || got.Rows != nil && len(got.Rows.Rows) != len(want.Rows.Rows) {
			t.Fatalf("statement %d (%q): rows differ", i, sql)
		}
	}
	var counts [4]int // distinct statements seen once, twice, three times, more
	for _, n := range sightings {
		counts[min(n, 4)-1]++
	}
	s := cached.PlanCacheStats()
	t.Logf("statements by sightings (1, 2, 3, more) %v, cache %+v, %d tunes and %d rollbacks per engine", counts, s, tunes/2, rollbacks/2)
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 || counts[3] == 0 || s.Hits == 0 || s.Stale == 0 || s.Size == 0 || tunes == 0 || rollbacks == 0 {
		t.Errorf("the stream missed a case: statements by sightings (1, 2, 3, more) %v, cache %+v, %d tunes, %d rollbacks", counts, s, tunes, rollbacks)
	}

	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := build(0)
	rdur, _, err := engine.OpenDurability(recovered, engine.DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rdur.Close()
	for _, sql := range pool {
		want, err := cached.Explain(sql)
		if err != nil {
			t.Fatalf("Explain %q: %v", sql, err)
		}
		got, err := recovered.Explain(sql)
		if err != nil {
			t.Fatalf("Explain %q after recovery: %v", sql, err)
		}
		if got != want {
			t.Fatalf("Explain %q diverged after recovery:\nnever killed:\n%s\nrecovered:\n%s", sql, want, got)
		}
	}
}

// withLiteral respells a demo statement with its own WHERE literal: a
// statement the engines have not seen, of the same shape.
func withLiteral(sql string, n int) string {
	if head, _, ok := strings.Cut(sql, " < "); ok { // the literal ends the statement
		return fmt.Sprintf("%s < %d", head, n)
	}
	col := "a1"
	if strings.Contains(sql, " JOIN ") {
		col = sql[len("SELECT "):strings.Index(sql, " FROM ")] // the qualified select item
	}
	head, tail, _ := strings.Cut(sql, " GROUP BY ")
	if tail != "" {
		tail = " GROUP BY " + tail
	}
	return fmt.Sprintf("%s WHERE %s < %d%s", head, col, n, tail)
}
