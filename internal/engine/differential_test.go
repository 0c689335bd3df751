package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"intellisphere/internal/datagen"
	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
	"intellisphere/internal/querygrid"
)

// TestCachedAnswersMatchUncached is the cached-vs-uncached leg of the
// differential planning oracle: one generated stream — the demo statements
// with varied literals, each distinct statement sent once, twice or several
// times at random distances, catalog and link mutations interleaved — goes
// through a default engine and through one with caching disabled, and every
// answer must match: the rendered plan byte for byte, the estimate and the
// simulated actual bit for bit. The cache may only ever skip work; admission,
// residency and a plan gone stale in place must never show in an answer.
func TestCachedAnswersMatchUncached(t *testing.T) {
	build := func(cacheSize int) *engine.Engine {
		e, err := demo.Build(demo.Config{Seed: 1, PlanCacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cached, uncached := build(0), build(-1)

	rng := rand.New(rand.NewSource(24))
	var pool []string
	for _, sql := range demo.Statements() {
		pool = append(pool, sql)
		for i := 0; i < 100; i++ {
			pool = append(pool, withLiteral(sql, 100+rng.Intn(900000)))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	slow := querygrid.DefaultLink()
	slow.BandwidthBytesPerSec /= 8
	mutate := func(step int) {
		for _, e := range []*engine.Engine{cached, uncached} {
			var err error
			switch system := []string{"hive", "spark", "presto"}[step%3]; step % 4 {
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
	t.Logf("statements by sightings (1, 2, 3, more) %v, cache %+v", counts, s)
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 || counts[3] == 0 || s.Hits == 0 || s.Stale == 0 || s.Size == 0 {
		t.Errorf("the stream missed a case: statements by sightings (1, 2, 3, more) %v, cache %+v", counts, s)
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
