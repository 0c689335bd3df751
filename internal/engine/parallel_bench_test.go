package engine

import (
	"testing"

	"intellisphere/internal/cluster"
	"intellisphere/internal/core/subop"
	"intellisphere/internal/datagen"
	"intellisphere/internal/remote"
)

// The parallel suite measures how the warm serving path scales across cores:
// run it with `go test -bench Parallel -cpu 1,2,4,8` (scripts/bench_snapshot.sh
// records the sweep into the BENCH_PR*.json trajectory with scaling ratios).
// Each benchmark is the RunParallel analogue of its single-goroutine
// counterpart — same fixture, same statements — so ns/op at -cpu 1 is
// directly comparable to the serial numbers, and throughput at -cpu N shows
// whether a shared-write bottleneck survives on the hot path.

// parallelBenchEngine is the BenchmarkExplain fixture: a hive remote with
// sub-op models and three tables, plan cache enabled.
func parallelBenchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := New(Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{NoiseAmp: 0.01, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := e.RegisterRemoteSubOp(h, remote.EngineHive, subop.InHouseComparable); err != nil {
		b.Fatal(err)
	}
	for _, spec := range []ts{{1000000, 100}, {100000, 100}, {10000000, 250}, {10000, 100}, {1000000, 250}} {
		tb, err := datagen.Table(spec.rows, spec.size, "hive")
		if err != nil {
			b.Fatal(err)
		}
		if err := e.RegisterTable(tb); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkExplainParallel is BenchmarkExplain/cached under RunParallel:
// every iteration is a warm plan-cache hit (statement cache + sharded plan
// cache + Explain memo), the purest read-path contention probe.
func BenchmarkExplainParallel(b *testing.B) {
	e := parallelBenchEngine(b)
	const sql = "SELECT r.a1 FROM t10000000_250 r JOIN t100000_100 s ON r.a1 = s.a1 JOIN t1000000_100 u ON s.a1 = u.a1 WHERE r.a1 < 500000 ORDER BY r.a1 LIMIT 10"
	if _, err := e.Explain(sql); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Explain(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryParallel executes a rotating warm statement mix end to end —
// plan-cache hit, simulated remote execution, breaker bookkeeping,
// accuracy recording, feedback enqueue, stage histograms — the full /query
// serving path per iteration.
func BenchmarkQueryParallel(b *testing.B) {
	e := parallelBenchEngine(b)
	for _, sql := range batchSQLs { // warm every statement's plan
		if _, err := e.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := e.Query(batchSQLs[i%len(batchSQLs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
