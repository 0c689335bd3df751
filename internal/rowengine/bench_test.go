package rowengine

import (
	"testing"

	"intellisphere/internal/sqlparse"
)

var benchSink *Result

// BenchmarkExecute times the benchmark's two local statement shapes (bench/mix
// buildLocal) and one join no ledger row reaches.
func BenchmarkExecute(b *testing.B) {
	small, err := Materialize("t10000_100", 10000)
	if err != nil {
		b.Fatal(err)
	}
	big, err := Materialize("t100000_100", 100000)
	if err != nil {
		b.Fatal(err)
	}
	ts := map[string]*Table{small.Name: small, big.Name: big}
	for _, bc := range []struct{ name, sql string }{
		{"scan", "SELECT a1 FROM t10000_100 WHERE a1 < 100"},
		{"group", "SELECT a100, COUNT(*) FROM t10000_100 WHERE a1 < 2500 GROUP BY a100"},
		{"join", "SELECT r.a100, COUNT(*) FROM t10000_100 r JOIN t100000_100 s ON r.a1 = s.a1 WHERE s.a2 < 2000 GROUP BY r.a100"},
	} {
		stmt, err := sqlparse.Parse(bc.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchSink, err = Execute(stmt, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
