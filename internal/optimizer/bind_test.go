package optimizer_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"intellisphere/internal/sqlparse"
)

// TestBoundStatementPins maps statements over the demo catalog to their exact
// EXPLAIN text, or to their exact error, and pins each plan's estimate and
// output shape with every digit (exact: EstimatedSec, OutputRows,
// OutputRowSize). The rows reach each way binding can fail and each
// selectivity branch — every comparison operator, a sum with the constant
// column z, a cross-table predicate priced with the join key's NDV — plus
// star and duplicate projections, GROUP BY before and after a join, a
// three-join chain whose last join probes the first table, CROSS JOIN, ORDER
// BY / LIMIT and degraded re-planning. exclude lists the systems a row plans
// without.
func TestBoundStatementPins(t *testing.T) {
	opt := demoOptimizer(t)
	for _, tc := range []struct {
		sql, exclude, exact, want string
	}{
		{sql: "SELECT a1 FROM nope", want: "catalog: unknown table \"nope\""},
		{sql: "SELECT r.a1 FROM t10000_100 r JOIN t100000_100 r ON r.a1 = r.a1", want: "optimizer: duplicate table binding \"r\""},
		{sql: "SELECT x.a1 FROM t10000_100 r", want: "optimizer: unknown table binding \"x\""},
		{sql: "SELECT a1 FROM t10000_100 r JOIN t100000_100 s ON r.a1 = s.a1", want: "optimizer: ambiguous column \"a1\""},
		{sql: "SELECT r.nope FROM t10000_100 r", want: "optimizer: table \"t10000_100\" has no column \"nope\""},
		{sql: "SELECT SUM(r.nope) FROM t10000_100 r", want: "optimizer: table \"t10000_100\" has no column \"nope\""},
		{sql: "SELECT r.a1 FROM t10000_100 r JOIN t100000_100 s ON r.a1 = s.nope", want: "optimizer: table \"t100000_100\" has no column \"nope\""},
		{sql: "SELECT a1 FROM t10000_100 WHERE nope < 5", want: "optimizer: unknown column \"nope\""},
		{sql: "SELECT a1, COUNT(*) FROM t10000_100 GROUP BY nope", want: "optimizer: unknown column \"nope\""},
		{sql: "SELECT r.a1 FROM t10000_100 r JOIN t100000_100 s ON r.a1 = r.a2", want: "optimizer: join 1 condition r.a1 = r.a2 must link \"s\" to an earlier table"},
		{sql: "SELECT r.a1 FROM t10000_100 r JOIN events s ON r.a1 = s.a1", exclude: "hive,spark", want: "optimizer: table \"t10000_100\" is unreachable: owner \"hive\" and every replica excluded"},
		{sql: "SELECT a1 FROM t1000000_100 WHERE a1 = 5", exact: "0.9067711811674143 1 4", want: `plan (estimated 0.91s):
  1. transfer 1 rows × 100 B  hive → teradata  (0.50s)
  2. scan on teradata (0.41s)
rejected alternatives:
  - scan on spark (2.29s)
  - scan on hive (4.90s)
`},
		{sql: "SELECT a1 FROM t1000000_100 WHERE a1 <> 5", exact: "2.189868679552859 999999 4", want: `plan (estimated 2.19s):
  1. transfer 999999 rows × 100 B  hive → teradata  (1.50s)
  2. scan on teradata (0.69s)
rejected alternatives:
  - scan on spark (3.02s)
  - scan on hive (6.07s)
`},
		{sql: "SELECT a1 FROM t1000000_100 WHERE a1 < 400000", exact: "1.420009923901579 400000 4", want: `plan (estimated 1.42s):
  1. transfer 400000 rows × 100 B  hive → teradata  (0.90s)
  2. scan on teradata (0.52s)
rejected alternatives:
  - scan on spark (2.58s)
  - scan on hive (5.37s)
`},
		{sql: "SELECT a1 FROM t1000000_100 WHERE a1 <= 400000", exact: "1.420009923901579 400000 4", want: `plan (estimated 1.42s):
  1. transfer 400000 rows × 100 B  hive → teradata  (0.90s)
  2. scan on teradata (0.52s)
rejected alternatives:
  - scan on spark (2.58s)
  - scan on hive (5.37s)
`},
		{sql: "SELECT a1 FROM t1000000_100 WHERE a1 > 400000", exact: "1.6766299368186939 600000 4", want: `plan (estimated 1.68s):
  1. transfer 600000 rows × 100 B  hive → teradata  (1.10s)
  2. scan on teradata (0.58s)
rejected alternatives:
  - scan on spark (2.73s)
  - scan on hive (5.61s)
`},
		{sql: "SELECT a1 FROM t1000000_100 WHERE a1 >= 400000", exact: "1.6766299368186939 600000 4", want: `plan (estimated 1.68s):
  1. transfer 600000 rows × 100 B  hive → teradata  (1.10s)
  2. scan on teradata (0.58s)
rejected alternatives:
  - scan on spark (2.73s)
  - scan on hive (5.61s)
`},
		{sql: "SELECT a1, a1, a5 FROM t1000000_100 WHERE a5 + z < 1000 AND a2 < 400000", exact: "0.9120479141251921 4000 8", want: `plan (estimated 0.91s):
  1. transfer 4000 rows × 100 B  hive → teradata  (0.50s)
  2. scan on teradata (0.41s)
rejected alternatives:
  - scan on spark (2.29s)
  - scan on hive (4.91s)
`},
		{sql: "SELECT * FROM t10000_100 WHERE a5 < 100", exact: "0.5559334241238911 500 100", want: `plan (estimated 0.56s):
  1. transfer 500 rows × 100 B  hive → teradata  (0.50s)
  2. scan on teradata (0.06s)
rejected alternatives:
  - scan on spark (1.36s)
  - scan on hive (3.67s)
`},
		{sql: "SELECT COUNT(*) FROM t1000000_100", exact: "2.603790830390011 1 8", want: `plan (estimated 2.60s):
  1. transfer 1000000 rows × 100 B  hive → teradata  (1.50s)
  2. aggregation on teradata (1.10s)
rejected alternatives:
  - aggregation on spark (6.17s)
  - aggregation on hive (12.28s)
`},
		{sql: "SELECT a100, a10, SUM(a1), COUNT(*) FROM t1000000_100 WHERE a2 < 17 GROUP BY a100, a10", exact: "0.5472160319298354 34 24", want: `plan (estimated 0.55s):
  1. transfer 34 rows × 100 B  hive → teradata  (0.50s)
  2. aggregation on teradata (0.05s)
rejected alternatives:
  - aggregation on spark (1.35s)
  - aggregation on hive (3.66s)
`},
		{sql: "SELECT a1 FROM t10000_100 ORDER BY a1 DESC LIMIT 3", exact: "0.6407451758243508 3 4", want: `plan (estimated 0.64s):
  1. transfer 10000 rows × 100 B  hive → teradata  (0.51s)
  2. scan on teradata (0.06s)
  3. sort 10000 rows on teradata (0.07s)
rejected alternatives:
  - scan on spark (1.37s)
  - scan on hive (3.68s)
`},
		{sql: "SELECT r.a1, s.a2 FROM t10000000_100 r JOIN events s ON r.a1 = s.a1 WHERE r.a10 < 40123", exact: "4.4775435678241235 401230 8", want: `plan (estimated 4.48s):
  1. transfer 401230 rows × 100 B  hive → teradata  (0.90s)
  2. transfer 2000000 rows × 100 B  spark → teradata  (2.50s)
  3. join on teradata via hive.shuffle_join (1.08s)
rejected alternatives:
  - join 1 on spark (8.35s)
  - join 1 on hive (17.58s)
`},
		{sql: "SELECT r.a1, s.a2 FROM t10000000_100 r JOIN events s ON s.a1 = r.a1 WHERE r.a10 < 40123", exact: "4.4775435678241235 401230 8", want: `plan (estimated 4.48s):
  1. transfer 401230 rows × 100 B  hive → teradata  (0.90s)
  2. transfer 2000000 rows × 100 B  spark → teradata  (2.50s)
  3. join on teradata via hive.shuffle_join (1.08s)
rejected alternatives:
  - join 1 on spark (8.35s)
  - join 1 on hive (17.58s)
`},
		{sql: "SELECT r.a1, s.a2 FROM t10000000_100 r JOIN events s ON r.a1 = s.a1 WHERE r.a10 < 40123", exclude: "spark", exact: "4.4775435678241235 401230 8", want: `degraded plan (excluded: spark)
plan (estimated 4.48s):
  1. transfer 401230 rows × 100 B  hive → teradata  (0.90s)
  2. transfer 2000000 rows × 100 B  hive → teradata  (2.50s)
  3. join on teradata via hive.shuffle_join (1.08s)
rejected alternatives:
  - join 1 on hive (17.58s)
`},
		{sql: "SELECT r.a1, s.a2 FROM t10000_100 r JOIN t100000_100 s ON r.a1 = s.a1 WHERE r.a2 + s.a5 < 1000", exact: "1.2391368082848826 1000 8", want: `plan (estimated 1.24s):
  1. transfer 10000 rows × 100 B  hive → teradata  (0.51s)
  2. transfer 100000 rows × 100 B  hive → teradata  (0.60s)
  3. join on teradata via hive.shuffle_join (0.13s)
rejected alternatives:
  - join 1 on spark (1.68s)
  - join 1 on hive (4.30s)
`},
		{sql: "SELECT r.a1 FROM t10000_100 r CROSS JOIN dim_local s", exact: "339.2120382445976 5e+08 8", want: `plan (estimated 339.21s):
  1. transfer 10000 rows × 100 B  hive → teradata  (0.51s)
  2. join on teradata via hive.shuffle_join (338.70s)
rejected alternatives:
  - join 1 on spark (517.67s)
  - join 1 on hive (3458.44s)
`},
		{sql: "SELECT s.a100, SUM(r.a1), COUNT(*) FROM t1000000_100 r JOIN events s ON r.a5 = s.a5 GROUP BY s.a100", exact: "10.578558853465971 20000 20", want: `plan (estimated 10.58s):
  1. transfer 1000000 rows × 100 B  hive → teradata  (1.50s)
  2. transfer 2000000 rows × 100 B  spark → teradata  (2.50s)
  3. join on teradata via hive.shuffle_join (4.29s)
  4. aggregation on teradata (2.28s)
rejected alternatives:
  - join 1 on spark (42.24s)
  - join 1 on hive (86.55s)
`},
		{sql: "SELECT r.a1, s.a2, u.a1, w.a1 FROM t10000000_100 r JOIN events s ON r.a1 = s.a1 JOIN warehouse u ON u.a1 = s.a1 JOIN users w ON w.a1 = r.a1 WHERE r.a10 < 1000", exact: "8.336430078337973 10000 16", want: `plan (estimated 8.34s):
  1. join on spark via spark.broadcast_hash_join (2.59s)
  2. transfer 10000 rows × 8 B  spark → presto  (1.01s)
  3. join on presto via presto.replicated_join (3.33s)
  4. transfer 10000 rows × 12 B  presto → teradata  (0.50s)
  5. transfer 200000 rows × 100 B  spark → teradata  (0.70s)
  6. join on teradata via hive.shuffle_join (0.21s)
rejected alternatives:
  - join 1 on teradata (3.79s)
  - join 1 on hive (6.31s)
  - join 3 on presto (9.54s)
  - join 3 on spark (9.75s)
  - join 2 on hive (11.48s)
  - join 3 on hive (12.47s)
  - join 2 on teradata (15.88s)
  - join 2 on spark (29.17s)
`},
		{sql: "SELECT r.a1, s.a2, u.a1 FROM t10000000_100 r JOIN events s ON r.a1 = s.a1 JOIN warehouse u ON u.a1 = s.a1 WHERE r.a1 + u.a2 < 1000 ORDER BY r.a1", exact: "28.021323561252107 1000 12", want: `plan (estimated 28.02s):
  1. transfer 10000000 rows × 100 B  hive → teradata  (10.50s)
  2. transfer 2000000 rows × 100 B  spark → teradata  (2.50s)
  3. join on teradata via hive.shuffle_join (4.24s)
  4. transfer 2000000 rows × 8 B  teradata → presto  (1.03s)
  5. join on presto via presto.partitioned_join (9.20s)
  6. transfer 1000 rows × 12 B  presto → teradata  (0.50s)
  7. sort 1000 rows on teradata (0.05s)
rejected alternatives:
  - join 1 on spark (22.73s)
  - join 2 on teradata (30.80s)
  - join 2 on hive (40.99s)
  - join 1 on hive (46.71s)
`},
	} {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		var exclude map[string]bool
		if tc.exclude != "" {
			exclude = map[string]bool{}
			for _, s := range strings.Split(tc.exclude, ",") {
				exclude[s] = true
			}
		}
		p, err := opt.PlanExcludingCtx(context.Background(), stmt, exclude)
		if tc.exact == "" {
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: error %v, want %q", tc.sql, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.sql, err)
			continue
		}
		if got := p.Explain(); got != tc.want {
			t.Errorf("%s: EXPLAIN\n%s\nwant\n%s", tc.sql, got, tc.want)
		}
		if got := fmt.Sprint(p.EstimatedSec, " ", p.OutputRows, " ", p.OutputRowSize); got != tc.exact {
			t.Errorf("%s: estimate and output %s, want %s", tc.sql, got, tc.exact)
		}
	}
}
