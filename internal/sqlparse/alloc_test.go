package sqlparse

import "testing"

// TestParseAllocs pins what parsing one statement of each serving template
// allocates: the statement alone, whose inline backing holds its clause
// slices, expression terms and their column references — tokens are
// substrings or constants and cost nothing, and the canonical text is
// rendered when String is called, not here. The count at the time of writing
// is 1 for each template, which is also the budget: there is nothing left to
// take 20 % of. ParseInto into a statement the caller recycles takes none,
// and its budget is 0. Before the backing, the clause slices, terms and column
// references took 6, 11 and 7 (the three select items of the second growing
// Items three times); one more each while Parse rendered the text; the
// rune-slice lexer and fmt renderer took 36, 66 and 73.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		sql    string
		budget float64
	}{
		{"SELECT a1, a5 FROM t1000000_100 WHERE a5 < 1234", 1},
		{"SELECT a100, SUM(a1), COUNT(*) FROM t10000_250 WHERE a2 < 17 GROUP BY a100", 1},
		{"SELECT r.a1, s.a2 FROM t80000000_250 r JOIN events s ON r.a1 = s.a1 WHERE r.a10 < 40123", 1},
	} {
		if _, err := Parse(tc.sql); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() { Parse(tc.sql) }); allocs > tc.budget {
			t.Errorf("Parse(%q) allocates %.1f times, budget %.0f", tc.sql, allocs, tc.budget)
		}
		var dst SelectStmt
		if allocs := testing.AllocsPerRun(200, func() { ParseInto(&dst, tc.sql) }); allocs > 0 {
			t.Errorf("ParseInto(%q) allocates %.1f times, budget 0", tc.sql, allocs)
		}
	}
}
