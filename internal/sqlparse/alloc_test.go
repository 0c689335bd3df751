package sqlparse

import "testing"

// TestParseAllocs pins what parsing one statement of each serving template
// allocates: the statement, its clause slices, one ColRef per column term
// and the canonical text — tokens are substrings or constants and cost
// nothing. The budgets sit about 20 % above the counts at the time of
// writing (7, 12 and 8; the rune-slice lexer and fmt renderer took 36, 66
// and 73).
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		sql    string
		budget float64
	}{
		{"SELECT a1, a5 FROM t1000000_100 WHERE a5 < 1234", 9},
		{"SELECT a100, SUM(a1), COUNT(*) FROM t10000_250 WHERE a2 < 17 GROUP BY a100", 15},
		{"SELECT r.a1, s.a2 FROM t80000000_250 r JOIN events s ON r.a1 = s.a1 WHERE r.a10 < 40123", 10},
	} {
		if _, err := Parse(tc.sql); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() { Parse(tc.sql) }); allocs > tc.budget {
			t.Errorf("Parse(%q) allocates %.1f times, budget %.0f", tc.sql, allocs, tc.budget)
		}
	}
}
