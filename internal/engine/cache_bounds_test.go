package engine

import (
	"fmt"
	"testing"

	"intellisphere/internal/obs"
)

// resident sends each statement until it is in the cache — twice: the cache
// admits on second sight — and fails the test if the sighting after that is
// not a hit.
func resident(t *testing.T, e *Engine, sqls ...string) {
	t.Helper()
	for _, sql := range sqls {
		for sighting := 1; sighting <= 3; sighting++ {
			res, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit != (sighting == 3) {
				t.Fatalf("sighting %d of %q: CacheHit = %v", sighting, sql, res.CacheHit)
			}
		}
	}
}

func floodSQL(i int) string {
	return fmt.Sprintf("SELECT a1 FROM t100000_100 WHERE a1 < %d", i+1)
}

// TestDistinctStatementFloodStaysBounded floods a default-config engine with
// statements it has never seen. 10 000 sent once each allocate no entry at
// all; 10 000 more sent twice each are all admitted, and the cache must stay
// at its ceiling (256 statements) throughout. Every statement must be exactly
// one hit or one miss, and the parse histogram must count exactly the
// statements that were not resident (the benchmark derives the
// statement-cache hit ratio from that count).
func TestDistinctStatementFloodStaysBounded(t *testing.T) {
	e := batchFixture(t)
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := e.Query(floodSQL(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.PlanCacheStats(); s.Size != 0 || s.Evicted != 0 || s.Hits != 0 || s.Misses != n {
		t.Fatalf("after %d statements sent once: %+v, want nothing resident and %d misses", n, s, n)
	}
	for i := n; i < 2*n; i++ {
		for sighting := 1; sighting <= 2; sighting++ {
			if _, err := e.Query(floodSQL(i)); err != nil {
				t.Fatal(err)
			}
		}
		if s := e.stmts.Stats(); s.Size > s.Capacity {
			t.Fatalf("after the second sighting of statement %d: %d resident, capacity %d", i, s.Size, s.Capacity)
		}
	}
	// A few repeats of the newest statements, so hits are counted too (few
	// enough to still be resident if the whole flood fell into one shard).
	const repeats = 8
	for i := 2*n - repeats; i < 2*n; i++ {
		res, err := e.Query(floodSQL(i))
		if err != nil || !res.CacheHit {
			t.Fatalf("repeat of statement %d: hit=%v err=%v", i, res != nil && res.CacheHit, err)
		}
	}
	st := e.Stats()
	s := st.PlanCache
	if s.Capacity != 256 || s.Size != s.Capacity {
		t.Errorf("%d statements resident of a capacity of %d, want 256 of 256", s.Size, s.Capacity)
	}
	if s.Hits != repeats || s.Misses != 3*n || s.Stale != 0 {
		t.Errorf("%d hits + %d misses (%d stale), want %d + %d (0)", s.Hits, s.Misses, s.Stale, repeats, 3*n)
	}
	if admitted := s.Evicted + uint64(s.Size); admitted != n {
		t.Errorf("%d of the %d statements sent twice were admitted", admitted, n)
	}
	if st.Parse.Count != s.Misses {
		t.Errorf("parse histogram counted %d, %d statements were not resident", st.Parse.Count, s.Misses)
	}
}

// workingStmt is the i-th statement of one shape, each with its own literal.
func workingStmt(i int) string {
	return fmt.Sprintf("SELECT a2, COUNT(*) FROM t100000_100 WHERE a1 < %d GROUP BY a2", 1000+i)
}

func workingSet(n int) []string {
	working := make([]string, n)
	for i := range working {
		working[i] = workingStmt(i)
	}
	return working
}

// TestScanLeavesResidentStatementsAlone is the property admission on second
// sight buys: a scan of ten times the cache's capacity in statements sent once
// each inserts nothing, so it evicts nothing, and the working set that was
// resident before it still is.
func TestScanLeavesResidentStatementsAlone(t *testing.T) {
	e := batchFixture(t)
	working := workingSet(64)
	resident(t, e, working...)
	before := e.PlanCacheStats()
	for i := 0; i < 10*before.Capacity; i++ {
		if _, err := e.Query(floodSQL(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range working {
		if res, err := e.Query(sql); err != nil || !res.CacheHit {
			t.Fatalf("%q after the scan: hit=%v err=%v", sql, res != nil && res.CacheHit, err)
		}
	}
	if after := e.PlanCacheStats(); after.Evicted != before.Evicted || after.Size != before.Size {
		t.Errorf("the scan moved the cache: evicted %d → %d, size %d → %d", before.Evicted, after.Evicted, before.Size, after.Size)
	}
}

// TestCycledWorkingSetBecomesResident: a working set smaller than the cache,
// replayed round-robin — no statement is ever sighted twice in a row — is
// parsed and planned for two rounds and hits from the third on, every
// statement of it. The admission filter must remember every statement of a
// round until the next, also two whose hashes agree in the bits that place
// them: with one fingerprint slot a statement, such a pair overwrote each
// other's sighting every round and neither was ever admitted (hot_set, 64
// statements: 6 % of its requests still parsed after a million).
func TestCycledWorkingSetBecomesResident(t *testing.T) {
	e := batchFixture(t)
	working := workingSet(64)
	slot := func(sql string) uint32 { return uint32(obs.StatementHash64(sql)) % uint32(len(e.sighted)) }
	for i := len(working); len(working) == 64; i++ {
		if slot(workingStmt(i)) == slot(working[0]) {
			working = append(working, workingStmt(i))
		}
	}
	for round := 1; round <= 4; round++ {
		hits := 0
		for _, sql := range working {
			res, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit {
				hits++
			}
		}
		want := 0
		if round >= 3 {
			want = len(working)
		}
		if hits != want {
			t.Errorf("round %d: %d of %d statements hit, want %d", round, hits, len(working), want)
		}
	}
	if s := e.PlanCacheStats(); s.Size != len(working) || s.Evicted != 0 {
		t.Errorf("%d statements resident and %d evicted, want all %d and none", s.Size, s.Evicted, len(working))
	}
}

// TestRespellingIsPlannedAgainThenCached: the cache is keyed by the raw text
// and nothing is keyed by the canonical rendering, so a respelling (case,
// whitespace) of a resident statement is a statement of its own: parsed and
// planned again — into the same plan, byte for byte — and resident under its
// own text from its second sighting, without disturbing the first spelling.
func TestRespellingIsPlannedAgainThenCached(t *testing.T) {
	e := batchFixture(t)
	const sql, respelled = "SELECT a1 FROM t10000_100 WHERE a1 < 100", "select  a1\n\tfrom t10000_100   where a1 < 100"
	resident(t, e, sql)
	first, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	parsed := e.Stats().Parse.Count
	variant, err := e.Query(respelled)
	if err != nil {
		t.Fatal(err)
	}
	if variant.CacheHit || variant.Plan == first.Plan {
		t.Errorf("the respelling was served the first spelling's plan (hit=%v)", variant.CacheHit)
	}
	if variant.Plan.Explain() != first.Plan.Explain() || variant.ActualSec != first.ActualSec {
		t.Errorf("the respelling's answer differs:\n%s\n%s", variant.Plan.Explain(), first.Plan.Explain())
	}
	if got := e.Stats().Parse.Count; got != parsed+1 {
		t.Errorf("parse histogram moved by %d for the respelling, want 1", got-parsed)
	}
	if _, err := e.Query(respelled); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{respelled, sql} {
		if res, err := e.Query(text); err != nil || !res.CacheHit {
			t.Errorf("%q: hit=%v err=%v, want both spellings resident", text, res != nil && res.CacheHit, err)
		}
	}
	if s := e.PlanCacheStats(); s.Size != 2 {
		t.Errorf("%d statements resident, want the two spellings", s.Size)
	}
}
