package optimizer

import (
	"context"
	"sync"
	"testing"

	"intellisphere/internal/sqlparse"
)

// benchSQL exercises the widest planning surface: a three-way cross-system
// join whose every step costs several placement candidates. (Timing it is the
// optimizer.plan_miss_us row of bench/layers.go.)
const benchSQL = "SELECT r.a1 FROM t10000000_100 r JOIN t1000000_100 s ON r.a1 = s.a1 JOIN s_items u ON s.a1 = u.a1 WHERE r.a1 + u.z < 50000"

// TestPlanConcurrent drives many simultaneous PlanCtx calls through the shared
// optimizer and its estimators. Run under -race this verifies the whole
// costing path (estimators included) is safe for concurrent callers — every
// in-flight query of a server plans through the one optimizer; a single plan
// never leaves its caller's goroutine — and that concurrent planning stays
// deterministic.
func TestPlanConcurrent(t *testing.T) {
	f := newFixture(t)
	stmt, err := sqlparse.Parse(benchSQL)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.opt.PlanCtx(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				p, err := f.opt.PlanCtx(context.Background(), stmt)
				if err != nil {
					t.Errorf("concurrent PlanCtx: %v", err)
					return
				}
				if p.EstimatedSec != ref.EstimatedSec || len(p.Steps) != len(ref.Steps) {
					t.Errorf("concurrent plan diverged: %v sec / %d steps, want %v / %d",
						p.EstimatedSec, len(p.Steps), ref.EstimatedSec, len(ref.Steps))
					return
				}
			}
		}()
	}
	wg.Wait()
}
