package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"intellisphere/internal/demo"
	"intellisphere/internal/engine"
	"intellisphere/internal/querygrid"
)

// TestDoneRecyclesOnlyAFirstSighting pins who owns a result's plan. Done gives
// back the plan of a first sighting — a statement neither resident nor
// admitted — and nothing else: not twice, not a cache hit's, not the plan an
// admitted or a stale resident statement stored, not a traced result's. A plan
// given back is the next one the planner draws (one P, so the pool's per-P
// slot is the test's), so one given back wrongly shows as a later first
// sighting's plan, and as a changed Explain.
func TestDoneRecyclesOnlyAFirstSighting(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e, err := demo.Build(demo.Config{Seed: 1, LogicalRemote: true})
	if err != nil {
		t.Fatal(err)
	}
	lit := 0
	fresh := func() *engine.QueryResult {
		t.Helper()
		lit += 4999 // far apart, so that two plans never render alike
		res, err := e.Query(fmt.Sprintf("SELECT a1 FROM t500000_250 WHERE a1 < %d", lit%500000))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := fresh()
	p := first.Plan
	e.Done(first)
	if first.Plan != nil {
		t.Error("Done left the result's Plan set after giving it back")
	}
	// The race detector drops pooled objects at random: the control only holds
	// without it.
	if next := fresh(); !raceEnabled && next.Plan != p {
		t.Error("a first sighting's plan did not go back to the planner")
	}

	twice := fresh()
	e.Done(twice)
	e.Done(twice)
	if a, b := fresh(), fresh(); a.Plan == b.Plan {
		t.Fatal("Done twice gave one plan back twice: two live results share it")
	}

	kept := func(name string, res *engine.QueryResult) {
		t.Helper()
		p, explain, steps := res.Plan, res.Plan.Explain(), slices.Clone(res.Plan.Steps)
		e.Done(res)
		e.Done(res)
		if res.Plan != p {
			t.Errorf("%s: Done cleared the result's plan", name)
		}
		for i := 0; i < 8; i++ {
			r := fresh()
			if r.Plan == p {
				t.Fatalf("%s: Done gave the plan back", name)
			}
			e.Done(r)
		}
		if p.Explain() != explain || !reflect.DeepEqual(p.Steps, steps) {
			t.Errorf("%s: the plan changed after Done:\n%s\nwas\n%s", name, p.Explain(), explain)
		}
	}
	const sql = "SELECT a2, COUNT(*) FROM t1000000_100 GROUP BY a2"
	query := func(wantHit bool) *engine.QueryResult {
		t.Helper()
		res, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != wantHit {
			t.Fatalf("cache hit %v, want %v", res.CacheHit, wantHit)
		}
		return res
	}
	e.Done(query(false)) // the first sighting: its own, given back
	kept("admitted", query(false))
	kept("hit", query(true))
	slow := querygrid.DefaultLink()
	slow.BandwidthBytesPerSec /= 8
	if err := e.SetLink("hive", slow); err != nil {
		t.Fatal(err)
	}
	kept("stale re-plan", query(false))
	lit += 4999
	traced, _, err := e.QueryTraced(context.Background(), fmt.Sprintf("SELECT a1 FROM t500000_250 WHERE a1 < %d", lit%500000))
	if err != nil {
		t.Fatal(err)
	}
	kept("traced", traced)
}

// TestLibraryResultOutlivesLaterSightings: a Query result nobody calls Done
// on keeps its plan and step actuals however many first sightings — whose
// statements and, after Done, plans are recycled — follow it.
func TestLibraryResultOutlivesLaterSightings(t *testing.T) {
	e, err := demo.Build(demo.Config{Seed: 1, LogicalRemote: true})
	if err != nil {
		t.Fatal(err)
	}
	stmts := demo.Statements()
	res, err := e.Query(withLiteral(stmts[3], 777))
	if err != nil {
		t.Fatal(err)
	}
	explain, steps, actuals := res.Plan.Explain(), slices.Clone(res.Plan.Steps), slices.Clone(res.StepActuals)
	for i := 0; i < 1000; i++ {
		later, err := e.Query(withLiteral(stmts[i%3], 1000+i))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			e.Done(later)
		}
	}
	if res.Plan.Explain() != explain || !reflect.DeepEqual(res.Plan.Steps, steps) || !slices.Equal(res.StepActuals, actuals) {
		t.Errorf("the result changed under later first sightings:\n%s %v\nwas\n%s %v", res.Plan.Explain(), res.StepActuals, explain, actuals)
	}
}
