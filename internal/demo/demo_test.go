package demo

import (
	"testing"

	"intellisphere/internal/faults"
	"intellisphere/internal/plan"
)

// TestInjectorSeeds pins each remote's fault-injector draw seed (hive 0,
// spark 1, presto 2, flink 3): the same rates dialed on every system yield
// different, fixed fault sequences, so a sequence replayed against a live
// server stays the one it was. The counts were recorded when the seeds were
// still derived from a serve-time flag left at zero.
func TestInjectorSeeds(t *testing.T) {
	fed, err := BuildFederation(Config{Seed: 1, LogicalRemote: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]faults.Stats{
		"hive":   {Calls: 200, Transients: 54, LatencySpikes: 35},
		"spark":  {Calls: 200, Transients: 52, LatencySpikes: 40},
		"presto": {Calls: 200, Transients: 48, LatencySpikes: 32},
		"flink":  {Calls: 200, Transients: 63, LatencySpikes: 26},
	}
	if len(fed.Injectors) != len(want) {
		t.Fatalf("%d injectors, want %d", len(fed.Injectors), len(want))
	}
	scan := plan.ScanSpec{InputRows: 1e5, InputRowSize: 100, Selectivity: 0.5, OutputRowSize: 50}
	for name, w := range want {
		inj := fed.Injectors[name]
		before := inj.Stats()
		inj.SetRates(faults.Rates{Transient: 0.25, Latency: 0.25})
		for i := 0; i < int(w.Calls); i++ {
			inj.ExecuteScan(scan)
		}
		after := inj.Stats()
		got := faults.Stats{
			Calls:         after.Calls - before.Calls,
			Transients:    after.Transients - before.Transients,
			LatencySpikes: after.LatencySpikes - before.LatencySpikes,
		}
		if got != w {
			t.Errorf("%s: %+v, want %+v", name, got, w)
		}
	}
}
