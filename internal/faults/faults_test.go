package faults

import (
	"errors"
	"testing"

	"intellisphere/internal/cluster"
	"intellisphere/internal/plan"
	"intellisphere/internal/remote"
	"intellisphere/internal/resilience"
)

func newHive(t *testing.T) remote.System {
	t.Helper()
	h, err := remote.NewHive("hive", cluster.DefaultHive(), remote.Options{Seed: 3, NoiseAmp: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func scanSpec() plan.ScanSpec {
	return plan.ScanSpec{InputRows: 1e6, InputRowSize: 100, Selectivity: 0.5, OutputRowSize: 50}
}

func TestPassthroughWhenQuiet(t *testing.T) {
	h := newHive(t)
	inj := Wrap(h, Config{Seed: 1})
	want, err := h.ExecuteScan(scanSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := inj.ExecuteScan(scanSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("quiet injector perturbed execution: %+v vs %+v", got, want)
	}
	if inj.Name() != "hive" || inj.sys != h {
		t.Error("delegation broken")
	}
}

func TestOutage(t *testing.T) {
	inj := Wrap(newHive(t), Config{Seed: 1})
	inj.SetOutage(true)
	_, err := inj.ExecuteJoin(plan.JoinSpec{})
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != Outage {
		t.Fatalf("outage err = %v", err)
	}
	if !resilience.IsUnavailable(err) || resilience.IsTransient(err) {
		t.Error("outage misclassified")
	}
	if s := inj.Stats(); s.OutageRejects != 1 || !s.Down {
		t.Errorf("stats = %+v", s)
	}
	inj.SetOutage(false)
	if _, err := inj.ExecuteScan(scanSpec()); err != nil {
		t.Errorf("post-recovery call failed: %v", err)
	}
}

func TestTransientRateAndDeterminism(t *testing.T) {
	run := func() (fails int, seq []bool) {
		inj := Wrap(newHive(t), Config{Seed: 42, Rates: Rates{Transient: 0.3}})
		for n := 0; n < 200; n++ {
			_, err := inj.ExecuteScan(scanSpec())
			seq = append(seq, err != nil)
			if err != nil {
				if !resilience.IsTransient(err) {
					t.Fatalf("injected error not transient: %v", err)
				}
				fails++
			}
		}
		return fails, seq
	}
	fails1, seq1 := run()
	fails2, seq2 := run()
	if fails1 != fails2 {
		t.Fatalf("same seed, different fault counts: %d vs %d", fails1, fails2)
	}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("fault sequences diverge at call %d", i)
		}
	}
	// ~30% of 200 calls, generously bounded.
	if fails1 < 30 || fails1 > 90 {
		t.Errorf("transient rate 0.3 produced %d/200 failures", fails1)
	}
	// A different seed produces a different sequence.
	inj := Wrap(newHive(t), Config{Seed: 43, Rates: Rates{Transient: 0.3}})
	diverged := false
	for n := 0; n < 200; n++ {
		_, err := inj.ExecuteScan(scanSpec())
		if (err != nil) != seq1[n] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestLatencySpikes(t *testing.T) {
	h := newHive(t)
	base, err := h.ExecuteScan(scanSpec())
	if err != nil {
		t.Fatal(err)
	}
	inj := Wrap(h, Config{Seed: 7, Rates: Rates{Latency: 1, LatencyFactor: 5}})
	got, err := inj.ExecuteScan(scanSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got.ElapsedSec <= base.ElapsedSec*4.9 {
		t.Errorf("spiked elapsed %v not ~5x base %v", got.ElapsedSec, base.ElapsedSec)
	}
	if s := inj.Stats(); s.LatencySpikes != 1 || s.Calls != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPerOpOverrides(t *testing.T) {
	inj := Wrap(newHive(t), Config{
		Seed:  5,
		Rates: Rates{Transient: 0},
		Ops:   map[string]Rates{"scan": {Transient: 1}},
	})
	if _, err := inj.ExecuteScan(scanSpec()); err == nil {
		t.Error("scan override rate 1 did not fail")
	}
	if _, err := inj.ExecuteProbe(remote.Probe{Target: remote.Sort, Records: 100, RecordSize: 10}); err != nil {
		t.Errorf("probe at base rate 0 failed: %v", err)
	}
}

func TestConfigureRewindsSequence(t *testing.T) {
	cfg := Config{Seed: 11, Rates: Rates{Transient: 0.5}}
	armed := Wrap(newHive(t), cfg)
	var want []bool
	for n := 0; n < 50; n++ {
		_, err := armed.ExecuteScan(scanSpec())
		want = append(want, err != nil)
	}
	// A quiet injector that consumed calls first, then got configured,
	// replays the same sequence.
	late := Wrap(newHive(t), Config{Seed: 11})
	for n := 0; n < 500; n++ {
		late.ExecuteScan(scanSpec())
	}
	late.Configure(cfg)
	for n := 0; n < 50; n++ {
		_, err := late.ExecuteScan(scanSpec())
		if (err != nil) != want[n] {
			t.Fatalf("post-Configure sequence diverges at call %d", n)
		}
	}
}
