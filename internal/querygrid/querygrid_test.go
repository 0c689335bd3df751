package querygrid

import (
	"fmt"
	"testing"
	"testing/quick"
)

func newGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := New(DefaultLink())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestNewValidates(t *testing.T) {
	if _, err := New(LinkConfig{}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := New(LinkConfig{BandwidthBytesPerSec: 1, LatencySec: -1}); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestTransferSameSystemFree(t *testing.T) {
	g := newGrid(t)
	c, err := g.TransferCost("hive", "hive", 1e6, 100)
	if err != nil || c != 0 {
		t.Errorf("same-system transfer = %v, %v", c, err)
	}
}

func TestTransferMasterToRemote(t *testing.T) {
	g := newGrid(t)
	c, err := g.TransferCost(Master, "hive", 1e6, 125)
	if err != nil {
		t.Fatalf("TransferCost: %v", err)
	}
	// 125 MB over 125 MB/s + 0.5 s latency + 0.2 s row overhead = 1.7 s.
	want := 0.5 + 1.0 + 0.2
	if diff := c - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cost = %v, want %v", c, want)
	}
}

func TestTransferRemoteToRemoteTwoHops(t *testing.T) {
	g := newGrid(t)
	direct, _ := g.TransferCost("hive", Master, 1e6, 100)
	twoHop, err := g.TransferCost("hive", "presto", 1e6, 100)
	if err != nil {
		t.Fatalf("TransferCost: %v", err)
	}
	if twoHop != 2*direct {
		t.Errorf("remote→remote = %v, want 2×%v (must route via master)", twoHop, direct)
	}
}

func TestTransferErrors(t *testing.T) {
	g := newGrid(t)
	if _, err := g.TransferCost("", "hive", 1, 1); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := g.TransferCost("hive", "", 1, 1); err == nil {
		t.Error("empty destination accepted")
	}
	if _, err := g.TransferCost(Master, "hive", -1, 1); err == nil {
		t.Error("negative rows accepted")
	}
}

func TestSetLink(t *testing.T) {
	g := newGrid(t)
	fast := LinkConfig{BandwidthBytesPerSec: 1.25e9, LatencySec: 0.1, PerRowOverheadUS: 0.05}
	if err := g.SetLink("spark", fast); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
	slow, _ := g.TransferCost(Master, "hive", 1e7, 100)
	quickLink, _ := g.TransferCost(Master, "spark", 1e7, 100)
	if quickLink >= slow {
		t.Errorf("fast link (%v) not faster than default (%v)", quickLink, slow)
	}
	if err := g.SetLink("", fast); err == nil {
		t.Error("empty link name accepted")
	}
	if err := g.SetLink(Master, fast); err == nil {
		t.Error("master link override accepted")
	}
	if err := g.SetLink("x", LinkConfig{}); err == nil {
		t.Error("invalid link config accepted")
	}
}

func TestFilteredTransferSavesVolume(t *testing.T) {
	g := newGrid(t)
	full, _ := g.TransferCost("hive", Master, 1e7, 100)
	filtered, err := g.TransferCostFiltered("hive", Master, 1e7, 100, 0.1)
	if err != nil {
		t.Fatalf("TransferCostFiltered: %v", err)
	}
	if filtered >= full {
		t.Errorf("filtered transfer (%v) not cheaper than full (%v)", filtered, full)
	}
	same, _ := g.TransferCostFiltered("hive", "hive", 1e7, 100, 0.1)
	if same != 0 {
		t.Error("same-system filtered transfer should be free")
	}
	if _, err := g.TransferCostFiltered("hive", Master, 1, 1, 0); err == nil {
		t.Error("zero selectivity accepted")
	}
	if _, err := g.TransferCostFiltered("hive", Master, 1, 1, 1.5); err == nil {
		t.Error("selectivity > 1 accepted")
	}
	if _, err := g.TransferCostFiltered("", Master, 1, 1, 0.5); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := g.TransferCostFiltered("hive", Master, -1, 1, 0.5); err == nil {
		t.Error("negative volume accepted")
	}
}

// Property: transfer cost is monotone in rows and never below the link
// latency for cross-system moves.
func TestTransferMonotoneProperty(t *testing.T) {
	g := newGrid(t)
	f := func(a, b uint32) bool {
		r1, r2 := float64(a), float64(b)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		c1, err1 := g.TransferCost(Master, "hive", r1, 100)
		c2, err2 := g.TransferCost(Master, "hive", r2, 100)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 <= c2 && c1 >= DefaultLink().LatencySec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCalibrateRecoversLink(t *testing.T) {
	truth := LinkConfig{BandwidthBytesPerSec: 125e6, LatencySec: 0.5, PerRowOverheadUS: 0.2}
	link := &SimulatedLink{Truth: truth, NoiseAmp: 0.02, Seed: 4}
	got, err := Calibrate(link.Measure)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	within := func(got, want, tol float64) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d <= tol*want
	}
	if !within(got.BandwidthBytesPerSec, truth.BandwidthBytesPerSec, 0.15) {
		t.Errorf("bandwidth = %v, truth %v", got.BandwidthBytesPerSec, truth.BandwidthBytesPerSec)
	}
	if !within(got.LatencySec, truth.LatencySec, 0.3) {
		t.Errorf("latency = %v, truth %v", got.LatencySec, truth.LatencySec)
	}
	if !within(got.PerRowOverheadUS, truth.PerRowOverheadUS, 0.5) {
		t.Errorf("per-row overhead = %v, truth %v", got.PerRowOverheadUS, truth.PerRowOverheadUS)
	}
	// The calibrated link slots straight into a grid.
	g := newGrid(t)
	if err := g.SetLink("hive", got); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(nil); err == nil {
		t.Error("nil measure accepted")
	}
	failing := func(rows, rowSize float64) (float64, error) {
		return 0, fmt.Errorf("link down")
	}
	if _, err := Calibrate(failing); err == nil {
		t.Error("failing measure accepted")
	}
	// A constant-time link has no positive byte cost to invert.
	constant := func(rows, rowSize float64) (float64, error) { return 1, nil }
	if _, err := Calibrate(constant); err == nil {
		t.Error("degenerate link accepted")
	}
	link := &SimulatedLink{Truth: DefaultLink()}
	if _, err := link.Measure(0, 100); err == nil {
		t.Error("zero-volume probe accepted")
	}
}

func TestSimulatedLinkDeterministic(t *testing.T) {
	link := &SimulatedLink{Truth: DefaultLink(), NoiseAmp: 0.05, Seed: 9}
	a, err := link.Measure(1e5, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := link.Measure(1e5, 100)
	if a != b {
		t.Error("simulated link not deterministic")
	}
	link2 := &SimulatedLink{Truth: DefaultLink(), NoiseAmp: 0.05, Seed: 10}
	c, _ := link2.Measure(1e5, 100)
	if a == c {
		t.Error("different seeds produced identical noise")
	}
}

// TestTransferValidationOrderAgreement drives TransferCost and
// TransferCostFiltered (at selectivity 1, where they must agree) through the
// same edge cases: both entry points must accept and reject the same calls,
// including bad volumes on a same-system "free" transfer.
func TestTransferValidationOrderAgreement(t *testing.T) {
	g := newGrid(t)
	cases := []struct {
		name     string
		from, to string
		rows     float64
		rowSize  float64
		wantErr  bool
		wantFree bool
	}{
		{name: "remote to master", from: "hive", to: Master, rows: 1e6, rowSize: 100},
		{name: "master to remote", from: Master, to: "hive", rows: 1e6, rowSize: 100},
		{name: "remote to remote", from: "hive", to: "presto", rows: 1e6, rowSize: 100},
		{name: "same system free", from: "hive", to: "hive", rows: 1e6, rowSize: 100, wantFree: true},
		{name: "zero rows", from: "hive", to: Master, rows: 0, rowSize: 100},
		{name: "zero row size", from: "hive", to: Master, rows: 100, rowSize: 0},
		{name: "negative rows", from: "hive", to: Master, rows: -1, rowSize: 100, wantErr: true},
		{name: "negative row size", from: "hive", to: Master, rows: 100, rowSize: -1, wantErr: true},
		// Bad volume must be rejected even when from == to would make the
		// transfer free — the same-system short-circuit cannot hide it.
		{name: "negative rows same system", from: "hive", to: "hive", rows: -1, rowSize: 100, wantErr: true},
		{name: "negative size same system", from: "hive", to: "hive", rows: 100, rowSize: -1, wantErr: true},
		{name: "empty from", from: "", to: "hive", rows: 1, rowSize: 1, wantErr: true},
		{name: "empty to", from: "hive", to: "", rows: 1, rowSize: 1, wantErr: true},
		{name: "both empty", from: "", to: "", rows: 1, rowSize: 1, wantFree: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, plainErr := g.TransferCost(tc.from, tc.to, tc.rows, tc.rowSize)
			filt, filtErr := g.TransferCostFiltered(tc.from, tc.to, tc.rows, tc.rowSize, 1)
			if (plainErr != nil) != tc.wantErr {
				t.Errorf("TransferCost err = %v, wantErr %v", plainErr, tc.wantErr)
			}
			if (filtErr != nil) != (plainErr != nil) {
				t.Errorf("validation disagreement: TransferCost err %v, TransferCostFiltered err %v", plainErr, filtErr)
			}
			if tc.wantErr {
				return
			}
			if plain != filt {
				t.Errorf("selectivity-1 filtered cost %v != plain cost %v", filt, plain)
			}
			if tc.wantFree && plain != 0 {
				t.Errorf("free transfer cost = %v", plain)
			}
			if !tc.wantFree && tc.rows > 0 && tc.rowSize > 0 && plain <= 0 {
				t.Errorf("paid transfer cost = %v, want > 0", plain)
			}
		})
	}
}

// TestTransferFilteredSelectivityEdges pins the selectivity validation.
func TestTransferFilteredSelectivityEdges(t *testing.T) {
	g := newGrid(t)
	for _, sel := range []float64{0, -0.5, 1.0001, 2} {
		if _, err := g.TransferCostFiltered("hive", Master, 1e6, 100, sel); err == nil {
			t.Errorf("selectivity %v accepted", sel)
		}
	}
	// Selectivity is checked even on the free same-system path, mirroring
	// the volume checks.
	if _, err := g.TransferCostFiltered("hive", "hive", 1e6, 100, 0); err == nil {
		t.Error("zero selectivity accepted on same-system transfer")
	}
	full, err := g.TransferCostFiltered("hive", Master, 1e6, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := g.TransferCostFiltered("hive", Master, 1e6, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half >= full {
		t.Errorf("half-selectivity transfer (%v) not cheaper than full (%v)", half, full)
	}
}

// TestGridGeneration checks the invalidation counter advances on SetLink.
func TestGridGeneration(t *testing.T) {
	g := newGrid(t)
	g0 := g.Generation()
	if err := g.SetLink("hive", DefaultLink()); err != nil {
		t.Fatal(err)
	}
	if g.Generation() <= g0 {
		t.Errorf("generation %d not advanced from %d by SetLink", g.Generation(), g0)
	}
}
