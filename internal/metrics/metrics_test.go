package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if c.Value() != 8005 {
		t.Errorf("Counter = %d, want 8005", c.Value())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != len(h.bounds) {
		t.Errorf("empty snapshot = %+v", s)
	}
	// 90 fast observations, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2 * time.Second)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.SumSeconds < 20 || s.SumSeconds > 20.1 {
		t.Errorf("sum = %v, want 90 × 100 µs + 10 × 2 s", s.SumSeconds)
	}
	// Each observation sits in the first bucket whose bound covers it.
	var fast, slow, bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
		switch {
		case b.UpperBoundSec == 0.0001:
			fast = b.Count
		case b.UpperBoundSec == 3.2768:
			slow = b.Count
		}
	}
	if fast != 90 || slow != 10 || bucketTotal != 100 {
		t.Errorf("buckets hold %d fast + %d slow of %d, want 90 + 10 of 100", fast, slow, bucketTotal)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(10 * time.Minute)
	s := h.Snapshot()
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	for _, b := range s.Buckets {
		if b.Count != 0 {
			t.Errorf("bucket %v holds %d observations, want 0", b.UpperBoundSec, b.Count)
		}
	}
	// The snapshot stays JSON-marshalable: the overflow is a count, not a
	// bucket with an infinite bound.
	if top := s.Buckets[len(s.Buckets)-1].UpperBoundSec; math.IsInf(top, 0) {
		t.Errorf("top bucket bound = %v, want finite", top)
	}
}

// TestHistogramBucketBounds pins the latency bucket layout: exponential
// bounds from 50 µs, doubling to the last bound under 110 s. The Prometheus
// exposition renders exactly these bounds as le labels, so a layout change
// must be deliberate.
func TestHistogramBucketBounds(t *testing.T) {
	want := []float64{
		5e-05, 0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064,
		0.0128, 0.0256, 0.0512, 0.1024, 0.2048, 0.4096, 0.8192, 1.6384,
		3.2768, 6.5536, 13.1072, 26.2144, 52.4288, 104.8576,
	}
	s := NewLatencyHistogram().Snapshot()
	if len(s.Buckets) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(want))
	}
	for i, tc := range want {
		if got := s.Buckets[i].UpperBoundSec; got != tc {
			t.Errorf("bound[%d] = %v, want %v", i, got, tc)
		}
	}
	// An observation on a bound lands in that bucket (bounds are inclusive).
	h := NewLatencyHistogram()
	h.Observe(time.Duration(want[3] * float64(time.Second)))
	if s := h.Snapshot(); s.Buckets[3].Count != 1 {
		t.Errorf("boundary observation landed in %+v", s.Buckets[:5])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(time.Millisecond)
				h.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
}

func TestAccuracyWindow(t *testing.T) {
	a := NewAccuracy(4)
	if s := a.Snapshot(); s.Count != 0 || s.Window != 0 || s.MeanQError != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	// Perfect predictions: q-error exactly 1, MAPE 0.
	for i := 0; i < 3; i++ {
		a.Observe(2.0, 2.0)
	}
	s := a.Snapshot()
	if s.Count != 3 || s.Window != 3 {
		t.Fatalf("count/window = %d/%d", s.Count, s.Window)
	}
	if s.MeanQError != 1 || s.MaxQError != 1 || s.MAPEPercent != 0 || s.Drifting {
		t.Errorf("perfect snapshot = %+v", s)
	}
	// The window rolls: 4 skewed observations evict the perfect ones.
	// predicted 1 vs actual 4 → q-error 4, MAPE 75%.
	for i := 0; i < 4; i++ {
		a.Observe(1.0, 4.0)
	}
	s = a.Snapshot()
	if s.Count != 7 || s.Window != 4 {
		t.Fatalf("rolled count/window = %d/%d", s.Count, s.Window)
	}
	if s.MeanQError != 4 || s.MedianQError != 4 || s.P95QError != 4 || s.MaxQError != 4 {
		t.Errorf("skewed q-errors = %+v", s)
	}
	if math.Abs(s.MAPEPercent-75) > 1e-9 {
		t.Errorf("MAPE = %v, want 75", s.MAPEPercent)
	}
	if !s.Drifting {
		t.Error("mean q-error 4 not flagged as drifting")
	}
	// Overestimates count symmetrically: predicted 4 vs actual 1 is the
	// same q-error 4.
	b := NewAccuracy(0)
	b.Observe(4.0, 1.0)
	if s := b.Snapshot(); s.MeanQError != 4 {
		t.Errorf("overestimate q-error = %v, want 4", s.MeanQError)
	}
	// Degenerate actuals stay finite.
	b.Observe(1.0, 0)
	if s := b.Snapshot(); math.IsInf(s.MaxQError, 1) || math.IsNaN(s.MaxQError) {
		t.Errorf("zero-actual q-error = %v", s.MaxQError)
	}
	// A raised threshold unflags drift.
	a.SetDriftThreshold(10)
	if a.Snapshot().Drifting {
		t.Error("drift flagged above custom threshold")
	}
	a.SetDriftThreshold(0) // restores the default
	if !a.Snapshot().Drifting {
		t.Error("default threshold not restored")
	}
}

func TestAccuracyConcurrent(t *testing.T) {
	a := NewAccuracy(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a.Observe(1.0, 2.0)
				a.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s := a.Snapshot(); s.Count != 4000 || s.MeanQError != 2 {
		t.Errorf("concurrent snapshot = %+v", s)
	}
}

// TestAccuracyResetRefill checks the striped window refills evenly after
// Reset and keeps the lifetime count.
func TestAccuracyResetRefill(t *testing.T) {
	a := NewAccuracy(16)
	for i := 0; i < 10; i++ {
		a.Observe(1, 1)
	}
	a.Reset()
	for i := 0; i < 6; i++ {
		a.Observe(2, 1)
	}
	s := a.Snapshot()
	if s.Count != 16 {
		t.Errorf("lifetime count = %d, want 16", s.Count)
	}
	if s.Window != 6 {
		t.Errorf("window after reset+6 = %d, want 6", s.Window)
	}
	if s.MeanQError != 2 {
		t.Errorf("mean q-error = %v, want 2 (only post-reset samples)", s.MeanQError)
	}
}
