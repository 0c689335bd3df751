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

// TestHistogramExemplars: a traced observation pins its exemplar on the
// bucket it landed in — the overflow bucket included — and an untraced one
// pins nothing.
func TestHistogramExemplars(t *testing.T) {
	h := NewLatencyHistogram()
	h.ObserveExemplar(100*time.Microsecond, 0)
	h.ObserveExemplar(10*time.Minute, 0)
	s := h.Snapshot()
	for _, b := range s.Buckets {
		if b.Exemplar != nil {
			t.Errorf("untraced observation pinned %+v on bucket %v", b.Exemplar, b.UpperBoundSec)
		}
	}
	if s.OverflowExemplar != nil || s.Count != 2 {
		t.Fatalf("untraced snapshot = %+v", s)
	}

	h.ObserveExemplar(100*time.Microsecond, 7)
	h.ObserveExemplar(10*time.Minute, 9)
	s = h.Snapshot()
	for i, b := range s.Buckets {
		if i == 1 { // 100 µs sits on the 0.0001 bound
			if b.Exemplar == nil || b.Exemplar.TraceID != 7 || b.Exemplar.ValueSec != 0.0001 {
				t.Errorf("bucket %v exemplar = %+v, want trace 7 at 0.0001 s", b.UpperBoundSec, b.Exemplar)
			}
		} else if b.Exemplar != nil {
			t.Errorf("bucket %v holds stray exemplar %+v", b.UpperBoundSec, b.Exemplar)
		}
	}
	if ex := s.OverflowExemplar; ex == nil || ex.TraceID != 9 || ex.ValueSec != 600 {
		t.Errorf("overflow exemplar = %+v, want trace 9 at 600 s", ex)
	}
	if s.Count != 4 || s.Overflow != 2 {
		t.Errorf("count/overflow = %d/%d, want 4/2", s.Count, s.Overflow)
	}
}

func TestAccuracyWindow(t *testing.T) {
	a := NewAccuracy(4)
	if s := a.Snapshot(); s.Count != 0 || s.Window != 0 || s.MeanQError != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	// Perfect predictions: q-error exactly 1.
	for i := 0; i < 3; i++ {
		a.Observe(2.0, 2.0)
	}
	s := a.Snapshot()
	if s.Count != 3 || s.Window != 3 {
		t.Fatalf("count/window = %d/%d", s.Count, s.Window)
	}
	if s.MeanQError != 1 {
		t.Errorf("perfect snapshot = %+v", s)
	}
	// The window rolls: 4 skewed observations evict the perfect ones.
	// predicted 1 vs actual 4 → q-error 4.
	for i := 0; i < 4; i++ {
		a.Observe(1.0, 4.0)
	}
	s = a.Snapshot()
	if s.Count != 7 || s.Window != 4 {
		t.Fatalf("rolled count/window = %d/%d", s.Count, s.Window)
	}
	if s.MeanQError != 4 {
		t.Errorf("skewed mean q-error = %+v", s)
	}
	// Overestimates count symmetrically: predicted 4 vs actual 1 is the
	// same q-error 4.
	b := NewAccuracy(0)
	b.Observe(4.0, 1.0)
	if s := b.Snapshot(); s.MeanQError != 4 {
		t.Errorf("overestimate q-error = %v, want 4", s.MeanQError)
	}
	// Degenerate actuals stay finite.
	if q := QError(1.0, 0); math.IsInf(q, 1) || math.IsNaN(q) {
		t.Errorf("zero-actual q-error = %v", q)
	}
}

// TestHotPathsDoNotAllocate pins the package's promise: recording a counter,
// a histogram observation (untraced exemplar included) or an accuracy sample
// allocates nothing.
func TestHotPathsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var c Counter
	h := NewLatencyHistogram()
	a := NewAccuracy(0)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", c.Inc},
		{"Histogram.Observe", func() { h.Observe(time.Millisecond) }},
		{"Histogram.ObserveExemplar(d, 0)", func() { h.ObserveExemplar(time.Millisecond, 0) }},
		{"Accuracy.Observe", func() { a.Observe(1, 2) }},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times, want 0", tc.name, allocs)
		}
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

// TestAccuracyResetRefill checks the window refills from its first slot
// after Reset and keeps the lifetime count.
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
