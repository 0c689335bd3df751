package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestWorkersOverride(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Errorf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Errorf("Workers() = %d with auto sizing, want >= 1", got)
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, w := range []int{1, 2, 7} {
		n := 153
		hits := make([]int, n)
		ForEachN(w, n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, h)
			}
		}
	}
	ForEach(0, func(int) { t.Error("ForEach(0) must not call fn") })
}

func TestMapOrdersResults(t *testing.T) {
	out, err := MapN(4, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	_, err := MapN(4, 50, func(i int) (int, error) {
		if i == 17 || i == 31 {
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom 17" {
		t.Fatalf("err = %v, want boom 17", err)
	}
	if _, err := Map(0, func(int) (int, error) { return 0, errors.New("x") }); err != nil {
		t.Errorf("Map(0) err = %v", err)
	}
}

// reducerSum folds noisy floats chunk by chunk; the sum must be
// bit-identical across worker counts because reduction is chunk-ordered.
func reducerSum(vals []float64, chunk, workers int) float64 {
	total := 0.0
	r := NewReducer(len(vals), chunk, workers, func() *float64 { return new(float64) })
	defer r.Close()
	r.Run(len(vals),
		func(s *float64) { *s = 0 },
		func(s *float64, start, end int) {
			for i := start; i < end; i++ {
				*s += vals[i]
			}
		},
		func(s *float64) { total += *s },
	)
	return total
}

func TestReducerDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 1009) // prime length: exercises a ragged tail chunk
	for i := range vals {
		vals[i] = (rng.Float64() - 0.5) * 1e6
	}
	want := reducerSum(vals, 16, 1)
	for _, w := range []int{2, 3, 8} {
		for trial := 0; trial < 5; trial++ {
			if got := reducerSum(vals, 16, w); got != want {
				t.Fatalf("workers=%d trial %d: sum %v != serial %v", w, trial, got, want)
			}
		}
	}
}

func TestReducerVisitsEveryIndexOnce(t *testing.T) {
	n := 517
	hits := make([]int, n)
	chunks := 0
	r := NewReducer(n, 32, 4, func() []int { return nil })
	defer r.Close()
	r.Run(n,
		func([]int) {},
		func(s []int, start, end int) {
			for i := start; i < end; i++ {
				hits[i]++
			}
		},
		func([]int) { chunks++ },
	)
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	if want := (n + 31) / 32; chunks != want {
		t.Errorf("reduce called %d times, want %d", chunks, want)
	}
}

// Reducer reuse: many Runs on one pipeline must stay deterministic and
// ordered. This is also the regression test for a starvation deadlock where
// a worker claimed the lowest unreduced chunk and then stalled waiting for a
// pooled state while the other workers drained every remaining chunk —
// hundreds of small Runs back to back reproduce that interleaving reliably.
func TestReducerReuseManyRuns(t *testing.T) {
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i%17) - 8
	}
	red := NewReducer(len(vals), 64, 4, func() *float64 { return new(float64) })
	defer red.Close()

	sumOnce := func(n int) float64 {
		total := 0.0
		red.Run(n,
			func(s *float64) { *s = 0 },
			func(s *float64, start, end int) {
				for i := start; i < end; i++ {
					*s += vals[i]
				}
			},
			func(s *float64) { total += *s },
		)
		return total
	}
	want := sumOnce(len(vals))
	wantPartial := sumOnce(100) // n below capacity must work too
	for run := 0; run < 500; run++ {
		if got := sumOnce(len(vals)); got != want {
			t.Fatalf("run %d: sum %v != first run %v", run, got, want)
		}
		if got := sumOnce(100); got != wantPartial {
			t.Fatalf("run %d: partial sum %v != first run %v", run, got, wantPartial)
		}
	}
}

// A Reducer built for maxN must refuse larger Runs instead of silently
// corrupting the span queue.
func TestReducerRunBeyondCapacityPanics(t *testing.T) {
	red := NewReducer(100, 10, 4, func() *int { return new(int) })
	defer red.Close()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Run beyond Reducer capacity")
		}
	}()
	red.Run(101, func(*int) {}, func(*int, int, int) {}, func(*int) {})
}
