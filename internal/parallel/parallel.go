// Package parallel spreads independent, coarse units of work — one index is a
// whole training run or a whole experiment — across the cores Go was given.
// Each index owns its output slot, so results are identical at any
// GOMAXPROCS; GOMAXPROCS=1 is the serial switch. Work that is one simulator
// call or one estimate per index is a plain for loop at its call site: the
// hand-off costs more than such an index does (DESIGN.md §6).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines
// and blocks until all calls return. Iterations must be independent; each
// writing only its own output keeps results deterministic.
func ForEach(n int, fn func(i int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map applies fn to every index in [0, n) through ForEach and returns the
// results in index order. When calls fail, the error of the lowest failing
// index is returned (matching what a serial loop would have reported first).
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
