// Package parallel provides the repo-wide bounded worker pool used by the
// training and experiment hot paths. Its primitives are designed around one
// invariant: results must be bit-identical no matter how many workers run.
// Map and ForEach get that for free (each index owns its output slot);
// Reducer gets it by sharding work into fixed-size chunks and
// reducing the chunk results in ascending chunk order, so floating-point
// accumulation order never depends on scheduling or on the pool size.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable overriding the pool size. Values
// ≤ 0 or non-numeric are ignored and the pool falls back to GOMAXPROCS.
const EnvWorkers = "INTELLISPHERE_WORKERS"

var override atomic.Int64

func init() {
	if v, err := strconv.Atoi(os.Getenv(EnvWorkers)); err == nil {
		SetWorkers(v)
	}
}

// SetWorkers overrides the default pool size. n ≤ 0 restores the automatic
// GOMAXPROCS-based sizing. Engine configuration and tests use it; individual
// call sites can also pass an explicit worker count where supported.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	override.Store(int64(n))
}

// Workers returns the pool size: the SetWorkers / INTELLISPHERE_WORKERS
// override when present, otherwise GOMAXPROCS.
func Workers() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// clampWorkers resolves a caller-supplied worker count (0 = default) against
// the number of available tasks.
func clampWorkers(workers, tasks int) int {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) across the pool and blocks until
// all calls return. Iterations must be independent; each writing only its own
// output keeps results deterministic.
func ForEach(n int, fn func(i int)) {
	ForEachN(0, n, fn)
}

// ForEachN is ForEach with an explicit worker count (0 = pool default).
func ForEachN(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := clampWorkers(workers, n)
	if w == 1 {
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

// Map applies fn to every index in [0, n) across the pool and returns the
// results in index order. When calls fail, the error of the lowest failing
// index is returned (matching what a serial loop would have reported first).
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapN(0, n, fn)
}

// MapN is Map with an explicit worker count (0 = pool default).
func MapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	ForEachN(workers, n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Reducer is a reusable chunk-ordered reduction pipeline: Run shards [0, n)
// into contiguous chunks of at most chunk indexes, processes the chunks
// concurrently — each on a pooled state S — and calls reduce exactly once per
// chunk in ascending chunk order. Because the chunk boundaries depend only on
// n and chunk, and the reduction order is fixed, the result is bit-identical
// for every worker count (including 1). Per-slot states and worker goroutines
// are allocated once at construction and reused by every Run, so a hot loop
// (e.g. one reduction per training mini-batch) performs zero steady-state
// heap allocations and spawns no goroutines per run.
//
// A Reducer is for a single caller: Run must not be invoked concurrently.
// Close releases the worker goroutines; the zero-worker (serial) form has
// none and Close is then a no-op.
type Reducer[S any] struct {
	chunk  int
	w      int
	states []S
	work   chan span // buffered for the worst-case chunk count of maxN
	free   chan S
	ready  chan doneChunk[S]
	wg     sync.WaitGroup

	// reset/process for the current Run; workers observe the updated values
	// through the happens-before edge of the work-channel send.
	reset   func(S)
	process func(S, int, int)

	// parked holds out-of-order chunk completions between reduces. It drains
	// to empty by the end of every Run, so reusing it keeps Run allocation-free.
	parked map[int]S
}

type span struct{ start, end int }

type doneChunk[S any] struct {
	c int
	s S
}

// NewReducer builds a pipeline for reductions over at most maxN indexes in
// chunks of the given size (chunk ≤ 0 selects maxN). workers bounds the
// concurrency (0 = pool default, 1 = serial with no goroutines).
func NewReducer[S any](maxN, chunk, workers int, newState func() S) *Reducer[S] {
	if maxN < 1 {
		maxN = 1
	}
	if chunk <= 0 || chunk > maxN {
		chunk = maxN
	}
	maxChunks := (maxN + chunk - 1) / chunk
	w := clampWorkers(workers, maxChunks)
	r := &Reducer[S]{chunk: chunk, w: w}
	if w == 1 {
		r.states = []S{newState()}
		return r
	}
	// w+1 pooled states bound the in-flight chunks; the work queue is FIFO
	// and spans are enqueued in ascending order, so the lowest unreduced
	// chunk is always among the in-flight ones and the ordered reducer in
	// Run cannot starve.
	r.free = make(chan S, w+1)
	for i := 0; i < w+1; i++ {
		r.free <- newState()
	}
	r.work = make(chan span, maxChunks)
	r.ready = make(chan doneChunk[S], w+1)
	r.parked = make(map[int]S, w)
	r.wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer r.wg.Done()
			for {
				// Acquire a state BEFORE claiming a span. Claiming first
				// would deadlock: a worker stalled waiting for a state holds
				// the lowest unreduced chunk hostage while the other workers
				// complete every later chunk, the reducer parks all w+1
				// states waiting for that chunk, and free never refills.
				// With the state in hand, every claimed span runs to
				// completion, so the lowest unreduced chunk always reaches
				// the ready channel and the ordered reducer makes progress.
				s := <-r.free
				sp, ok := <-r.work
				if !ok {
					return
				}
				r.reset(s)
				r.process(s, sp.start, sp.end)
				r.ready <- doneChunk[S]{c: sp.start / r.chunk, s: s}
			}
		}()
	}
	return r
}

// Run performs one chunk-ordered reduction over [0, n). n must not exceed
// the maxN the Reducer was built for. reset clears a recycled state before
// its next chunk, process folds indexes [start, end) into it, and reduce
// folds one finished chunk state into the caller's accumulator. reduce runs
// on the calling goroutine; process calls run concurrently with it but never
// on the same state.
func (r *Reducer[S]) Run(n int, reset func(S), process func(s S, start, end int), reduce func(s S)) {
	if n <= 0 {
		return
	}
	numChunks := (n + r.chunk - 1) / r.chunk
	if r.w == 1 {
		s := r.states[0]
		for c := 0; c < numChunks; c++ {
			reset(s)
			start := c * r.chunk
			end := start + r.chunk
			if end > n {
				end = n
			}
			process(s, start, end)
			reduce(s)
		}
		return
	}
	if numChunks > cap(r.work) {
		panic("parallel: Reducer.Run over more indexes than the Reducer was built for")
	}
	r.reset, r.process = reset, process
	for c := 0; c < numChunks; c++ {
		start := c * r.chunk
		end := start + r.chunk
		if end > n {
			end = n
		}
		r.work <- span{start: start, end: end}
	}
	// Reduce in ascending chunk order, parking out-of-order completions
	// (at most w+1 chunks are ever in flight).
	for reduced := 0; reduced < numChunks; {
		if s, ok := r.parked[reduced]; ok {
			reduce(s)
			delete(r.parked, reduced)
			r.free <- s
			reduced++
			continue
		}
		d := <-r.ready
		r.parked[d.c] = d.s
	}
}

// Close stops the worker goroutines. The Reducer must not be used after.
func (r *Reducer[S]) Close() {
	if r.work != nil {
		close(r.work)
		r.wg.Wait()
	}
}
