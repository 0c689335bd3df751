package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// atProcs runs fn at each GOMAXPROCS setting, restoring the old one.
func atProcs(t *testing.T, fn func(procs int)) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	atProcs(t, func(procs int) {
		n := 153
		hits := make([]int, n)
		ForEach(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d visited %d times", procs, i, h)
			}
		}
	})
	ForEach(0, func(int) { t.Error("ForEach(0) must not call fn") })
}

func TestMapOrdersResults(t *testing.T) {
	atProcs(t, func(procs int) {
		out, err := Map(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("GOMAXPROCS=%d: out[%d] = %d, want %d", procs, i, v, i*i)
			}
		}
	})
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	atProcs(t, func(procs int) {
		_, err := Map(50, func(i int) (int, error) {
			if i == 17 || i == 31 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom 17" {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want boom 17", procs, err)
		}
	})
	if _, err := Map(0, func(int) (int, error) { return 0, errors.New("x") }); err != nil {
		t.Errorf("Map(0) err = %v", err)
	}
}
