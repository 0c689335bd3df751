package registry

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicOperations(t *testing.T) {
	r := New[int]()
	if r.Generation() != 0 || r.Len() != 0 {
		t.Fatalf("fresh registry: gen=%d len=%d", r.Generation(), r.Len())
	}
	if _, ok := r.Get("a"); ok {
		t.Error("Get on empty registry succeeded")
	}
	r.Set("a", 1)
	if v, ok := r.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	if r.Generation() != 1 {
		t.Errorf("gen after Set = %d", r.Generation())
	}
	if r.SetIfAbsent("a", 2) {
		t.Error("SetIfAbsent replaced an existing entry")
	}
	if v, _ := r.Get("a"); v != 1 {
		t.Error("SetIfAbsent mutated existing value")
	}
	if !r.SetIfAbsent("b", 2) {
		t.Error("SetIfAbsent on a free name failed")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Names = %v", got)
	}
	gen := r.Generation()
	r.Bump()
	if r.Generation() != gen+1 || r.Len() != 2 {
		t.Errorf("Bump: gen %d -> %d, len %d", gen, r.Generation(), r.Len())
	}
	if !r.Delete("a") || r.Delete("a") {
		t.Error("Delete semantics wrong")
	}
	if r.Len() != 1 {
		t.Errorf("Len after delete = %d", r.Len())
	}
}

func TestSnapshotIsStable(t *testing.T) {
	r := New[string]()
	r.Set("x", "1")
	snap := r.Snapshot()
	r.Set("y", "2")
	if len(snap) != 1 {
		t.Errorf("old snapshot changed after write: %v", snap)
	}
	if len(r.Snapshot()) != 2 {
		t.Error("new snapshot missing write")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	r := New[int]()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Set(fmt.Sprintf("k%d-%d", w, i), i)
			}
		}(w)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Get("k0-50")
				r.Len()
				r.Generation()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 400 {
		t.Errorf("Len = %d, want 400", r.Len())
	}
	if r.Generation() != 400 {
		t.Errorf("Generation = %d, want 400", r.Generation())
	}
}
