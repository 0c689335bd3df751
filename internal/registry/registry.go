// Package registry provides a read-mostly, copy-on-write map keyed by
// string. The serving hot path (planning and executing queries) reads the
// remote-system and estimator registries on every statement, while writes
// (registering a remote, a table, a materialization) are rare; a
// copy-on-write snapshot behind an atomic pointer makes every read lock-free
// and wait-free while writers serialize on a mutex.
//
// Each mutation bumps a generation counter. Consumers that cache derived
// state (the optimizer's plan cache) record the generation they observed and
// treat any change as an invalidation signal. A stored value that changes in
// place (a hot-swapped or offline-tuned model the registry points to) is
// reported through Bump by whoever changed it, so the one counter covers
// replacements and in-place changes alike: a value that kept a counter of its
// own would take it away again when it is replaced.
package registry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// state is one immutable snapshot of the map.
type state[V any] struct {
	m   map[string]V
	gen uint64
}

// Map is a thread-safe, read-mostly string-keyed map. The zero value is not
// usable; call New.
type Map[V any] struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[state[V]]
}

// New returns an empty registry at generation 0.
func New[V any]() *Map[V] {
	r := &Map[V]{}
	r.snap.Store(&state[V]{m: map[string]V{}})
	return r
}

// Get returns the value for name. The read is lock-free.
func (r *Map[V]) Get(name string) (V, bool) {
	s := r.snap.Load()
	v, ok := s.m[name]
	return v, ok
}

// Set installs a value, replacing any existing entry, and bumps the
// generation.
func (r *Map[V]) Set(name string, v V) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replace(func(m map[string]V) { m[name] = v })
}

// SetIfAbsent installs a value only when the name is free, reporting whether
// it did. The generation advances only on success.
func (r *Map[V]) SetIfAbsent(name string, v V) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.snap.Load().m[name]; ok {
		return false
	}
	r.replace(func(m map[string]V) { m[name] = v })
	return true
}

// Delete removes an entry, reporting whether it existed.
func (r *Map[V]) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.snap.Load().m[name]; !ok {
		return false
	}
	r.replace(func(m map[string]V) { delete(m, name) })
	return true
}

// replace installs a mutated copy of the current snapshot. Caller holds mu.
func (r *Map[V]) replace(mutate func(map[string]V)) {
	old := r.snap.Load()
	m := make(map[string]V, len(old.m)+1)
	for k, v := range old.m {
		m[k] = v
	}
	mutate(m)
	r.snap.Store(&state[V]{m: m, gen: old.gen + 1})
}

// Bump advances the generation without changing contents: the invalidation
// signal for an in-place change to a stored value. Call it after the change
// is visible to readers.
func (r *Map[V]) Bump() {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	r.snap.Store(&state[V]{m: old.m, gen: old.gen + 1})
}

// Generation returns the mutation counter. It only ever increases.
func (r *Map[V]) Generation() uint64 {
	return r.snap.Load().gen
}

// Len returns the number of entries.
func (r *Map[V]) Len() int {
	return len(r.snap.Load().m)
}

// Names returns the keys, sorted.
func (r *Map[V]) Names() []string {
	s := r.snap.Load()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns the current immutable map. Callers must not mutate it.
func (r *Map[V]) Snapshot() map[string]V {
	return r.snap.Load().m
}
