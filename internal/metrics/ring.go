package metrics

import "sync/atomic"

// Ring is a fixed-size lock-free buffer of the most recent values of one
// kind: the recent-N mechanism behind /trace, /events (and through it the
// event log's drain cursor) and /history. IDs start at 1 and never repeat;
// the value with ID i lives in slot (i-1) mod n. A writer claims an ID with
// one atomic increment and publishes with one atomic store, so writers never
// wait and readers never block them. Old values are overwritten, never freed
// in place, and are immutable once recorded.
//
// Every value carries its own ID (the accessor given to NewRing points at
// the field). That is how a reader tells the value it addressed from
// whatever else the slot may hold — the previous lap's value while the
// addressed ID is claimed but not yet published (a trace's ID is claimed when
// its query starts), or a later lap's once writers have overtaken the reader
// — and it keeps a value only when the IDs match. All methods are safe on a
// nil ring, which records nothing.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
	id    func(*T) *uint64
}

// NewRing builds a ring holding the last n values (n must be positive); id
// returns the address of a value's ID field.
func NewRing[T any](n int, id func(*T) *uint64) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[T], n), id: id}
}

// Claim reserves the next ID for a value that will be recorded later (0 on a
// nil ring). The ID counts as issued at once; its slot keeps the previous
// lap's value until Record publishes.
func (r *Ring[T]) Claim() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// Record publishes v under the ID it carries, claiming and stamping the next
// one when it has none.
func (r *Ring[T]) Record(v *T) {
	if r == nil || v == nil {
		return
	}
	id := r.id(v)
	if *id == 0 {
		*id = r.next.Add(1)
	}
	r.slots[(*id-1)%uint64(len(r.slots))].Store(v)
}

// Count reports how many IDs were ever issued.
func (r *Ring[T]) Count() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// at returns the value published under id, or nil while its slot holds
// nothing or another ID's value.
func (r *Ring[T]) at(id uint64) *T {
	v := r.slots[(id-1)%uint64(len(r.slots))].Load()
	if v == nil || *r.id(v) != id {
		return nil
	}
	return v
}

// Recent returns up to n of the most recent published values, newest first
// (n <= 0 selects the whole buffer): strictly descending IDs, no duplicates.
func (r *Ring[T]) Recent(n int) []*T {
	if r == nil {
		return nil
	}
	size := uint64(len(r.slots))
	if n <= 0 || uint64(n) > size {
		n = int(size)
	}
	newest := r.next.Load()
	out := make([]*T, 0, n)
	for id := newest; id > 0 && newest-id < size && len(out) < n; id-- {
		if v := r.at(id); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// Since returns the values with ID > after in ascending ID order, at most max
// of them (max <= 0 selects the whole buffer), together with the cursor to
// pass as after on the next call and how many IDs in (after, next] could not
// be returned: overwritten before they were read, or not published yet. A
// caller looping on the cursor therefore loses values only when writers lap
// a whole ring between calls — never silently to the max cap — and
// len(vs) + lost == next - after.
func (r *Ring[T]) Since(after uint64, max int) (vs []*T, next, lost uint64) {
	if r == nil {
		return nil, after, 0
	}
	newest := r.next.Load()
	if newest <= after {
		return nil, after, 0
	}
	size := uint64(len(r.slots))
	lo := after + 1
	if span := newest - after; span > size {
		lost = span - size
		lo = newest - size + 1
	}
	hi := newest
	if max > 0 && hi-lo+1 > uint64(max) {
		hi = lo + uint64(max) - 1
	}
	vs = make([]*T, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		if v := r.at(id); v != nil {
			vs = append(vs, v)
		} else {
			lost++
		}
	}
	return vs, hi, lost
}
