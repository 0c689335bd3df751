package metrics

import (
	"slices"
	"testing"
)

// item is the smallest value a Ring can hold: one that carries its ID.
type item struct{ id uint64 }

func newItemRing(n int) *Ring[item] {
	return NewRing(n, func(it *item) *uint64 { return &it.id })
}

func itemIDs(items []*item) []uint64 {
	out := make([]uint64, len(items))
	for i, it := range items {
		out[i] = it.id
	}
	return out
}

// TestRingReaders walks one 4-slot ring through the states a reader can meet
// — empty, part full, lapped, an ID claimed but not published on a full ring,
// that ID published — and checks Recent and Since in each.
func TestRingReaders(t *testing.T) {
	r := newItemRing(4)
	record := func(n int) {
		for i := 0; i < n; i++ {
			r.Record(&item{})
		}
	}
	var inflight *item
	for _, step := range []struct {
		name    string
		do      func()
		count   uint64
		recent  []uint64 // Recent(0)
		recent2 []uint64 // Recent(2)
		since   []uint64 // Since(1, 0): everything after ID 1
		lost    uint64
	}{
		{"empty", func() {}, 0, []uint64{}, []uint64{}, nil, 0},
		{"part full", func() { record(3) }, 3, []uint64{3, 2, 1}, []uint64{3, 2}, []uint64{2, 3}, 0},
		{"lapped", func() { record(3) }, 6, []uint64{6, 5, 4, 3}, []uint64{6, 5}, []uint64{3, 4, 5, 6}, 1},
		// ID 7 addresses the slot item 3 sits in until it is published.
		{"claimed", func() { inflight = &item{id: r.Claim()} }, 7, []uint64{6, 5, 4}, []uint64{6, 5}, []uint64{4, 5, 6}, 3},
		{"published", func() { r.Record(inflight) }, 7, []uint64{7, 6, 5, 4}, []uint64{7, 6}, []uint64{4, 5, 6, 7}, 2},
	} {
		step.do()
		if got := r.Count(); got != step.count {
			t.Errorf("%s: Count = %d, want %d", step.name, got, step.count)
		}
		if got := itemIDs(r.Recent(0)); !slices.Equal(got, step.recent) {
			t.Errorf("%s: Recent(0) = %v, want %v", step.name, got, step.recent)
		}
		if got := itemIDs(r.Recent(2)); !slices.Equal(got, step.recent2) {
			t.Errorf("%s: Recent(2) = %v, want %v", step.name, got, step.recent2)
		}
		vs, next, lost := r.Since(1, 0)
		if step.count <= 1 {
			if vs != nil || next != 1 || lost != 0 {
				t.Errorf("%s: Since past the newest ID = %v, next %d, lost %d; want nothing, cursor kept", step.name, itemIDs(vs), next, lost)
			}
			continue
		}
		if got := itemIDs(vs); !slices.Equal(got, step.since) || next != step.count || lost != step.lost {
			t.Errorf("%s: Since(1, 0) = %v, next %d, lost %d; want %v, %d, %d",
				step.name, got, next, lost, step.since, step.count, step.lost)
		}
		if uint64(len(vs))+lost != next-1 {
			t.Errorf("%s: Since returned %d + lost %d != span %d", step.name, len(vs), lost, next-1)
		}
	}

	// The max cap stops the cursor short instead of skipping values.
	vs, next, lost := r.Since(3, 2)
	if got := itemIDs(vs); !slices.Equal(got, []uint64{4, 5}) || next != 5 || lost != 0 {
		t.Errorf("Since(3, 2) = %v, next %d, lost %d; want [4 5], 5, 0", got, next, lost)
	}
}

func TestRingNil(t *testing.T) {
	var r *Ring[item]
	r.Record(&item{})
	if r.Claim() != 0 || r.Count() != 0 || r.Recent(1) != nil {
		t.Error("nil ring not inert")
	}
	if vs, next, lost := r.Since(3, 0); vs != nil || next != 3 || lost != 0 {
		t.Errorf("nil ring Since = %v, %d, %d; want the cursor back", vs, next, lost)
	}
	newItemRing(2).Record(nil) // a nil value is dropped, not published
}
