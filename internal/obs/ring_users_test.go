package obs

import (
	"sync"
	"testing"

	"intellisphere/internal/metrics"
	"intellisphere/internal/trace"
)

// TestRingUsersLapped drives the one recent-N ring through the write paths
// of its concurrent users — traces whose IDs are claimed before the query
// runs, events stamped as they are recorded — with writers lapping an 8-slot
// ring under a reader. Run under -race. The reader holds
// every snapshot to the ring's contract: Recent is strictly descending by ID
// (so free of duplicates), Recent(1) never goes back in time, Since is
// ascending within (after, next] and accounts for every ID it passed over.
func TestRingUsersLapped(t *testing.T) {
	const size = 8
	t.Run("traces", func(t *testing.T) {
		r := trace.NewRing(size)
		lapRing(t, size, (*metrics.Ring[trace.Trace])(r), func(tr *trace.Trace) uint64 { return tr.ID }, func() {
			tr := r.NewTrace("q") // claims the ID; other writers publish past it
			tr.Finish(nil)
			r.Record(tr)
		})
	})
	t.Run("events", func(t *testing.T) {
		rec := NewRecorder(RecorderConfig{SampleRate: 1, RingSize: size})
		lapRing(t, size, rec.Ring(), func(ev *Event) uint64 { return ev.ID }, func() {
			rec.Record(&Event{Kind: "query"})
		})
	})
}

func lapRing[T any](t *testing.T, size int, r *metrics.Ring[T], id func(*T) uint64, write func()) {
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				write()
			}
		}()
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	var cursor, newestSeen uint64
	check := func() {
		recent := r.Recent(0)
		for i := 1; i < len(recent); i++ {
			if id(recent[i]) >= id(recent[i-1]) {
				t.Fatalf("Recent(0) not strictly descending: %d then %d", id(recent[i-1]), id(recent[i]))
			}
		}
		if len(recent) > 0 && id(recent[0]) > newestSeen {
			newestSeen = id(recent[0])
		}
		if one := r.Recent(1); len(one) > 1 {
			t.Fatalf("Recent(1) returned %d values", len(one))
		} else if len(one) == 1 {
			if id(one[0]) < newestSeen {
				t.Fatalf("Recent(1) = ID %d after ID %d was already seen published", id(one[0]), newestSeen)
			}
			newestSeen = id(one[0])
		}
		vs, next, lost := r.Since(cursor, 5)
		prev := cursor
		for _, v := range vs {
			if id(v) <= prev || id(v) > next {
				t.Fatalf("Since(%d) returned ID %d after %d with next %d", cursor, id(v), prev, next)
			}
			prev = id(v)
		}
		if uint64(len(vs))+lost != next-cursor {
			t.Fatalf("Since(%d): returned %d + lost %d != span %d", cursor, len(vs), lost, next-cursor)
		}
		cursor = next
	}
	for running := true; running; {
		select {
		case <-writersDone:
			running = false
		default:
		}
		check()
	}

	// Quiescent: everything is published, so the ring holds exactly the last
	// size IDs and the cursor drains to the end.
	total := uint64(writers * perWriter)
	recent := r.Recent(0)
	if r.Count() != total || len(recent) != size || id(recent[0]) != total {
		t.Fatalf("after the writers: Count %d, Recent(0) holds %d values; want %d and the %d IDs from %d down",
			r.Count(), len(recent), total, size, total)
	}
	for cursor < total {
		check()
	}
}
