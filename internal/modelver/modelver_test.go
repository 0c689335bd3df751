package modelver

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"
)

func TestRecordAndLive(t *testing.T) {
	s := NewStore(DefaultHistory)
	v1 := s.Record(Version{System: "hive", Origin: "initial", Profile: []byte(`{"v":1}`), Live: true})
	if v1.ID != 1 || !v1.Live || v1.Origin != "initial" || v1.Size != 7 {
		t.Fatalf("v1 = %+v", v1)
	}
	got, ok := s.Live("hive")
	if !ok || got.ID != 1 {
		t.Fatalf("Live = %+v, %v", got, ok)
	}
	if !bytes.Equal(got.Profile, []byte(`{"v":1}`)) {
		t.Fatalf("profile bytes = %q", got.Profile)
	}

	if v1.SavedAt.IsZero() {
		t.Error("a version recorded without a time was not stamped")
	}

	// A replayed version keeps the time it was first recorded at.
	hs := &HoldoutScore{Samples: 4, LiveQ: 9.5, CandidateQ: 1.2}
	at := time.Date(2020, 3, 30, 14, 50, 30, 396869000, time.UTC)
	v2 := s.Record(Version{System: "hive", Origin: "tuned", Profile: []byte(`{"v":2}`), Holdout: hs, SavedAt: at, Live: true})
	if v2.ID != 2 || !v2.Live || v2.Holdout.CandidateQ != 1.2 || !v2.SavedAt.Equal(at) {
		t.Fatalf("v2 = %+v", v2)
	}
	// v1 is no longer live but still retained as the rollback target.
	prev, ok := s.Prev("hive")
	if !ok || prev.ID != 1 || prev.Live {
		t.Fatalf("Prev = %+v, %v", prev, ok)
	}
}

// TestRecordKeepsReplayedID: a version recorded with its own ID (one replayed
// from a snapshot) keeps it and its save time, and the next new version
// continues the counter past it.
func TestRecordKeepsReplayedID(t *testing.T) {
	s := NewStore(DefaultHistory)
	at := time.Date(2020, 3, 30, 14, 50, 30, 0, time.UTC)
	v7 := s.Record(Version{ID: 7, System: "hive", Origin: "tuned", SavedAt: at, Profile: []byte(`7`), Live: true})
	if v7.ID != 7 || !v7.Live || !v7.SavedAt.Equal(at) {
		t.Fatalf("replayed version = %+v", v7)
	}
	if old := s.Record(Version{ID: 3, System: "hive", Origin: "initial", Profile: []byte(`3`)}); old.ID != 3 || !old.SavedAt.IsZero() || old.Live {
		t.Fatalf("older replayed version = %+v, want ID 3 kept unstamped and not live", old)
	}
	if next := s.Record(Version{System: "hive", Origin: "tuned", Profile: []byte(`8`), Live: true}); next.ID != 8 {
		t.Fatalf("next version after a replayed v7 = %d, want 8", next.ID)
	}
	if other := s.Record(Version{System: "spark", Origin: "initial", Profile: []byte(`1`)}); other.ID != 1 {
		t.Fatalf("another system's first version = %d, want 1", other.ID)
	}
}

func TestRecordCopiesBytes(t *testing.T) {
	s := NewStore(DefaultHistory)
	buf := []byte(`{"v":1}`)
	s.Record(Version{System: "hive", Origin: "initial", Profile: buf, Live: true})
	buf[2] = 'X'
	got, _ := s.Live("hive")
	if !bytes.Equal(got.Profile, []byte(`{"v":1}`)) {
		t.Fatalf("stored bytes aliased the caller's slice: %q", got.Profile)
	}
}

func TestSetLiveRollback(t *testing.T) {
	s := NewStore(DefaultHistory)
	s.Record(Version{System: "hive", Origin: "initial", Profile: []byte(`1`), Live: true})
	s.Record(Version{System: "hive", Origin: "tuned", Profile: []byte(`2`), Live: true})
	if err := s.SetLive("hive", 1); err != nil {
		t.Fatalf("SetLive: %v", err)
	}
	live, _ := s.Live("hive")
	if live.ID != 1 {
		t.Fatalf("live after rollback = %d", live.ID)
	}
	// No version older than 1 remains.
	if _, ok := s.Prev("hive"); ok {
		t.Fatal("Prev found a version older than v1")
	}
	if err := s.SetLive("hive", 99); err == nil {
		t.Fatal("SetLive accepted an unknown version")
	}
}

func TestBoundedHistoryKeepsLive(t *testing.T) {
	s := NewStore(3)
	s.Record(Version{System: "hive", Origin: "initial", Profile: []byte(`1`), Live: true})
	for i := 2; i <= 6; i++ {
		s.Record(Version{System: "hive", Origin: "tuned", Profile: []byte(fmt.Sprintf("%d", i))})
	}
	if n := s.Count("hive"); n != 3 {
		t.Fatalf("retained = %d, want 3", n)
	}
	// The live version (v1, the oldest) must survive eviction.
	live, ok := s.Live("hive")
	if !ok || live.ID != 1 {
		t.Fatalf("live evicted: %+v, %v", live, ok)
	}
	ids := []int{}
	for _, v := range s.List("hive") {
		ids = append(ids, v.ID)
	}
	sort.Ints(ids)
	if fmt.Sprint(ids) != "[1 5 6]" {
		t.Fatalf("retained ids = %v, want [1 5 6]", ids)
	}
}

func TestUnknownSystem(t *testing.T) {
	s := NewStore(DefaultHistory)
	if _, ok := s.Live("ghost"); ok {
		t.Fatal("Live on unknown system")
	}
	if _, ok := s.Get("ghost", 1); ok {
		t.Fatal("Get on unknown system")
	}
	if got := s.List("ghost"); len(got) != 0 {
		t.Fatalf("List on unknown system = %v", got)
	}
}
