// Package modelver keeps a bounded, per-system history of serialized cost
// model snapshots — the model lifecycle behind drift-triggered retraining.
// Every promotion archives the profile bytes it replaced, so an operator
// (or the tuner itself) can roll a system back to any retained version and
// get the prior model byte-identically. The store is deliberately ignorant
// of what the bytes mean: it stores opaque profile JSON, which keeps it
// free of model-package dependencies and makes byte-identical restore
// trivially checkable.
package modelver

import (
	"fmt"
	"sync"
	"time"
)

// DefaultHistory is the number of versions the engine retains per system.
const DefaultHistory = 8

// Origin values recorded on versions.
const (
	// OriginInitial marks the first archive of a freshly registered model.
	OriginInitial = "initial"
	// OriginTuned marks a promoted tuning candidate.
	OriginTuned = "tuned"
)

// HoldoutScore records how a candidate scored against the live model on
// the shadow-scoring holdout when the version was produced by a tune pass.
type HoldoutScore struct {
	// Samples is the number of holdout (input, actual) pairs scored.
	Samples int `json:"samples"`
	// LiveQ and CandidateQ are the mean q-errors of the then-live model and
	// the candidate over the holdout (1 is perfect).
	LiveQ      float64 `json:"live_q"`
	CandidateQ float64 `json:"candidate_q"`
}

// Version is one archived model snapshot for a system. Profile holds the
// serialized costing-profile JSON exactly as captured; restoring it yields
// the prior model byte for byte.
type Version struct {
	// ID is monotonically increasing per system, starting at 1.
	ID     int    `json:"id"`
	System string `json:"system"`
	// Origin records how the version came to be: "initial" (first archive of
	// a registered model) or "tuned" (a promoted candidate).
	Origin  string    `json:"origin"`
	SavedAt time.Time `json:"saved_at"`
	// Holdout carries the shadow-scoring result for "tuned" versions.
	Holdout *HoldoutScore `json:"holdout,omitempty"`
	// Live marks the version currently installed in the estimator registry.
	Live bool `json:"live"`
	// Profile is the serialized profile (omitted from JSON listings — it can
	// run to megabytes of training data; Size reports its length).
	Profile []byte `json:"-"`
	// Size is len(Profile).
	Size int `json:"size"`
}

// Store keeps a bounded version history per system. Safe for concurrent
// use.
type Store struct {
	mu    sync.Mutex
	limit int
	// versions is ordered oldest → newest per system.
	versions map[string][]*Version
	nextID   map[string]int
	live     map[string]int // live version ID per system (0 = none)
}

// NewStore builds a store retaining up to limit versions per system. The
// live version is never evicted, even when it is the oldest retained.
func NewStore(limit int) *Store {
	return &Store{
		limit:    limit,
		versions: map[string][]*Version{},
		nextID:   map[string]int{},
		live:     map[string]int{},
	}
}

// Record archives a version and returns it as stored. A zero ID takes the
// system's next ID and, when SavedAt is zero too, the current time; a version
// with an ID (one replayed from a snapshot) keeps both, and later IDs continue
// past it. Live makes it the system's live version. The profile bytes are
// copied; callers may reuse the slice.
func (s *Store) Record(v Version) Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.ID == 0 {
		v.ID = s.nextID[v.System] + 1
		if v.SavedAt.IsZero() {
			v.SavedAt = time.Now()
		}
	}
	s.nextID[v.System] = max(s.nextID[v.System], v.ID)
	if v.Live {
		s.live[v.System] = v.ID
	}
	v.Profile = append([]byte(nil), v.Profile...)
	v.Size = len(v.Profile)
	s.versions[v.System] = append(s.versions[v.System], &v)
	s.evictLocked(v.System)
	return s.export(v)
}

// evictLocked drops the oldest non-live versions beyond the limit.
func (s *Store) evictLocked(system string) {
	vs := s.versions[system]
	live := s.live[system]
	for len(vs) > s.limit {
		evicted := false
		for i, v := range vs {
			if v.ID == live {
				continue // never evict the live version
			}
			vs = append(vs[:i], vs[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			break
		}
	}
	s.versions[system] = vs
}

// export stamps the live flag onto a copied version for return to callers.
func (s *Store) export(v Version) Version {
	v.Live = v.ID == s.live[v.System]
	return v
}

// SetLive marks an existing version as the system's live version (a
// rollback restored it). It fails if the version is not retained.
func (s *Store) SetLive(system string, id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.versions[system] {
		if v.ID == id {
			s.live[system] = id
			return nil
		}
	}
	return fmt.Errorf("modelver: system %q has no version %d", system, id)
}

// Get returns one retained version (profile bytes included).
func (s *Store) Get(system string, id int) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.versions[system] {
		if v.ID == id {
			return s.export(*v), true
		}
	}
	return Version{}, false
}

// Live returns the system's live version, if any.
func (s *Store) Live(system string) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.live[system]
	if id == 0 {
		return Version{}, false
	}
	for _, v := range s.versions[system] {
		if v.ID == id {
			return s.export(*v), true
		}
	}
	return Version{}, false
}

// Prev returns the newest retained version older than the live one — the
// rollback target.
func (s *Store) Prev(system string) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.live[system]
	if live == 0 {
		return Version{}, false
	}
	var best *Version
	for _, v := range s.versions[system] {
		if v.ID < live && (best == nil || v.ID > best.ID) {
			best = v
		}
	}
	if best == nil {
		return Version{}, false
	}
	return s.export(*best), true
}

// List returns a system's retained versions, oldest first (profile bytes
// included on the copies).
func (s *Store) List(system string) []Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.versions[system]
	out := make([]Version, 0, len(vs))
	for _, v := range vs {
		out = append(out, s.export(*v))
	}
	return out
}

// Count returns how many versions a system retains.
func (s *Store) Count(system string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.versions[system])
}
