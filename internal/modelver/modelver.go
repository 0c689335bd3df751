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
	"encoding/json"
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

// Improved reports whether the candidate beat the live model.
func (h HoldoutScore) Improved() bool { return h.CandidateQ < h.LiveQ }

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

// Record archives a profile snapshot for a system and returns its version.
// savedAt stamps it; the zero time stamps it now (a replay passes the time
// the version was first recorded). When markLive is set the new version
// becomes the system's live version. The profile bytes are copied; callers
// may reuse the slice.
func (s *Store) Record(system, origin string, profile []byte, holdout *HoldoutScore, savedAt time.Time, markLive bool) Version {
	if savedAt.IsZero() {
		savedAt = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID[system]++
	v := &Version{
		ID:      s.nextID[system],
		System:  system,
		Origin:  origin,
		SavedAt: savedAt,
		Holdout: holdout,
		Profile: append([]byte(nil), profile...),
		Size:    len(profile),
	}
	s.versions[system] = append(s.versions[system], v)
	if markLive {
		s.live[system] = v.ID
	}
	s.evictLocked(system)
	return s.export(*v)
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

// State is the store's serializable form for engine-wide snapshots. Version
// listings strip profile bytes (Version.Profile is json:"-"), so snapshots
// use this parallel wire type that carries them: restoring a State
// reproduces the store — IDs, live markers, and rollback targets —
// byte-identically.
type State struct {
	Systems map[string]SystemState `json:"systems,omitempty"`
}

// SystemState is one system's archived history.
type SystemState struct {
	// NextID is the ID counter, preserved so versions recorded after a
	// restore continue the original numbering.
	NextID int `json:"next_id"`
	// Live is the live version's ID (0 = none).
	Live int `json:"live,omitempty"`
	// Versions is the retained history, oldest first.
	Versions []VersionState `json:"versions"`
}

// VersionState is one archived version with its profile bytes inline.
type VersionState struct {
	ID      int             `json:"id"`
	Origin  string          `json:"origin"`
	SavedAt time.Time       `json:"saved_at"`
	Holdout *HoldoutScore   `json:"holdout,omitempty"`
	Profile json.RawMessage `json:"profile"`
}

// Export captures the whole store as a State.
func (s *Store) Export() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.versions) == 0 {
		return State{}
	}
	st := State{Systems: make(map[string]SystemState, len(s.versions))}
	for system, vs := range s.versions {
		ss := SystemState{
			NextID:   s.nextID[system],
			Live:     s.live[system],
			Versions: make([]VersionState, 0, len(vs)),
		}
		for _, v := range vs {
			ss.Versions = append(ss.Versions, VersionState{
				ID:      v.ID,
				Origin:  v.Origin,
				SavedAt: v.SavedAt,
				Holdout: v.Holdout,
				Profile: append(json.RawMessage(nil), v.Profile...),
			})
		}
		st.Systems[system] = ss
	}
	return st
}

// Restore replaces the store's entire contents with a previously exported
// State. The retention limit is the receiver's, so a restore into a store
// with a smaller limit evicts oldest-first as usual on the next Record.
func (s *Store) Restore(st State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions = make(map[string][]*Version, len(st.Systems))
	s.nextID = make(map[string]int, len(st.Systems))
	s.live = make(map[string]int, len(st.Systems))
	for system, ss := range st.Systems {
		vs := make([]*Version, 0, len(ss.Versions))
		for _, v := range ss.Versions {
			vs = append(vs, &Version{
				ID:      v.ID,
				System:  system,
				Origin:  v.Origin,
				SavedAt: v.SavedAt,
				Holdout: v.Holdout,
				Profile: append([]byte(nil), v.Profile...),
				Size:    len(v.Profile),
			})
		}
		s.versions[system] = vs
		s.nextID[system] = ss.NextID
		s.live[system] = ss.Live
	}
}
