package server

import (
	"fmt"
	"net/http"
	"time"

	"intellisphere/internal/catalog"
	"intellisphere/internal/engine"
	"intellisphere/internal/querygrid"
)

// This file is the durable-mutation admin surface: the endpoints that change
// engine state the write-ahead log must remember (catalog registrations,
// materializations, QueryGrid link overrides), plus the durability status
// that /health and /metrics/prom report. The crash-recovery smoke and soak
// drive the engine exclusively through these routes, so every mutation they
// accept acks only after the engine has WAL-logged it.

// WithDurability attaches the engine's durability handle, enabling the
// recovery block on /health and the durability gauges on /metrics/prom.
// Without it both surfaces simply omit durability (stateless serving).
func (s *Server) WithDurability(d *engine.Durability) *Server {
	s.dur = d
	return s
}

// catalogEntry describes one table on GET /catalog.
type catalogEntry struct {
	Table        *catalog.Table `json:"table"`
	Materialized bool           `json:"materialized"`
}

// catalogRequest is the POST /catalog body. Register a table, materialize
// one by name, or both in a single request (registration happens first, so
// a new table can be materialized in the same call).
type catalogRequest struct {
	Table       *catalog.Table `json:"table,omitempty"`
	Materialize string         `json:"materialize,omitempty"`
}

// handleCatalog serves the catalog admin surface: GET lists every
// registered table with its materialization flag; POST registers and/or
// materializes. A 200 means the mutation is durable (WAL-appended and
// fsynced) wherever a data directory is configured.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		req, err := decodeAdminBody[catalogRequest](w, r, `{"table": {...}} or {"materialize": "name"}`)
		if err != nil {
			s.writeError(w, requestStatus(err), err)
			return
		}
		if req.Table == nil && req.Materialize == "" {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf(`want "table" and/or "materialize"`))
			return
		}
		if req.Table != nil {
			if err := s.eng.RegisterTable(req.Table); err != nil {
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		if req.Materialize != "" {
			if err := s.eng.Materialize(req.Materialize); err != nil {
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		name := req.Materialize
		if req.Table != nil {
			name = req.Table.Name
		}
		t, err := s.eng.Catalog().Lookup(name)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		s.writeJSON(w, http.StatusOK, catalogEntry{
			Table: t, Materialized: s.materialized()[name],
		})
		return
	}
	mat := s.materialized()
	tables := s.eng.Catalog().List()
	out := make([]catalogEntry, 0, len(tables))
	for _, t := range tables {
		out = append(out, catalogEntry{Table: t, Materialized: mat[t.Name]})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// materialized returns the set of locally materialized tables.
func (s *Server) materialized() map[string]bool {
	names := s.eng.MaterializedNames()
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

// linksResponse is the GET /links payload: the default link plus every
// per-system override.
type linksResponse struct {
	Default querygrid.LinkConfig            `json:"default"`
	Links   map[string]querygrid.LinkConfig `json:"links"`
}

// linkRequest is the POST /links body: install (or replace) one system's
// QueryGrid link override.
type linkRequest struct {
	System string               `json:"system"`
	Link   querygrid.LinkConfig `json:"link"`
}

// handleLinks serves the QueryGrid link admin surface: GET reports the
// default and per-system link configurations; POST installs one override
// (validated, plan cache invalidated, WAL-logged).
func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		req, err := decodeAdminBody[linkRequest](w, r, `{"system": ..., "link": {...}}`)
		if err != nil {
			s.writeError(w, requestStatus(err), err)
			return
		}
		if req.System == "" {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("system is required"))
			return
		}
		if err := s.eng.SetLink(req.System, req.Link); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		s.writeJSON(w, http.StatusOK, req)
		return
	}
	s.writeJSON(w, http.StatusOK, linksResponse{
		Default: s.eng.Grid().Default(),
		Links:   s.eng.Grid().Links(),
	})
}

// recoveryStatus is the wire shape of the boot recovery summary on /health.
type recoveryStatus struct {
	Restored           bool    `json:"restored"`
	SnapshotSeq        uint64  `json:"snapshot_seq,omitempty"`
	SnapshotsDiscarded int     `json:"snapshots_discarded,omitempty"`
	Replayed           int     `json:"replayed"`
	SkippedCovered     int     `json:"skipped_covered,omitempty"`
	TornTail           bool    `json:"torn_tail,omitempty"`
	TruncatedBytes     int64   `json:"truncated_bytes,omitempty"`
	DurationSec        float64 `json:"duration_sec"`
}

// durabilityStatus is the durability block on /health: what recovery did at
// boot plus the live snapshot/WAL position.
type durabilityStatus struct {
	Recovery       recoveryStatus `json:"recovery"`
	Seq            uint64         `json:"seq"`
	WALBytes       int64          `json:"wal_bytes"`
	SnapshotSeq    uint64         `json:"snapshot_seq"`
	SnapshotAgeSec float64        `json:"snapshot_age_sec,omitempty"`
	SnapshotErrors uint64         `json:"snapshot_errors,omitempty"`
}

// healthResponse extends the engine's availability verdict with the
// durability block when a data directory is configured and the SLO summary
// when objectives are declared.
type healthResponse struct {
	engine.Health
	Durability *durabilityStatus `json:"durability,omitempty"`
	SLO        *sloHealth        `json:"slo,omitempty"`
}

// durabilityStatus builds the /health durability block, nil when the server
// runs without a data directory.
func (s *Server) durabilityStatus() *durabilityStatus {
	if s.dur == nil {
		return nil
	}
	rec := s.dur.Recovery()
	st, snapErrs := s.dur.Stats()
	out := &durabilityStatus{
		Recovery: recoveryStatus{
			Restored:           rec.Restored,
			SnapshotSeq:        rec.SnapshotSeq,
			SnapshotsDiscarded: rec.SnapshotsDiscarded,
			Replayed:           rec.Replayed,
			SkippedCovered:     rec.SkippedCovered,
			TornTail:           rec.TornTail,
			TruncatedBytes:     rec.TruncatedBytes,
			DurationSec:        rec.DurationSec,
		},
		Seq:            st.Seq,
		WALBytes:       st.WALBytes,
		SnapshotSeq:    st.SnapshotSeq,
		SnapshotErrors: snapErrs,
	}
	if !st.LastSnapshot.IsZero() {
		out.SnapshotAgeSec = time.Since(st.LastSnapshot).Seconds()
	}
	return out
}
