package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Snapshot files are named snap-<seq>.json where <seq> is the highest
// mutation sequence number the snapshot covers (zero-padded so lexical and
// numeric order agree). Recovery tries them newest-first and falls back to
// the next-older file when one fails to restore, so a crash mid-snapshot
// (the atomic rename never happened) or a corrupted file costs at most the
// WAL replay back to the previous snapshot.
const snapPrefix = "snap-"
const snapSuffix = ".json"

// RecoverFuncs are the callbacks Open drives during recovery. Restore
// receives a snapshot's raw bytes (at most once, for the newest valid
// snapshot); Apply receives each WAL record past it, in order. Either may
// reject its input with an error: a Restore error discards that snapshot
// and falls back to an older one, an Apply error aborts Open (the log is
// structurally valid by then, so a semantic failure means the state schema
// and the log disagree — not something to paper over).
type RecoverFuncs struct {
	Restore func(seq uint64, data []byte) error
	Apply   func(rec Record) error
}

// Recovery reports what Open did, for logs, /metrics/prom, and /health,
// which serves it as is (hence the JSON tags).
type Recovery struct {
	// Restored reports a snapshot was successfully restored.
	Restored bool `json:"restored"`
	// SnapshotSeq is the restored snapshot's sequence number (0 if none).
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	// SnapshotsDiscarded counts snapshot files that failed to restore and
	// were skipped in favor of an older one.
	SnapshotsDiscarded int `json:"snapshots_discarded,omitempty"`
	// Replayed is how many WAL records were applied past the snapshot.
	Replayed int `json:"replayed"`
	// SkippedCovered is how many structurally valid WAL records were already
	// covered by the snapshot (crash between snapshot and log rotation).
	SkippedCovered int `json:"skipped_covered,omitempty"`
	// TornTail and TruncatedBytes describe WAL tail truncation (see ReplayInfo).
	TornTail       bool  `json:"torn_tail,omitempty"`
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// DurationSec is the wall time recovery took.
	DurationSec float64 `json:"duration_sec"`
}

// Stats is a point-in-time durability summary for the metrics surface.
type Stats struct {
	// WALBytes is the current log segment's length.
	WALBytes int64
	// Seq is the last assigned mutation sequence number.
	Seq uint64
	// SnapshotSeq is the seq the newest on-disk snapshot covers.
	SnapshotSeq uint64
	// LastSnapshot is when the newest snapshot was written (zero if never
	// in this process and none was restored).
	LastSnapshot time.Time
	// Appends and Snapshots count operations since this process opened the
	// store.
	Appends   uint64
	Snapshots uint64
}

// Store manages one data directory: a rotating set of snapshots plus the
// write-ahead log between them. All methods are safe for concurrent use;
// Append holds the store mutex across sequence assignment, write, and
// fsync, so WAL order is exactly acknowledgment order.
type Store struct {
	dir string

	mu        sync.Mutex
	wal       *WAL
	seq       uint64
	snapSeq   uint64
	snapTime  time.Time
	appends   uint64
	snapshots uint64
	closed    bool
}

// keepSnapshots is how many snapshots a store retains: the newest plus one
// fallback for mid-write crashes.
const keepSnapshots = 2

// StoreConfig configures Open.
type StoreConfig struct {
	// Dir is the data directory; created (with parents) if absent.
	Dir string
}

// Open opens the data directory, restores the newest valid snapshot through
// fn.Restore, replays WAL records past it through fn.Apply, and returns the
// store ready for appends. A nil fn.Restore skips snapshots entirely; a nil
// fn.Apply skips replay (records still advance the sequence counter).
func Open(cfg StoreConfig, fn RecoverFuncs) (*Store, Recovery, error) {
	start := time.Now()
	var rec Recovery
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("durable: create data dir: %w", err)
	}
	s := &Store{dir: cfg.Dir}

	snaps, err := s.listSnapshots()
	if err != nil {
		return nil, rec, err
	}
	if fn.Restore != nil {
		for i := len(snaps) - 1; i >= 0; i-- {
			seq := snaps[i]
			path := s.snapPath(seq)
			data, err := os.ReadFile(path)
			if err == nil {
				err = fn.Restore(seq, data)
			}
			if err != nil {
				rec.SnapshotsDiscarded++
				continue
			}
			rec.Restored = true
			rec.SnapshotSeq = seq
			s.snapSeq = seq
			s.seq = seq
			if fi, statErr := os.Stat(path); statErr == nil {
				s.snapTime = fi.ModTime()
			}
			break
		}
	}

	wal, recs, info, err := OpenWAL(filepath.Join(cfg.Dir, "wal.log"))
	if err != nil {
		return nil, rec, err
	}
	rec.TornTail = info.TornTail
	rec.TruncatedBytes = info.TruncatedBytes
	for _, r := range recs {
		if r.Seq <= s.seq {
			// A crash between snapshot write and log rotation leaves records
			// the snapshot already covers; the seq gate skips them.
			rec.SkippedCovered++
			continue
		}
		if fn.Apply != nil {
			if err := fn.Apply(r); err != nil {
				wal.Close()
				return nil, rec, fmt.Errorf("durable: replay wal record seq=%d op=%s: %w", r.Seq, r.Op, err)
			}
		}
		s.seq = r.Seq
		rec.Replayed++
	}
	s.wal = wal
	rec.DurationSec = time.Since(start).Seconds()
	return s, rec, nil
}

// Append assigns the next sequence number, writes the record, and fsyncs.
// It returns the assigned seq; on a nil error the mutation is durable.
func (s *Store) Append(op string, data json.RawMessage) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("durable: append on closed store")
	}
	seq := s.seq + 1
	if err := s.wal.Append(Record{Seq: seq, Op: op, Data: data}); err != nil {
		return 0, err
	}
	s.seq = seq
	s.appends++
	return seq, nil
}

// WriteSnapshot persists data as the snapshot covering every mutation up to
// and including seq, prunes old snapshots beyond the retention count, and
// rotates (empties) the WAL when the snapshot covers its entire contents.
// When the snapshot cannot be made durable (its write, rename or directory
// fsync fails) it returns that error having pruned and rotated nothing, so
// the older snapshots and the log still cover every acked mutation.
// The caller must guarantee data really reflects all mutations ≤ seq —
// in practice by capturing state and calling NextSeq under the same locks
// that serialize Append callers.
func (s *Store) WriteSnapshot(seq uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: snapshot on closed store")
	}
	if seq < s.snapSeq {
		return fmt.Errorf("durable: snapshot seq %d older than existing %d", seq, s.snapSeq)
	}
	if err := WriteFileAtomic(s.snapPath(seq), data, 0o644); err != nil {
		return err
	}
	s.snapSeq = seq
	s.snapTime = time.Now()
	s.snapshots++
	s.pruneLocked()
	if seq >= s.seq {
		// Every logged record is covered; empty the log so boot replays
		// nothing. If we crash before this truncate the seq gate in Open
		// skips the covered records anyway.
		if err := s.wal.Reset(); err != nil {
			return err
		}
	}
	return nil
}

// Seq returns the last assigned mutation sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// WALSize returns the current log segment's byte length.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Size()
}

// Stats returns a point-in-time durability summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		WALBytes:     s.wal.Size(),
		Seq:          s.seq,
		SnapshotSeq:  s.snapSeq,
		LastSnapshot: s.snapTime,
		Appends:      s.appends,
		Snapshots:    s.snapshots,
	}
}

// Close closes the WAL. Further Append/WriteSnapshot calls fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}

func (s *Store) snapPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix))
}

// listSnapshots returns on-disk snapshot seqs in ascending order.
func (s *Store) listSnapshots() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list snapshots: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // foreign file that happens to match the shape
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// pruneLocked removes snapshots beyond the retention count, never touching
// the newest ones. Best-effort: a prune failure is not a durability failure.
func (s *Store) pruneLocked() {
	seqs, err := s.listSnapshots()
	if err != nil || len(seqs) <= keepSnapshots {
		return
	}
	for _, seq := range seqs[:len(seqs)-keepSnapshots] {
		os.Remove(s.snapPath(seq))
	}
}
