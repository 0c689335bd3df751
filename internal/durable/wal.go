package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
)

// Record is one logged mutation. Op names the mutation kind (the engine
// defines the vocabulary); Data is its JSON payload, opaque to this layer.
// Seq is the store-wide mutation sequence number: strictly increasing,
// assigned at append time, and used on recovery to skip records a snapshot
// already covers.
type Record struct {
	Seq  uint64          `json:"seq"`
	Op   string          `json:"op"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Each WAL record is framed as
//
//	uint32 LE  payload length
//	uint32 LE  CRC-32C (Castagnoli) of the payload
//	payload    (JSON-encoded Record)
//
// The length prefix lets replay skip to the next frame without parsing
// JSON; the checksum catches torn writes that truncated or scribbled the
// payload. A frame that fails any check — short header, impossible length,
// checksum mismatch, undecodable or out-of-order payload — marks the torn
// tail: everything before it is the valid log, everything from it on is
// discarded by truncating the file.
const walHeaderLen = 8

// maxWALRecord bounds one record's payload (a profile snapshot in a WAL
// record can reach megabytes; 256 MiB is far beyond anything legitimate and
// keeps a corrupt length prefix from provoking a giant allocation).
const maxWALRecord = 256 << 20

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only mutation log. Every Append is fsynced before it
// returns, so an acknowledged record survives SIGKILL. Safe for concurrent
// appends (callers serialize on the owning Store's mutex in practice).
type WAL struct {
	f    walFile
	path string
	size int64
	// poisoned is the error that left the file's contents unknown: a failed
	// append that could not be undone. Every later Append fails with it.
	poisoned error
}

// walFile is what a WAL does with its file: an *os.File, or in a test one
// that fails a write or a sync.
type walFile interface {
	Write(b []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// ReplayInfo reports what OpenWAL found on disk.
type ReplayInfo struct {
	// Records is how many valid records the log held.
	Records int
	// TornTail reports the file ended in a partial or corrupt record, which
	// was truncated away.
	TornTail bool
	// TruncatedBytes is how many trailing bytes the truncation removed.
	TruncatedBytes int64
}

// OpenWAL opens (creating if absent) the log at path, replays its valid
// prefix, truncates any torn tail, and returns the surviving records along
// with the open, append-ready log. Records are validated structurally
// (framing, checksum, JSON, strictly increasing Seq); applying them is the
// caller's business.
func OpenWAL(path string) (*WAL, []Record, ReplayInfo, error) {
	var info ReplayInfo
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, info, fmt.Errorf("durable: read wal %s: %w", path, err)
	}
	recs, valid := scanWAL(data)
	info.Records = len(recs)
	if valid < int64(len(data)) {
		info.TornTail = true
		info.TruncatedBytes = int64(len(data)) - valid
		if err := os.Truncate(path, valid); err != nil {
			return nil, nil, info, fmt.Errorf("durable: truncate torn wal tail %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, info, fmt.Errorf("durable: open wal %s: %w", path, err)
	}
	if err := syncDir(dirOf(path)); err != nil {
		f.Close()
		return nil, nil, info, err
	}
	return &WAL{f: f, path: path, size: valid}, recs, info, nil
}

// scanWAL walks the framed records in data, returning the decoded valid
// prefix and the byte offset where validity ends (the truncation point).
func scanWAL(data []byte) (recs []Record, valid int64) {
	off := int64(0)
	lastSeq := uint64(0)
	for {
		rest := data[off:]
		if len(rest) < walHeaderLen {
			return recs, off // short header (or clean EOF): torn tail starts here
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > maxWALRecord || int64(walHeaderLen)+int64(n) > int64(len(rest)) {
			return recs, off // impossible or truncated payload
		}
		payload := rest[walHeaderLen : walHeaderLen+int64(n)]
		if crc32.Checksum(payload, walCRC) != sum {
			return recs, off // scribbled payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off // checksum collided with garbage; stop cleanly
		}
		if rec.Seq <= lastSeq {
			return recs, off // sequence went backwards: later writes are suspect
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		off += walHeaderLen + int64(n)
	}
}

// encodeFrame encodes one record as its WAL frame: header, then JSON
// payload.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("durable: encode wal record: %w", err)
	}
	frame := make([]byte, walHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, walCRC))
	copy(frame[walHeaderLen:], payload)
	return frame, nil
}

// Append frames, writes, and fsyncs one record. The record is only
// acknowledged (nil error) once it is on disk. A failed write or fsync is
// undone: the file is cut back to the acknowledged records and fsynced, so
// neither a frame that landed unacknowledged nor half a frame is in the log
// the next record is appended to. When that fails too, the file's contents
// are unknown and the WAL is poisoned: every later Append fails, until the
// store is reopened and recovery reads what is really on disk.
func (w *WAL) Append(rec Record) error {
	if w.poisoned != nil {
		return fmt.Errorf("durable: wal unusable until reopened: %w", w.poisoned)
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		return w.undo(fmt.Errorf("durable: append wal record: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.undo(fmt.Errorf("durable: sync wal: %w", err))
	}
	w.size += int64(len(frame))
	return nil
}

// undo cuts the file back to the acknowledged records after a failed append
// and returns the append's error; if the cut or its fsync fails, it poisons
// the WAL.
func (w *WAL) undo(err error) error {
	terr := w.f.Truncate(w.size)
	if terr == nil {
		terr = w.f.Sync()
	}
	if terr != nil {
		w.poisoned = err
		return fmt.Errorf("%w (and undoing it failed: %v)", err, terr)
	}
	return err
}

// Size is the log's current byte length (the snapshot-rotation trigger).
func (w *WAL) Size() int64 { return w.size }

// Reset empties the log — called after a snapshot has captured everything
// the log recorded, so recovery never replays a covered mutation twice
// (records also carry Seq as a second, belt-and-braces guard).
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: rotate wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: rotate wal: %w", err)
	}
	w.size = 0
	return nil
}

// Close closes the underlying file. Append after Close fails.
func (w *WAL) Close() error { return w.f.Close() }

func dirOf(path string) string {
	if i := len(path) - 1; i >= 0 {
		for ; i >= 0; i-- {
			if path[i] == '/' {
				return path[:i+1]
			}
		}
	}
	return "."
}
