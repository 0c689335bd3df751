package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func writeRecords(t *testing.T, path string, n int) []Record {
	t.Helper()
	w, recs, _, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	var want []Record
	for i := 1; i <= n; i++ {
		rec := Record{
			Seq:  uint64(i),
			Op:   fmt.Sprintf("op-%d", i),
			Data: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)),
		}
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return want
}

func reopen(t *testing.T, path string) (*WAL, []Record, ReplayInfo) {
	t.Helper()
	w, recs, info, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return w, recs, info
}

func checkRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Op != want[i].Op || string(got[i].Data) != string(want[i].Data) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	want := writeRecords(t, path, 5)
	w, got, info := reopen(t, path)
	defer w.Close()
	checkRecords(t, got, want)
	if info.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	if fi, err := os.Stat(path); err != nil || w.Size() != fi.Size() {
		t.Fatalf("Size() = %d, file: %v %v", w.Size(), fi, err)
	}
}

// TestWALTornWrites is the satellite-4 table: each case corrupts the log's
// tail a different way and asserts replay stops cleanly at the last valid
// record, truncates the damage, and leaves the log appendable.
func TestWALTornWrites(t *testing.T) {
	cases := []struct {
		name string
		// corrupt mutates the raw log bytes; survivors is how many of the 5
		// written records must survive replay.
		corrupt   func(data []byte) []byte
		survivors int
	}{
		{
			name: "truncate mid-header",
			corrupt: func(data []byte) []byte {
				return data[:lastFrameOffset(data)+3] // 3 of 8 header bytes
			},
			survivors: 4,
		},
		{
			name: "truncate mid-payload",
			corrupt: func(data []byte) []byte {
				off := lastFrameOffset(data)
				return data[:off+walHeaderLen+2] // header intact, payload cut short
			},
			survivors: 4,
		},
		{
			name: "flip one payload byte",
			corrupt: func(data []byte) []byte {
				off := lastFrameOffset(data)
				data[off+walHeaderLen+1] ^= 0xFF
				return data
			},
			survivors: 4,
		},
		{
			name: "flip one checksum byte",
			corrupt: func(data []byte) []byte {
				off := lastFrameOffset(data)
				data[off+5] ^= 0xFF
				return data
			},
			survivors: 4,
		},
		{
			name: "garbage appended after valid records",
			corrupt: func(data []byte) []byte {
				return append(data, []byte("\x00\x01\x02 not a frame")...)
			},
			survivors: 5,
		},
		{
			name: "zero length prefix in tail",
			corrupt: func(data []byte) []byte {
				return append(data, make([]byte, walHeaderLen)...)
			},
			survivors: 5,
		},
		{
			name: "absurd length prefix in tail",
			corrupt: func(data []byte) []byte {
				tail := make([]byte, walHeaderLen)
				binary.LittleEndian.PutUint32(tail[0:4], maxWALRecord+1)
				return append(data, tail...)
			},
			survivors: 5,
		},
		{
			name: "valid frame with regressing seq",
			corrupt: func(data []byte) []byte {
				payload, _ := json.Marshal(Record{Seq: 2, Op: "stale"})
				tail := make([]byte, walHeaderLen+len(payload))
				binary.LittleEndian.PutUint32(tail[0:4], uint32(len(payload)))
				binary.LittleEndian.PutUint32(tail[4:8], walChecksum(payload))
				copy(tail[walHeaderLen:], payload)
				return append(data, tail...)
			},
			survivors: 5,
		},
		{
			name: "whole file is garbage",
			corrupt: func(data []byte) []byte {
				return []byte("this was never a WAL")
			},
			survivors: 0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			want := writeRecords(t, path, 5)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read log: %v", err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatalf("write corrupted log: %v", err)
			}

			w, got, info := reopen(t, path)
			checkRecords(t, got, want[:tc.survivors])
			if !info.TornTail {
				t.Fatal("corruption not reported as a torn tail")
			}
			if info.TruncatedBytes <= 0 {
				t.Fatalf("TruncatedBytes = %d, want > 0", info.TruncatedBytes)
			}

			// The damaged tail must be gone from disk...
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatalf("stat truncated log: %v", err)
			}
			if fi.Size() != w.Size() {
				t.Fatalf("file size %d != WAL size %d after truncation", fi.Size(), w.Size())
			}

			// ...and the log must accept and persist appends again.
			next := uint64(tc.survivors) + 1
			rec := Record{Seq: next, Op: "after-repair"}
			if err := w.Append(rec); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			w2, got2, info2 := reopen(t, path)
			defer w2.Close()
			checkRecords(t, got2, append(append([]Record(nil), want[:tc.survivors]...), rec))
			if info2.TornTail {
				t.Fatal("repaired log still reports a torn tail")
			}
		})
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeRecords(t, path, 3)
	w, _, _ := reopen(t, path)
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if w.Size() != 0 {
		t.Fatalf("after Reset size=%d, want 0", w.Size())
	}
	// Appends after rotation land at the start of the now-empty file.
	if err := w.Append(Record{Seq: 10, Op: "post-rotate"}); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
	w.Close()
	w2, got, info := reopen(t, path)
	defer w2.Close()
	if info.TornTail {
		t.Fatal("rotated log reports a torn tail")
	}
	checkRecords(t, got, []Record{{Seq: 10, Op: "post-rotate"}})
}

// lastFrameOffset returns the byte offset of the final frame in a valid log.
func lastFrameOffset(data []byte) int {
	off := 0
	for {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		next := off + walHeaderLen + n
		if next >= len(data) {
			return off
		}
		off = next
	}
}

func walChecksum(payload []byte) uint32 {
	return crc32.Checksum(payload, walCRC)
}
