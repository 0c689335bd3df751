package durable

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzScanWAL holds the WAL scanner to its contract over arbitrary bytes: it
// never panics; the valid prefix it reports lies inside the input; the
// records it returns have strictly increasing sequence numbers; the prefix
// alone scans to the same records; and that prefix, with one more frame
// appended the way Append frames it, scans to those records plus the new
// one — so recovery's truncate-then-append leaves a log that replays. The
// checked-in corpus under testdata/fuzz/FuzzScanWAL is cut from a real log
// (a server's -data-dir after registering and materializing a table and
// overriding two links): whole, torn mid-frame, with a scribbled payload, and
// with its second frame's sequence number rewound.
func FuzzScanWAL(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := scanWAL(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("record %d: seq %d after %d", i, recs[i].Seq, recs[i-1].Seq)
			}
		}
		again, againValid := scanWAL(data[:valid])
		if againValid != valid {
			t.Fatalf("the valid prefix rescans to valid = %d, want %d", againValid, valid)
		}
		sameRecords(t, again, recs)

		last := uint64(0)
		if len(recs) > 0 {
			last = recs[len(recs)-1].Seq
		}
		if last == math.MaxUint64 {
			return // no later sequence number to append
		}
		next := Record{Seq: last + 1, Op: "fuzz", Data: json.RawMessage(`{"n":1}`)}
		frame, err := encodeFrame(next)
		if err != nil {
			t.Fatal(err)
		}
		grown := append(bytes.Clone(data[:valid]), frame...)
		got, gotValid := scanWAL(grown)
		if gotValid != int64(len(grown)) {
			t.Fatalf("prefix plus one frame: valid = %d of %d bytes", gotValid, len(grown))
		}
		sameRecords(t, got, append(recs[:len(recs):len(recs)], next))
	})
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Op != want[i].Op || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
