package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// replayState collects what the recovery callbacks were fed.
type replayState struct {
	restoredSeq  uint64
	restoredData string
	applied      []Record
	failRestore  map[uint64]bool
}

func (rs *replayState) funcs() RecoverFuncs {
	return RecoverFuncs{
		Restore: func(seq uint64, data []byte) error {
			if rs.failRestore[seq] {
				return fmt.Errorf("synthetic restore failure for seq %d", seq)
			}
			rs.restoredSeq = seq
			rs.restoredData = string(data)
			return nil
		},
		Apply: func(rec Record) error {
			rs.applied = append(rs.applied, rec)
			return nil
		},
	}
}

func mustOpen(t *testing.T, dir string, rs *replayState) (*Store, Recovery) {
	t.Helper()
	s, rec, err := Open(StoreConfig{Dir: dir}, rs.funcs())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

func TestStoreAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, &replayState{})
	if rec.Restored || rec.Replayed != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	for i := 1; i <= 3; i++ {
		seq, err := s.Append("mutate", json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	s.Close()

	rs := &replayState{}
	s2, rec2 := mustOpen(t, dir, rs)
	defer s2.Close()
	if rec2.Restored {
		t.Fatal("restored a snapshot that was never written")
	}
	if rec2.Replayed != 3 || len(rs.applied) != 3 {
		t.Fatalf("replayed %d records (callback saw %d), want 3", rec2.Replayed, len(rs.applied))
	}
	if s2.Seq() != 3 {
		t.Fatalf("Seq() = %d, want 3 (appends must continue past replayed records)", s2.Seq())
	}
}

func TestStoreSnapshotRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, &replayState{})
	for i := 0; i < 4; i++ {
		if _, err := s.Append("m", nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.WriteSnapshot(s.Seq(), []byte(`{"state":"full"}`)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if got := s.Stats(); got.WALBytes != 0 {
		t.Fatalf("WAL not rotated after covering snapshot: %+v", got)
	}
	// One more mutation after the snapshot must land in the fresh log.
	if _, err := s.Append("post", nil); err != nil {
		t.Fatalf("Append after snapshot: %v", err)
	}
	s.Close()

	rs := &replayState{}
	_, rec := mustOpen(t, dir, rs)
	if !rec.Restored || rec.SnapshotSeq != 4 {
		t.Fatalf("recovery = %+v, want restore of snapshot seq 4", rec)
	}
	if rs.restoredData != `{"state":"full"}` {
		t.Fatalf("restored %q", rs.restoredData)
	}
	if rec.Replayed != 1 || len(rs.applied) != 1 || rs.applied[0].Seq != 5 {
		t.Fatalf("post-snapshot replay = %+v / %+v", rec, rs.applied)
	}
}

// TestStoreCrashBetweenSnapshotAndRotate simulates SIGKILL after the
// snapshot rename but before the WAL truncate: the log still holds records
// the snapshot covers, and the seq gate must skip them instead of
// double-applying.
func TestStoreCrashBetweenSnapshotAndRotate(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, &replayState{})
	for i := 0; i < 3; i++ {
		if _, err := s.Append("m", nil); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.Close()
	// Write the snapshot file by hand — same bytes WriteSnapshot would
	// publish — while leaving wal.log untouched, exactly the disk state a
	// crash between rename and truncate leaves behind.
	if err := WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, 3, snapSuffix)), []byte(`{}`), 0o644); err != nil {
		t.Fatalf("plant snapshot: %v", err)
	}

	rs := &replayState{}
	s2, rec := mustOpen(t, dir, rs)
	defer s2.Close()
	if !rec.Restored || rec.SnapshotSeq != 3 {
		t.Fatalf("recovery = %+v", rec)
	}
	if rec.Replayed != 0 || len(rs.applied) != 0 {
		t.Fatalf("covered records were replayed: %+v / %+v", rec, rs.applied)
	}
	if rec.SkippedCovered != 3 {
		t.Fatalf("SkippedCovered = %d, want 3", rec.SkippedCovered)
	}
	if s2.Seq() != 3 {
		t.Fatalf("Seq() = %d, want 3", s2.Seq())
	}
}

// TestStoreSnapshotFallback corrupts the newest snapshot and asserts
// recovery falls back to the older one, then replays the full WAL past it.
func TestStoreSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, &replayState{})
	if _, err := s.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(1, []byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("b", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(2, []byte(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("c", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	rs := &replayState{failRestore: map[uint64]bool{2: true}}
	s2, rec := mustOpen(t, dir, rs)
	defer s2.Close()
	if !rec.Restored || rec.SnapshotSeq != 1 || rec.SnapshotsDiscarded != 1 {
		t.Fatalf("recovery = %+v, want fallback to snapshot 1", rec)
	}
	if rs.restoredData != `{"gen":1}` {
		t.Fatalf("restored %q", rs.restoredData)
	}
	// Only record c (seq 3) is in the current log — records a and b were
	// rotated away by their covering snapshots, so falling back to snapshot 1
	// replays just what survived.
	if rec.Replayed != 1 || len(rs.applied) != 1 || rs.applied[0].Seq != 3 {
		t.Fatalf("replay after fallback = %+v / %+v", rec, rs.applied)
	}
}

func TestStorePrunesOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, &replayState{})
	for i := 1; i <= 4; i++ {
		if _, err := s.Append("m", nil); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(uint64(i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	seqs, err := s.listSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("retained snapshots = %v, want [3 4]", seqs)
	}
}

func TestStoreRejectsRegressingSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, &replayState{})
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Append("m", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot(2, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(1, []byte(`{}`)); err == nil {
		t.Fatal("regressing snapshot seq accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o600); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read back %q, %v", data, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode = %v, want 0600", fi.Mode().Perm())
	}
	// No temp files may survive.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the target", len(entries))
	}
}

// faultyFile is a WAL file whose next write or sync fails once: a write
// lands its first short bytes and fails, a sync fails after the write
// landed. failTruncate fails every truncate, so that an undo cannot happen.
type faultyFile struct {
	*os.File
	short        int // > 0: the next Write lands this many bytes and fails
	failSync     bool
	failTruncate bool
}

var errInjected = errors.New("injected I/O error")

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.short > 0 {
		n, _ := f.File.Write(b[:f.short])
		f.short = 0
		return n, errInjected
	}
	return f.File.Write(b)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.File.Truncate(size)
}

// TestFailedAppendIsUndone builds the two disk states a failed WAL append
// leaves behind — the frame written but its fsync failed, and half a frame
// written — then acks one more record and recovers. Recovery must replay
// exactly the acknowledged records, in order. Before a failed append cut the
// file back, the first state replayed the unacknowledged record in place of
// the acknowledged one (both carried the next seq), and the second truncated
// the acknowledged record away behind the torn half frame.
func TestFailedAppendIsUndone(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultyFile
	}{
		{"write landed, fsync failed", faultyFile{failSync: true}},
		{"short write", faultyFile{short: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, &replayState{})
			if _, err := s.Append("a", json.RawMessage(`{"acked":1}`)); err != nil {
				t.Fatal(err)
			}
			f := tc.fault
			f.File = s.wal.f.(*os.File)
			s.wal.f = &f
			if _, err := s.Append("unacked", json.RawMessage(`{"acked":0}`)); !errors.Is(err, errInjected) {
				t.Fatalf("faulted Append = %v, want the injected error", err)
			}
			if _, err := s.Append("c", json.RawMessage(`{"acked":2}`)); err != nil {
				t.Fatalf("Append after an undone failure: %v", err)
			}
			s.Close()

			rs := &replayState{}
			s2, rec := mustOpen(t, dir, rs)
			defer s2.Close()
			var got []string
			for _, r := range rs.applied {
				got = append(got, fmt.Sprintf("%d %s", r.Seq, r.Op))
			}
			if fmt.Sprint(got) != "[1 a 2 c]" || rec.TornTail {
				t.Fatalf("recovered %q (torn tail %v, %d bytes cut), want [1 a 2 c] and no torn tail", got, rec.TornTail, rec.TruncatedBytes)
			}
		})
	}
}

// TestWALPoisonedWhenUndoFails: when a failed append cannot be cut back
// either, what the file holds is unknown, so no later append may be
// acknowledged on top of it — until a reopen recovers from what is on disk.
func TestWALPoisonedWhenUndoFails(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, &replayState{})
	if _, err := s.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	s.wal.f = &faultyFile{File: s.wal.f.(*os.File), failSync: true, failTruncate: true}
	if _, err := s.Append("unacked", nil); !errors.Is(err, errInjected) {
		t.Fatalf("faulted Append = %v, want the injected error", err)
	}
	s.wal.f.(*faultyFile).failTruncate = false
	if _, err := s.Append("c", nil); err == nil {
		t.Fatal("a poisoned WAL acknowledged an append")
	}
	s.Close()

	rs := &replayState{}
	s2, _ := mustOpen(t, dir, rs)
	defer s2.Close()
	if len(rs.applied) == 0 || rs.applied[0].Op != "a" || len(rs.applied) > 2 {
		t.Fatalf("recovered %+v, want a and at most the one unacknowledged record", rs.applied)
	}
	if _, err := s2.Append("d", nil); err != nil {
		t.Fatalf("Append after reopening: %v", err)
	}
}

// failDirSync makes every directory fsync fail with err until the test ends.
func failDirSync(t *testing.T, err error) {
	t.Helper()
	fsyncDir = func(*os.File) error { return err }
	t.Cleanup(func() { fsyncDir = (*os.File).Sync })
}

// TestSnapshotNotDurableKeepsLog: when the directory fsync after a
// snapshot's rename fails, the rename may not survive a crash, so
// WriteSnapshot must fail before it prunes the older snapshots or empties
// the log. Before the fsync error was returned, the store went on to prune
// snapshot 1 and truncate the WAL, and every acked record depended on a
// directory entry that might not exist after the crash.
func TestSnapshotNotDurableKeepsLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, &replayState{})
	for i := uint64(1); i <= 2; i++ {
		if _, err := s.Append("m", nil); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(i, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append("acked", nil); err != nil {
			t.Fatal(err)
		}
	}
	failDirSync(t, errInjected)
	if err := s.WriteSnapshot(s.Seq(), []byte(`{}`)); !errors.Is(err, errInjected) {
		t.Errorf("WriteSnapshot with a failing directory fsync = %v, want the injected error", err)
	}
	if got := s.Stats(); got.SnapshotSeq != 2 || got.Snapshots != 2 {
		t.Errorf("stats after the failed snapshot = %+v, want snapshot seq 2 and 2 snapshots", got)
	}
	s.Close()
	fsyncDir = (*os.File).Sync

	seqs, err := (&Store{dir: dir}).listSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 || seqs[0] != 1 || seqs[1] != 2 {
		t.Errorf("snapshots on disk = %v, want 1 and 2 still beside the new one", seqs)
	}
	_, recs, _, err := OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Errorf("WAL holds %+v, want the three acked records 3..5", recs)
	}
}

// TestDirSyncErrors: OpenWAL refuses to ack into a log whose directory entry
// it could not make durable, a directory that cannot be opened is an error,
// and EINVAL (a filesystem that cannot fsync directories) is tolerated.
func TestDirSyncErrors(t *testing.T) {
	if err := syncDir(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("syncDir of a missing directory succeeded")
	}
	dir := t.TempDir()
	failDirSync(t, &os.PathError{Op: "sync", Path: dir, Err: syscall.EINVAL})
	if err := WriteFileAtomic(filepath.Join(dir, "f"), []byte("x"), 0o644); err != nil {
		t.Errorf("WriteFileAtomic with EINVAL from the directory fsync: %v", err)
	}
	failDirSync(t, errInjected)
	if w, _, _, err := OpenWAL(filepath.Join(dir, "wal.log")); !errors.Is(err, errInjected) {
		if w != nil {
			w.Close()
		}
		t.Errorf("OpenWAL with a failing directory fsync = %v, want the injected error", err)
	}
}
