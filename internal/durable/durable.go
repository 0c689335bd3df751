// Package durable is the engine's durability substrate: crash-safe file
// primitives shared by every component that persists state. It provides
//
//   - WriteFileAtomic, the tmp+fsync+rename discipline (readers only ever
//     observe the old contents or the complete new contents),
//   - an append-only write-ahead log of length-prefixed, checksummed
//     records with fsync-on-commit and torn-tail truncation on replay, and
//   - Store, a data-directory manager that combines versioned snapshots
//     with the WAL: boot restores the newest valid snapshot, replays the
//     log past it, and serving appends mutations until a snapshot covers
//     them and rotates the log.
//
// The package is deliberately ignorant of what the bytes mean: snapshots
// are opaque blobs and WAL records carry an op name plus raw JSON. The
// engine layers its own state schema on top (internal/engine/persist.go),
// which keeps durable free of model/catalog dependencies and makes the
// corruption-handling paths testable in isolation.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, then fsyncs the directory so the rename itself
// survives a crash. Readers only ever observe the old contents or the
// complete new contents — never a partial write. The published file gets
// mode perm (CreateTemp's private 0600 would otherwise leak onto it).
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed or just-created entry is
// durable. It fails when the directory cannot be opened or the fsync fails,
// with one exception: EINVAL, which Linux returns from a directory fsync on a
// filesystem that cannot sync directories (some FUSE and network mounts),
// where there is nothing more to make durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	defer d.Close()
	if err := fsyncDir(d); err != nil && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("durable: sync dir %s: %w", dir, err)
	}
	return nil
}

// fsyncDir is the directory fsync itself, a variable so tests can fail it.
var fsyncDir = (*os.File).Sync
