package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.golden from this run")

var tempDir = regexp.MustCompile(`persisted to \S+/system-c\.json`)

// TestOutputGolden pins the staged-profile walk-through byte for byte, the
// temporary directory masked. Every estimate in it is a pure function of the
// seeds, so a diff means a change moved one; regenerate with -update only
// when that is intended. Trained weights are pinned on amd64 only: other
// architectures may fuse multiply-adds and move the last digits.
func TestOutputGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	got := tempDir.ReplaceAll(buf.Bytes(), []byte("persisted to DIR/system-c.json"))
	const path = "testdata/output.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
