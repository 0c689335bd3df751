package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.golden from this run")

// TestOutputGolden pins the blackbox walk-through byte for byte: training,
// the out-of-range estimate with its remedy components, the α re-fit and the
// offline tune. Every number in it is a pure function of the seeds, so a
// diff means a change moved one; regenerate with -update only when that is
// intended. Trained weights are pinned on amd64 only: other architectures
// may fuse multiply-adds and move the last digits.
func TestOutputGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/output.golden"
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
