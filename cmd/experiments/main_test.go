package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

var wallClock = regexp.MustCompile(`\([0-9.]+s wall clock\)`)

// TestQuickGolden pins the whole quick evaluation — every figure, table and
// ablation — byte for byte, wall-clock fields masked. The output is a pure
// function of the seeds, so a diff here means a change moved an estimate or
// a simulated actual; regenerate with -update only when that is intended.
// It runs serially and on four threads: GOMAXPROCS is the one worker count
// the experiment fan-out (parallel.Map) has, and the bytes may not depend
// on it.
func TestQuickGolden(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testQuickGolden(t)
		})
	}
}

func testQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, false, "all"); err != nil {
		t.Fatal(err)
	}
	got := wallClock.ReplaceAll(buf.Bytes(), []byte("(X.Xs wall clock)"))
	const path = "testdata/quick.golden"
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
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("quick output differs from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("quick output differs from %s: %d lines, want %d", path, len(gl), len(wl))
}

func TestRunRejectsUnknownName(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, false, "nope"); err == nil {
		t.Fatal("unknown experiment name accepted")
	}
}
