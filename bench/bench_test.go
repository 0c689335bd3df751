package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the driver's: the driver starts
// its twin by executing its own binary with -twin.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-twin" {
		main()
		return
	}
	os.Exit(m.Run())
}

// contractFile is BENCHMARK.json with every key the benchmark contract
// allows, so a stray or missing one fails decoding.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMeetsContract checks BENCHMARK.json against the limits
// the driver enforces before it runs anything, and against this package.
func TestBenchmarkFileMeetsContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes", len(data))
	}
	var c contractFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths %v", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(c.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	largest := 0.0
	for _, m := range c.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Bound > largest {
			largest = m.Bound
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range c.EndToEnd {
		if m.Name == "setup_s" && m.Bound < largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	if len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(c.PerLayer))
	}
	for _, m := range c.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}

// TestSmoke boots the real server for every workload, runs each mode for a
// fraction of a second, and checks the report: answers correct, every metric
// BENCHMARK.json declares printed with its unit, and the last line the
// result object in the contract's shape.
func TestSmoke(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.ladder = 1000
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			e.out = &buf
			_, ok, err := e.runOne(w, 7, 0.6, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !ok {
				t.Errorf("%s traced=%v: wrong or failed answers\n%s", w.name, traced, buf.String())
			}
			defs := e.defs.EndToEnd
			if traced {
				defs = e.defs.PerLayer
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var result struct {
				Correct   *bool `json:"correct"`
				Attempted int   `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&result); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if result.Correct == nil || result.Failed == nil || result.Attempted < 200 {
				t.Errorf("%s: result %s", w.name, lines[len(lines)-1])
			}
			if len(result.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, %d declared", w.name, traced, len(result.Metrics), len(defs))
			}
			for _, d := range defs {
				printed := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s+\S+ ` + regexp.QuoteMeta(d.Unit) + `$`)
				if !printed.MatchString(buf.String()) {
					t.Errorf("%s: metric %s is not printed with unit %s", w.name, d.Name, d.Unit)
				}
				if m, ok := result.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing from the result object", w.name, d.Name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(e.root, "bench", "out", "trace_"+w.name+".json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}
