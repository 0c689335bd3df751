package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// The twin is the benchmark's yardstick for the host's speed. The guest this
// runs on changes speed under the program's feet — a neighbour on the same
// core or cache slows ten seconds of a run by a factor of two, then goes
// away — so a time measured here says as much about the minute it was taken
// in as about the code. The twin is a second server that has nothing to do
// with the repository: a net/http process answering JSON requests with JSON
// answers after a fixed amount of encoding/json work, shaped per workload
// like the real traffic (as many records per request, about as much CPU per
// record). The driver stops the workload every workSlice, sends the twin
// requests for twinSlice over the same kind of connection, and divides: every
// timing the benchmark reports is quoted at the host speed at which the twin
// answers twinShape.nominal requests a second. Whatever slows the host slows
// both, within a few percent; whatever a change to the repository does moves
// only the workload's side, so it shows in full.
type twinShape struct {
	records int     // records per request, like statements per request
	units   int     // extra decode passes per record: the CPU dial
	nominal float64 // requests a second at the host speed results are quoted at
}

// A cold boot is scaled the same way, against the twin's own cold boot: the
// twin does twinBootUnits decode passes before it listens (its stand-in for
// building the federation), and the driver waits for it exactly as it waits
// for the server. twinBootNominal is what that takes on the reference host.
// (The twin's request rate is no yardstick for a boot: exec, page faults and
// runtime start-up do not slow down with the host the way request handling
// does, and the slices next to a boot run on caches the boot just emptied.)
const (
	twinBootUnits   = 2000
	twinBootNominal = 0.015 // seconds
)

// twinRecord is what the twin decodes and encodes: an answer-sized object.
type twinRecord struct {
	SQL     string             `json:"sql"`
	Est     float64            `json:"estimated_sec"`
	Act     float64            `json:"actual_sec"`
	Systems []string           `json:"systems"`
	Costs   map[string]float64 `json:"costs"`
	Explain string             `json:"explain"`
}

var twinRecordJSON = []byte(`{"sql":"SELECT a1, COUNT(*) FROM t1000000_100 WHERE a2 < 1234567 GROUP BY a1","estimated_sec":12.3456,"actual_sec":13.9987,"systems":["hive","spark","master"],"costs":{"hive":12.3,"spark":44.1,"presto":19.9},"explain":"Aggregate(hive) <- Filter(hive) <- Scan(t1000000_100) -> transfer(master) cost=12.3456s rows=800000"}`)

// twinServe is the twin's server side (the hidden -twin mode of this
// binary): it decodes the request's records, does units more decode passes
// per record, and answers with the records re-encoded.
func twinServe(addr string, units int) error {
	var boot twinRecord
	for u := 0; u < twinBootUnits; u++ {
		json.Unmarshal(twinRecordJSON, &boot)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/health" {
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var recs []twinRecord
		if err := json.Unmarshal(body, &recs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for i := range recs {
			for u := 0; u < units; u++ {
				var again twinRecord
				json.Unmarshal(twinRecordJSON, &again)
				recs[i].Est += again.Act
			}
		}
		out, _ := json.Marshal(recs)
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	})
	return http.ListenAndServe(addr, h)
}

// twinProc is a running twin and the connection the driver talks to it on.
type twinProc struct {
	cmd   *exec.Cmd
	c     *conn
	shape twinShape
	body  []byte
}

// startTwin execs this binary in -twin mode on a free loopback port, waits
// for it as for the server, and connects to it. The returned duration is the
// twin's cold boot, exec → first 200 on /health.
func startTwin(shape twinShape) (*twinProc, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	t := &twinProc{shape: shape}
	t.body = append(t.body, '[')
	for i := 0; i < shape.records; i++ {
		if i > 0 {
			t.body = append(t.body, ',')
		}
		t.body = append(t.body, twinRecordJSON...)
	}
	t.body = append(t.body, ']')
	t.cmd = exec.Command(exe, "-twin", addr, "-twin-units", strconv.Itoa(shape.units))
	t.cmd.SysProcAttr = dieWithParent
	t.cmd.Stderr = os.Stderr
	start := time.Now()
	if err := t.cmd.Start(); err != nil {
		return nil, 0, err
	}
	took, err := awaitHealthy(addr, start)
	if err == nil {
		t.c, err = dial(addr)
	}
	if err != nil {
		t.cmd.Process.Kill()
		t.cmd.Wait()
		return nil, 0, fmt.Errorf("the twin did not come up: %w", err)
	}
	return t, took, nil
}

func (t *twinProc) stop() {
	t.c.close()
	t.cmd.Process.Kill()
	t.cmd.Wait()
}

// twinSample is one spell of twin traffic.
type twinSample struct {
	requests int
	took     time.Duration
}

func (s *twinSample) add(o twinSample) { s.requests += o.requests; s.took += o.took }

// rate is the twin's requests a second over the sample.
func (s twinSample) rate() float64 { return float64(s.requests) / s.took.Seconds() }

// run sends the twin requests, each after the previous answer, for d.
func (t *twinProc) run(d time.Duration) (twinSample, error) {
	var s twinSample
	start := time.Now()
	for s.took < d {
		status, resp, err := t.c.do("/twin", t.body)
		if err != nil {
			return s, err
		}
		if status != http.StatusOK || bytes.Count(resp, answerMarker) != t.shape.records {
			return s, fmt.Errorf("the twin answered %d: %.80s", status, resp)
		}
		s.requests++
		s.took = time.Since(start)
	}
	return s, nil
}
