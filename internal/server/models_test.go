package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"intellisphere/internal/engine"
)

// postModels sends one POST /models action and decodes the response into out
// (skipped when out is nil), returning the status code.
func postModels(t *testing.T, url string, req modelRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode /models response: %v", err)
		}
	}
	return resp.StatusCode
}

// TestModelsEndpoint pins the model-lifecycle admin surface over a sub-op
// federation: the listing names every registered system (the profiles
// themselves are TestProfilesEndpoint's), a tune with no retrainable log resolves as a no-op (not an
// error), and the failure modes answer 400 rather than mutating anything.
func TestModelsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)

	var mr modelsResponse
	if resp := getJSON(t, srv.URL+"/models", &mr); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /models status = %d", resp.StatusCode)
	}
	// Systems are listed sorted, the master included.
	if len(mr.Systems) != 2 || mr.Systems[0].System != "hive" || mr.Systems[1].System != "teradata" {
		t.Fatalf("GET /models systems = %+v, want hive and the master teradata", mr.Systems)
	}
	for _, sys := range mr.Systems {
		if sys.Versions == nil || len(sys.Versions) != 0 {
			t.Fatalf("fresh %s versions = %+v, want empty list", sys.System, sys.Versions)
		}
	}

	// hive's profile is sub-op only: a candidate tune finds no logical-op
	// models to retrain and reports that, without promoting or erroring.
	var out engine.TuneOutcome
	if code := postModels(t, srv.URL, modelRequest{Action: "tune", System: "hive"}, &out); code != http.StatusOK {
		t.Fatalf("POST tune status = %d", code)
	}
	if out.Promoted || out.Reason != "insufficient-log" {
		t.Fatalf("tune outcome = %+v", out)
	}
	if resp := getJSON(t, srv.URL+"/models", &mr); resp.StatusCode != http.StatusOK || mr.Tuning.Attempts != 1 {
		t.Fatalf("tuning counters after tune = %+v", mr.Tuning)
	}

	// Failure modes: no history to roll back, unknown action/system, a
	// request without a system and a min_gain outside [0, 1] all answer 400.
	for _, req := range []modelRequest{
		{Action: "rollback", System: "hive"},
		{Action: "defragment", System: "hive"},
		{Action: "tune", System: "ghost"},
		{Action: "tune", System: "teradata"},
		{Action: "tune"},
		{Action: "tune", System: "hive", MinGain: -1},
		{Action: "tune", System: "hive", MinGain: 2},
	} {
		if code := postModels(t, srv.URL, req, nil); code != http.StatusBadRequest {
			t.Errorf("POST %+v status = %d, want 400", req, code)
		}
	}
}
