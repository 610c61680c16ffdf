package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
)

// request performs an arbitrary-method request against the test server.
func request(t *testing.T, s *server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// adaptServer builds a server with a custom adaptation config over a small
// engine and an in-memory registry.
func adaptServer(t *testing.T, acfg adapt.Config) *server {
	t.Helper()
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return newServer(engine.NewDefault(engine.Options{
		Workers: 2,
		Core:    core.Options{SettingsPerKernel: 4},
	}), store, "titanx", acfg, planeLimits{}, nil)
}

// observeBody builds a single-observation /observe body around the shared
// saxpy kernel.
func observeBody(speedup, energy float64) string {
	b, _ := json.Marshal(map[string]any{
		"source":      saxpy,
		"kernel":      "saxpy",
		"config":      map[string]int{"mem": 3505, "core": 1000},
		"speedup":     speedup,
		"norm_energy": energy,
	})
	return string(b)
}

func TestObserveBeforeTraining(t *testing.T) {
	s := testServer(t)
	if rec := post(t, s, "/observe", observeBody(0.9, 0.9)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("observe before training: %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec := post(t, s, "/adapt/retrain", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("adapt/retrain before training: %d, want 503: %s", rec.Code, rec.Body)
	}
	// Status works untrained: it just has no model version to judge.
	rec := get(t, s, "/adapt/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("adapt/status: %d: %s", rec.Code, rec.Body)
	}
	var st adapt.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ModelVersion != "" || st.Store.Count != 0 {
		t.Fatalf("untrained status: %+v", st)
	}
}

func TestObserveIngestAndStatus(t *testing.T) {
	s := testServer(t)
	first := trainWait(t, s, "")

	rec := post(t, s, "/observe", observeBody(0.95, 0.92))
	if rec.Code != http.StatusOK {
		t.Fatalf("observe: %d: %s", rec.Code, rec.Body)
	}
	var resp observeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != first.Version {
		t.Errorf("model_version = %q, want %q", resp.ModelVersion, first.Version)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error != "" || resp.Results[0].Ingest == nil ||
		!resp.Results[0].Ingest.Stored {
		t.Fatalf("observe results: %+v", resp.Results)
	}
	if resp.Store.Count != 1 || resp.Store.Total != 1 {
		t.Fatalf("store stats: %+v", resp.Store)
	}

	// Batch form plus one invalid observation reported inline.
	batch := `{"observations": [` +
		`{"source": ` + jsonStr(saxpy) + `, "kernel": "saxpy", "config": {"mem": 3505, "core": 900}, "speedup": 0.9, "norm_energy": 0.95},` +
		`{"source": ` + jsonStr(saxpy) + `, "kernel": "saxpy", "config": {"mem": 3505, "core": 900}, "speedup": -1, "norm_energy": 0.95}]}`
	rec = post(t, s, "/observe", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch observe: %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].Error != "" || resp.Results[1].Error == "" {
		t.Fatalf("batch results: %+v", resp.Results)
	}
	if resp.Store.Count != 2 {
		t.Fatalf("store count = %d, want 2 (invalid observation must not be stored)", resp.Store.Count)
	}

	var st adapt.Status
	if err := json.Unmarshal(get(t, s, "/adapt/status").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ModelVersion != first.Version || st.Drift.Samples != 2 {
		t.Fatalf("status: %+v", st)
	}
	if st.Drift.BaselineSpeedup <= 0 || st.Drift.ThresholdSpeedup <= st.Drift.BaselineSpeedup {
		t.Fatalf("drift baselines/thresholds not populated: %+v", st.Drift)
	}
}

// TestTrainingRecordsResiduals checks that /train publishes manifests with
// the residual baselines the drift detector needs.
func TestTrainingRecordsResiduals(t *testing.T) {
	s := testServer(t)
	me := trainWait(t, s, "")
	if me.Manifest == nil {
		t.Fatal("no manifest")
	}
	tr := me.Manifest.Training
	if tr.SpeedupRMSE <= 0 || tr.EnergyRMSE <= 0 {
		t.Fatalf("training residuals not recorded: %+v", tr)
	}
	if tr.SpeedupRMSE > 1 || tr.EnergyRMSE > 1 {
		t.Fatalf("implausible residuals: %+v", tr)
	}
}

func TestAdaptRetrainEndpoint(t *testing.T) {
	s := adaptServer(t, adapt.Config{}) // auto off: manual control only
	first := trainWait(t, s, "")
	for i := 0; i < 8; i++ {
		if rec := post(t, s, "/observe", observeBody(0.9, 0.95)); rec.Code != http.StatusOK {
			t.Fatalf("observe: %d: %s", rec.Code, rec.Body)
		}
	}

	rec := post(t, s, "/adapt/retrain", "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("adapt/retrain: %d, want 202: %s", rec.Code, rec.Body)
	}
	var acc adaptRetrainAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Status != "retraining" || acc.Poll != "/adapt/status" {
		t.Fatalf("202 body: %+v", acc)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var st adapt.Status
	for {
		if err := json.Unmarshal(get(t, s, "/adapt/status").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Retrain.Retrains > 0 && !st.Retrain.InProgress {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("manual retrain did not finish: %+v", st.Retrain)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Retrain.LastOutcome == adapt.OutcomeFailed {
		t.Fatalf("retrain failed: %s", st.Retrain.LastError)
	}
	if st.Retrain.LastVersion == "" || !strings.HasPrefix(st.Retrain.LastReason, "manual") {
		t.Fatalf("retrain state: %+v", st.Retrain)
	}
	// The candidate snapshot is in the registry either way; when the
	// holdout passed, serving moved to it and the manifest records the
	// folded-in observations.
	var me modelEntry
	if err := json.Unmarshal(get(t, s, "/models/"+st.Retrain.LastVersion).Body.Bytes(), &me); err != nil {
		t.Fatal(err)
	}
	if me.Manifest == nil || me.Manifest.Training.Observations == 0 {
		t.Fatalf("candidate manifest: %+v", me.Manifest)
	}
	if st.Retrain.LastOutcome == adapt.OutcomeActivated {
		if v := s.serving.Version(); v != st.Retrain.LastVersion {
			t.Fatalf("serving %q after activation of %q", v, st.Retrain.LastVersion)
		}
	} else if v := s.serving.Version(); v != first.Version {
		t.Fatalf("rejected candidate changed serving to %q", v)
	}
}

// TestAutoRetrainOverHTTP drives the whole loop through the HTTP surface:
// drifting observations trip the detector and the server retrains and
// hot-swaps (synchronously, so the test is deterministic on one vCPU).
func TestAutoRetrainOverHTTP(t *testing.T) {
	s := adaptServer(t, adapt.Config{
		Auto:            true,
		Sync:            true,
		MinSamples:      4,
		BaselineSpeedup: 0.01,
		BaselineEnergy:  0.01,
		Cooldown:        time.Hour,
	})
	first := trainWait(t, s, "")

	var started bool
	for i := 0; i < 8 && !started; i++ {
		rec := post(t, s, "/observe", observeBody(0.5, 0.5))
		if rec.Code != http.StatusOK {
			t.Fatalf("observe: %d: %s", rec.Code, rec.Body)
		}
		var resp observeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Results[0].Ingest != nil && resp.Results[0].Ingest.RetrainStarted {
			started = true
		}
	}
	if !started {
		t.Fatal("drifting observations never started a retrain")
	}
	var st adapt.Status
	if err := json.Unmarshal(get(t, s, "/adapt/status").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Retrain.Retrains != 1 {
		t.Fatalf("retrains = %d, want 1: %+v", st.Retrain.Retrains, st.Retrain)
	}
	if st.Retrain.LastOutcome == adapt.OutcomeActivated && s.serving.Version() == first.Version {
		t.Fatal("activated retrain did not hot-swap serving")
	}
}

// TestJSONErrorShape pins the structured error contract: every failure
// path — unknown endpoints included — answers {"error": ...} JSON with a
// matching status code, never net/http's plain-text pages.
func TestJSONErrorShape(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"unknown path", http.MethodGet, "/nope", "", http.StatusNotFound},
		{"unknown nested path", http.MethodPost, "/models/v0001/delete", "", http.StatusNotFound},
		{"root", http.MethodGet, "/", "", http.StatusNotFound},
		{"malformed predict body", http.MethodPost, "/predict", "{not json", http.StatusBadRequest},
		{"empty predict body", http.MethodPost, "/predict", "", http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "/predict", `{"source": "x"} extra`, http.StatusBadRequest},
		{"malformed select body", http.MethodPost, "/select", "[1,2", http.StatusBadRequest},
		{"malformed train body", http.MethodPost, "/train", "{{", http.StatusBadRequest},
		{"malformed observe body", http.MethodPost, "/observe", "null garbage", http.StatusBadRequest},
		{"empty observe body", http.MethodPost, "/observe", "", http.StatusBadRequest},
		{"wrong method", http.MethodDelete, "/predict", "", http.StatusMethodNotAllowed},
		{"wrong method adapt", http.MethodPost, "/adapt/status", "", http.StatusMethodNotAllowed},
		{"wrong method observe", http.MethodGet, "/observe", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		rec := request(t, s, tc.method, tc.path, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body)
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body is not a structured error: %s", tc.name, rec.Body)
		}
	}
}
