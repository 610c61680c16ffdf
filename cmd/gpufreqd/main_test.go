package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/policy"
	"repro/internal/registry"
)

const saxpy = `__kernel void saxpy(__global const float* x, __global float* y, float a, int n) {
	int i = get_global_id(0);
	if (i < n) y[i] = a * x[i] + y[i];
}`

func testServer(t *testing.T) *server {
	t.Helper()
	return testServerDir(t, "")
}

// testServerDir builds a Titan X server over a registry rooted at dir
// ("" = in-memory registry).
func testServerDir(t *testing.T, dir string) *server {
	t.Helper()
	store, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(engine.NewDefault(engine.Options{
		Workers: 4,
		Core:    core.Options{SettingsPerKernel: 4},
	}), store, "titanx", adapt.Config{})
}

// testServerOn builds a server over a small engine for the named GPU
// profile ("titanx" or "p100").
func testServerOn(t *testing.T, name string) *server {
	t.Helper()
	dev, err := device(name)
	if err != nil {
		t.Fatal(err)
	}
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return newServer(engine.New(measure.NewHarness(nvml.NewDevice(dev)), engine.Options{
		Workers: 4,
		Core:    core.Options{SettingsPerKernel: 4},
	}), store, name, adapt.Config{})
}

func get(t *testing.T, s *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func post(t *testing.T, s *server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// trainWait starts a training run over HTTP and polls /models/{id} until
// the background job publishes (or fails), returning the final entry.
func trainWait(t *testing.T, s *server, body string) modelEntry {
	t.Helper()
	rec := post(t, s, "/train", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("train status %d, want 202: %s", rec.Code, rec.Body)
	}
	var acc trainAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Version == "" || acc.Status != statusTraining || acc.Poll != "/models/"+acc.Version {
		t.Fatalf("unexpected 202 body: %+v", acc)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		rec := get(t, s, acc.Poll)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s status %d: %s", acc.Poll, rec.Code, rec.Body)
		}
		var me modelEntry
		if err := json.Unmarshal(rec.Body.Bytes(), &me); err != nil {
			t.Fatal(err)
		}
		if me.Status != statusTraining {
			return me
		}
		if time.Now().After(deadline) {
			t.Fatalf("training %s did not finish in time", acc.Version)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthzUntrained(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Trained || h.Cache != nil || h.ModelVersion != "" {
		t.Fatalf("unexpected health: %+v", h)
	}
	if h.Workers != 4 {
		t.Fatalf("workers = %d, want 4", h.Workers)
	}
	if h.Registry != "memory" {
		t.Fatalf("registry = %q, want memory", h.Registry)
	}
}

func TestPredictBeforeTraining(t *testing.T) {
	s := testServer(t)
	rec := post(t, s, "/predict", `{"source": "x", "kernel": "k"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
}

func TestTrainPredictHealthzCycle(t *testing.T) {
	s := testServer(t)

	me := trainWait(t, s, "")
	if me.Status != statusReady || me.Manifest == nil {
		t.Fatalf("unexpected train outcome: %+v", me)
	}
	man := me.Manifest
	if man.Training.Kernels != 106 || man.Training.Samples == 0 ||
		man.SpeedupModel.SupportVectors == 0 || man.EnergyModel.SupportVectors == 0 {
		t.Fatalf("unexpected manifest: %+v", man)
	}
	// Solver stats must round-trip the installed models' values (whether a
	// model converges is a solver property, not the handler's; the handler
	// only has to report it faithfully).
	if man.SpeedupModel.Iters == 0 || man.EnergyModel.Iters == 0 {
		t.Fatalf("missing solver iteration counts: %+v", man)
	}
	models := s.engine.Models()
	if man.SpeedupModel.Converged != models.Speedup.Converged ||
		man.EnergyModel.Converged != models.Energy.Converged ||
		man.SpeedupModel.Iters != models.Speedup.Iters ||
		man.EnergyModel.Iters != models.Energy.Iters {
		t.Fatalf("solver stats do not match installed models: %+v", man)
	}

	// Batch predict: two kernels, one of them twice so the second copy
	// reuses the first one's memoized sweep.
	body := `{"kernels": [
		{"source": ` + jsonStr(saxpy) + `, "kernel": "saxpy"},
		{"source": ` + jsonStr(saxpy) + `, "kernel": "saxpy"},
		{"source": "not opencl", "kernel": "nope"}
	]}`
	rec := post(t, s, "/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body)
	}
	var pr predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ModelVersion != me.Version {
		t.Fatalf("predict served %q, want %q", pr.ModelVersion, me.Version)
	}
	if len(pr.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(pr.Results))
	}
	if len(pr.Results[0].Pareto) == 0 || len(pr.Results[1].Pareto) == 0 {
		t.Fatalf("empty Pareto sets: %+v", pr.Results[:2])
	}
	if pr.Results[2].Error == "" || pr.Results[2].Pareto != nil {
		t.Fatalf("bad source did not error: %+v", pr.Results[2])
	}
	if last := pr.Results[0].Pareto[len(pr.Results[0].Pareto)-1]; !last.MemLHeuristic {
		t.Fatalf("last prediction is not the mem-L heuristic: %+v", last)
	}
	if pr.Cache.SweepMisses != 1 || pr.Cache.SweepHits != 1 {
		t.Fatalf("duplicate kernel did not reuse its sweep: %+v", pr.Cache)
	}

	// Health now reports the trained model, its version, and cache counters.
	var h healthResponse
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Trained || h.ModelVersion != me.Version || h.Cache == nil || h.Cache.SweepMisses == 0 {
		t.Fatalf("health after training: %+v", h)
	}
}

func TestTrainSettingsOverride(t *testing.T) {
	s := testServer(t)
	me := trainWait(t, s, `{"settings": 12}`)
	if me.Status != statusReady {
		t.Fatalf("train failed: %+v", me)
	}
	// The server default (4 settings) clamps to the ladder minimum of 9
	// sampled configs per kernel; an override of 12 must sample more.
	if me.Manifest.Training.Samples <= 106*9 {
		t.Fatalf("override ignored: %d samples", me.Manifest.Training.Samples)
	}
	if me.Manifest.Training.SettingsPerKernel != 12 {
		t.Fatalf("manifest records %d settings, want 12", me.Manifest.Training.SettingsPerKernel)
	}
	if !s.engine.Trained() {
		t.Fatal("models not installed after override run")
	}
}

// TestTrainDoesNotBlockPredict is the async-/train fix: while a training
// run is in flight, /predict keeps serving the previous version, and a
// second /train is rejected with 409.
func TestTrainDoesNotBlockPredict(t *testing.T) {
	s := testServer(t)
	first := trainWait(t, s, "")

	// Kick off a retrain and immediately predict: the request must be
	// answered by the still-active first version, not block.
	rec := post(t, s, "/train", "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("retrain status %d: %s", rec.Code, rec.Body)
	}
	var acc trainAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if rec := post(t, s, "/train", ""); rec.Code != http.StatusConflict {
		t.Fatalf("concurrent train status %d, want 409: %s", rec.Code, rec.Body)
	}

	var pr predictResponse
	rec = post(t, s, "/predict", `{"source": `+jsonStr(saxpy)+`, "kernel": "saxpy"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict during retrain: %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ModelVersion != first.Version {
		// The retrain may legitimately have finished already; it must then
		// be serving the new version, never nothing.
		if pr.ModelVersion != acc.Version {
			t.Fatalf("predict served %q, want %q or %q", pr.ModelVersion, first.Version, acc.Version)
		}
	}

	// Drain the background run so the test leaves nothing in flight.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var me modelEntry
		if err := json.Unmarshal(get(t, s, acc.Poll).Body.Bytes(), &me); err != nil {
			t.Fatal(err)
		}
		if me.Status == statusReady {
			break
		}
		if me.Status == statusFailed || time.Now().After(deadline) {
			t.Fatalf("background retrain did not publish: %+v", me)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentPredictDuringRetrainRace hammers /predict from several
// goroutines while a background retrain runs, then drops the load and
// waits for the retrain to publish and hot-swap; run with -race this is
// the crash-safety satellite's concurrency check at the HTTP layer. The
// load window is bounded (rather than lasting the whole retrain) so the
// single-core CI runner cannot starve the trainer into the test deadline.
func TestConcurrentPredictDuringRetrainRace(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "")

	rec := post(t, s, "/train", "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("retrain status %d", rec.Code)
	}
	var acc trainAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var calls atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict",
					strings.NewReader(`{"source": `+jsonStr(saxpy)+`, "kernel": "saxpy"}`)))
				if rec.Code != http.StatusOK {
					t.Errorf("predict during retrain: %d: %s", rec.Code, rec.Body)
					return
				}
				calls.Add(1)
			}
		}()
	}
	// Load for a bounded window (or until the retrain publishes first on a
	// fast machine), then stop and let the run finish.
	loadUntil := time.Now().Add(2 * time.Second)
	for time.Now().Before(loadUntil) {
		var me modelEntry
		if err := json.Unmarshal(get(t, s, acc.Poll).Body.Bytes(), &me); err != nil {
			t.Fatal(err)
		}
		if me.Status != statusTraining {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if calls.Load() == 0 {
		t.Fatal("no predictions served during the retrain window")
	}

	deadline := time.Now().Add(4 * time.Minute)
	for {
		var me modelEntry
		if err := json.Unmarshal(get(t, s, acc.Poll).Body.Bytes(), &me); err != nil {
			t.Fatal(err)
		}
		if me.Status != statusTraining {
			if me.Status != statusReady {
				t.Errorf("retrain outcome: %+v", me)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retrain did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestModelLifecycle exercises the versioned registry over HTTP: two
// trained versions, listing, explicit activation, preserved per-version
// stats, and rollback.
func TestModelLifecycle(t *testing.T) {
	s := testServer(t)
	v1 := trainWait(t, s, "")
	// Traffic against v1, so its counters are non-zero before the swap.
	if rec := post(t, s, "/predict", `{"source": `+jsonStr(saxpy)+`}`); rec.Code != http.StatusOK {
		t.Fatalf("predict v1: %d", rec.Code)
	}
	v2 := trainWait(t, s, "")
	if v1.Version == v2.Version {
		t.Fatalf("retrain reused version %s", v1.Version)
	}

	// Listing: both versions, v2 active, v1's stats preserved (frozen).
	rec := get(t, s, "/models")
	if rec.Code != http.StatusOK {
		t.Fatalf("models status %d", rec.Code)
	}
	var mr modelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Active != v2.Version || mr.Previous != v1.Version || len(mr.Models) != 2 {
		t.Fatalf("unexpected listing: %+v", mr)
	}
	byVersion := map[string]modelEntry{}
	for _, me := range mr.Models {
		byVersion[me.Version] = me
	}
	if !byVersion[v2.Version].Active || byVersion[v1.Version].Active {
		t.Fatalf("active flags wrong: %+v", mr.Models)
	}
	old := byVersion[v1.Version]
	if old.Stats == nil || old.Stats.Live || old.Stats.Decisions.SweepMisses == 0 {
		t.Fatalf("v1 stats dropped on swap: %+v", old.Stats)
	}

	// Explicit activation back to v1.
	rec = post(t, s, "/models/"+v1.Version+"/activate", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("activate status %d: %s", rec.Code, rec.Body)
	}
	var ar activateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Active != v1.Version || ar.Previous != v2.Version || ar.Hash != v1.Manifest.Hash {
		t.Fatalf("unexpected activate response: %+v", ar)
	}
	var pr predictResponse
	if err := json.Unmarshal(post(t, s, "/predict", `{"source": `+jsonStr(saxpy)+`}`).Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ModelVersion != v1.Version {
		t.Fatalf("serving %q after activate, want %q", pr.ModelVersion, v1.Version)
	}

	// Rollback returns to v2.
	rec = post(t, s, "/models/rollback", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("rollback status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Active != v2.Version {
		t.Fatalf("rollback activated %q, want %q", ar.Active, v2.Version)
	}

	// Unknown version: 404 on detail and activation.
	if rec := get(t, s, "/models/v9999"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown model = %d", rec.Code)
	}
	if rec := post(t, s, "/models/v9999/activate", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("activate unknown model = %d", rec.Code)
	}
}

func TestRollbackWithoutHistory(t *testing.T) {
	s := testServer(t)
	if rec := post(t, s, "/models/rollback", ""); rec.Code != http.StatusConflict {
		t.Fatalf("rollback with no history = %d, want 409", rec.Code)
	}
}

// TestRestartServesBitIdentical is the acceptance check: a server
// restarted against a populated -model-dir serves /predict and /select
// without retraining, bit-identical to the pre-restart model.
func TestRestartServesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s1 := testServerDir(t, dir)
	me := trainWait(t, s1, "")

	predictBody := `{"source": ` + jsonStr(saxpy) + `, "kernel": "saxpy"}`
	selectBody := `{"policy": {"name": "min-energy"}, "source": ` + jsonStr(saxpy) + `, "kernel": "saxpy"}`
	pred1 := post(t, s1, "/predict", predictBody)
	sel1 := post(t, s1, "/select", selectBody)
	if pred1.Code != http.StatusOK || sel1.Code != http.StatusOK {
		t.Fatalf("pre-restart: predict %d, select %d", pred1.Code, sel1.Code)
	}

	// "Restart": a fresh server process over the same model directory.
	s2 := testServerDir(t, dir)
	if !s2.loadActive() {
		t.Fatal("restarted server did not load the active snapshot")
	}
	if s2.serving.Version() != me.Version {
		t.Fatalf("restarted server serves %q, want %q", s2.serving.Version(), me.Version)
	}
	pred2 := post(t, s2, "/predict", predictBody)
	sel2 := post(t, s2, "/select", selectBody)
	if pred2.Code != http.StatusOK || sel2.Code != http.StatusOK {
		t.Fatalf("post-restart: predict %d, select %d", pred2.Code, sel2.Code)
	}

	// Bit-identical responses modulo cache counters (which are per-process):
	// compare the results payloads verbatim.
	if a, b := resultsJSON(t, pred1.Body.Bytes()), resultsJSON(t, pred2.Body.Bytes()); a != b {
		t.Fatalf("predict results differ across restart:\npre:  %s\npost: %s", a, b)
	}
	if a, b := resultsJSON(t, sel1.Body.Bytes()), resultsJSON(t, sel2.Body.Bytes()); a != b {
		t.Fatalf("select results differ across restart:\npre:  %s\npost: %s", a, b)
	}
}

// resultsJSON extracts the "results" array of a response as canonical JSON.
func resultsJSON(t *testing.T, body []byte) string {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	return string(doc["results"])
}

// TestBootSkipsCorruptSnapshot: a truncated active snapshot must not be
// served; the server boots untrained instead of crashing or serving junk.
func TestBootSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1 := testServerDir(t, dir)
	me := trainWait(t, s1, "")

	path := filepath.Join(dir, "titanx", me.Version+".json")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, doc[:len(doc)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := testServerDir(t, dir)
	if s2.loadActive() {
		t.Fatal("corrupt snapshot was loaded")
	}
	if rec := post(t, s2, "/predict", `{"source": "x"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict against corrupt snapshot = %d, want 503", rec.Code)
	}
	// The listing names the damage.
	var mr modelsResponse
	if err := json.Unmarshal(get(t, s2, "/models").Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Models) != 1 || mr.Models[0].Status != statusFailed || mr.Models[0].Error == "" {
		t.Fatalf("corrupt snapshot not surfaced in listing: %+v", mr.Models)
	}
	// Activating it explicitly is refused.
	if rec := post(t, s2, "/models/"+me.Version+"/activate", ""); rec.Code != http.StatusConflict {
		t.Fatalf("activating corrupt snapshot = %d, want 409", rec.Code)
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/policies")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var pr policiesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Policies) != len(policy.Builtins()) {
		t.Fatalf("policies = %d, want %d", len(pr.Policies), len(policy.Builtins()))
	}
	for _, p := range pr.Policies {
		if p.Name == "" || p.Description == "" {
			t.Fatalf("incomplete policy info: %+v", p)
		}
	}
}

// TestSelectEveryPolicyBothProfiles is the acceptance check: POST /select
// returns a policy-consistent configuration for every built-in policy on
// both GPU profiles.
func TestSelectEveryPolicyBothProfiles(t *testing.T) {
	for _, devName := range []string{"titanx", "p100"} {
		s := testServerOn(t, devName)
		trainWait(t, s, "")
		ladder := s.engine.Harness().Device().Sim().Ladder
		for _, info := range policy.Builtins() {
			body := `{"policy": {"name": "` + info.Name + `"}, "source": ` + jsonStr(saxpy) + `, "kernel": "saxpy"}`
			rec := post(t, s, "/select", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s/%s select status %d: %s", devName, info.Name, rec.Code, rec.Body)
			}
			var sr selectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Policy.Name != info.Name || sr.Policy.MaxSlowdown == 0 || sr.Policy.EnergyBudget == 0 {
				t.Fatalf("%s/%s: unresolved policy in response: %+v", devName, info.Name, sr.Policy)
			}
			if len(sr.Results) != 1 || sr.Results[0].Error != "" || sr.Results[0].Decision == nil {
				t.Fatalf("%s/%s: bad results: %+v", devName, info.Name, sr.Results)
			}
			d := sr.Results[0].Decision
			if !ladder.Supported(d.Chosen.Config) {
				t.Errorf("%s/%s chose %v: not a ladder configuration", devName, info.Name, d.Chosen.Config)
			}
			if d.Feasible {
				switch info.Name {
				case policy.MinEnergy:
					if d.Chosen.Speedup < sr.Policy.SpeedupFloor() {
						t.Errorf("%s min-energy speedup %.3f below floor", devName, d.Chosen.Speedup)
					}
				case policy.MaxPerf:
					if d.Chosen.NormEnergy > sr.Policy.EnergyBudget {
						t.Errorf("%s max-perf energy %.3f above budget", devName, d.Chosen.NormEnergy)
					}
				}
			} else if d.Fallback == "" {
				t.Errorf("%s/%s infeasible without fallback note", devName, info.Name)
			}
		}
	}
}

func TestSelectInfeasibleFallback(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "")
	// Demand a predicted speedup ≥ 1.5: no clock delivers that, so the
	// documented fallback (maximum-speedup configuration) must kick in.
	body := `{"policy": {"name": "min-energy", "max_slowdown": -0.5}, "source": ` + jsonStr(saxpy) + `}`
	rec := post(t, s, "/select", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("select status %d: %s", rec.Code, rec.Body)
	}
	var sr selectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	d := sr.Results[0].Decision
	if d == nil || d.Feasible || d.Fallback == "" {
		t.Fatalf("expected documented infeasible fallback, got %+v", sr.Results[0])
	}
}

func TestSelectCachesDecisions(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "")
	body := `{"policy": {"name": "edp"}, "kernels": [
		{"source": ` + jsonStr(saxpy) + `, "kernel": "saxpy"},
		{"source": ` + jsonStr(saxpy) + `, "kernel": "saxpy"}
	]}`
	rec := post(t, s, "/select", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("select status %d: %s", rec.Code, rec.Body)
	}
	var sr selectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cache.Hits == 0 {
		t.Fatalf("duplicate kernel+policy produced no decision-cache hits: %+v", sr.Cache)
	}
	// Retraining hot-swaps a new version; the governor (and its cached
	// decisions) must be rebuilt rather than served stale.
	trainWait(t, s, "")
	rec = post(t, s, "/select", `{"policy": {"name": "edp"}, "source": `+jsonStr(saxpy)+`}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cache.Hits != 0 || sr.Cache.Misses != 1 {
		t.Fatalf("governor not rebuilt after retraining: %+v", sr.Cache)
	}
}

func TestSelectValidation(t *testing.T) {
	s := testServer(t)
	if rec := post(t, s, "/select", `{"policy": {"name": "edp"}, "source": "x"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("select before training = %d, want 503", rec.Code)
	}
	// A missing policy name is a 400 even before training: the request is
	// malformed regardless of model state.
	if rec := post(t, s, "/select", `{"source": "x"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("select without policy = %d, want 400", rec.Code)
	}
	trainWait(t, s, "")
	if rec := post(t, s, "/select", `{"policy": {"name": "max-vibes"}, "source": "x"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown policy = %d, want 400", rec.Code)
	}
	if rec := post(t, s, "/select", `{"policy": {"name": "edp"}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("no kernels = %d, want 400", rec.Code)
	}
	rec := post(t, s, "/select", `{"policy": {"name": "edp"}, "source": "not opencl"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("bad source select = %d: %s", rec.Code, rec.Body)
	}
	var sr selectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Results[0].Error == "" || sr.Results[0].Decision != nil {
		t.Fatalf("bad source did not error per-kernel: %+v", sr.Results[0])
	}
}

func TestMethodGuards(t *testing.T) {
	s := testServer(t)
	if rec := post(t, s, "/healthz", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d", rec.Code)
	}
	if rec := get(t, s, "/train"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /train = %d", rec.Code)
	}
	if rec := get(t, s, "/predict"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict = %d", rec.Code)
	}
	if rec := post(t, s, "/predict", `{}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty predict = %d", rec.Code)
	}
	if rec := get(t, s, "/select"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /select = %d", rec.Code)
	}
	if rec := post(t, s, "/policies", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /policies = %d", rec.Code)
	}
	if rec := post(t, s, "/models", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /models = %d", rec.Code)
	}
	if rec := post(t, s, "/models/v0001", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /models/{id} = %d", rec.Code)
	}
	if rec := get(t, s, "/models/v0001/activate"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /models/{id}/activate = %d", rec.Code)
	}
	if rec := get(t, s, "/models/rollback"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /models/rollback = %d", rec.Code)
	}
}

// TestImportModelsDeduplicates covers the -model import path: importing
// the same flat file twice must reuse the snapshot, not mint a version.
func TestImportModelsDeduplicates(t *testing.T) {
	s := testServerDir(t, t.TempDir())
	me := trainWait(t, s, "")
	models, _, err := s.store.Load("titanx", me.Version)
	if err != nil {
		t.Fatal(err)
	}

	v1, err := s.importModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != me.Version {
		t.Fatalf("import minted %s for identical models, want %s", v1, me.Version)
	}
	v2, err := s.importModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 {
		t.Fatalf("second import minted %s, want %s", v2, v1)
	}
}

func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
