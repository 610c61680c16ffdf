package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/policy"
	"repro/internal/synth"
)

// predictStats posts body to /predict and returns the decoded reply,
// failing the test on any non-200 status.
func predictStats(t *testing.T, s *server, body any) predictResponse {
	t.Helper()
	doc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/predict", string(doc))
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body)
	}
	var pr predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestPredictServesFrontMemo pins /predict on the governor's front memo,
// the path /select resolves through:
//   - every training kernel answers from the publish-time front table,
//     bit-identical to the live sweep, as one front hit each and no sweep;
//   - an unknown kernel costs one live sweep on /predict, which a later
//     /select over the same kernel reuses (one sweep hit);
//   - /predict/batch bypasses the memo and moves none of its counters.
func TestPredictServesFrontMemo(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "{}")
	_, pred, gov, ok := s.serving.Current()
	if !ok || gov.FrontKernels() == 0 {
		t.Fatal("training published no front table")
	}

	training := synth.Generate()
	req := predictRequest{}
	for _, b := range training {
		req.Kernels = append(req.Kernels, predictKernel{Source: b.Source, Kernel: b.KernelName})
	}
	base := gov.Stats()
	pr := predictStats(t, s, req)
	if len(pr.Results) != len(training) {
		t.Fatalf("%d results for %d kernels", len(pr.Results), len(training))
	}
	for i, b := range training {
		res := pr.Results[i]
		if res.Error != "" {
			t.Fatalf("%s: %s", b.Name, res.Error)
		}
		if want := pred.ParetoSet(b.Features()); !reflect.DeepEqual(res.Pareto, want) {
			t.Fatalf("%s: /predict front differs from the live sweep:\n got %+v\nwant %+v", b.Name, res.Pareto, want)
		}
	}
	want := base
	want.FrontHits += uint64(len(training))
	if pr.Cache != want {
		t.Fatalf("training kernels on /predict: cache %+v, want %+v (front hits only, zero sweeps)", pr.Cache, want)
	}

	// An unknown kernel: /predict sweeps once, /select reuses the sweep.
	st, err := features.ExtractSource(saxpy, "")
	if err != nil {
		t.Fatal(err)
	}
	pr = predictStats(t, s, predictRequest{Source: saxpy})
	if len(pr.Results) != 1 || !reflect.DeepEqual(pr.Results[0].Pareto, pred.ParetoSet(st)) {
		t.Fatalf("unknown kernel: /predict front differs from the live sweep: %+v", pr.Results)
	}
	want.SweepMisses++
	if pr.Cache != want {
		t.Fatalf("unknown kernel on /predict: cache %+v, want %+v (one sweep miss)", pr.Cache, want)
	}
	doc, err := json.Marshal(selectRequest{Policy: policy.Spec{Name: policy.MinEnergy}, Source: saxpy})
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(t, s, "/select", string(doc)); rec.Code != http.StatusOK {
		t.Fatalf("select status %d: %s", rec.Code, rec.Body)
	}
	want.Misses++
	want.Entries++
	want.SweepHits++
	if got := gov.Stats(); got != want {
		t.Fatalf("unknown kernel on /select after /predict: cache %+v, want %+v (one sweep hit)", got, want)
	}

	// The columnar batch plane computes its own fronts.
	doc, err = json.Marshal(batchColumns(8))
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(t, s, "/predict/batch", string(doc)); rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	if got := gov.Stats(); got != want {
		t.Fatalf("/predict/batch moved the front-memo counters: %+v -> %+v", want, got)
	}
}
