package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/colproto"
	"repro/internal/core"
	"repro/internal/synth"
)

// batchColumns builds a columnar request over the first n synthetic
// training kernels.
func batchColumns(n int) *colproto.Columns {
	cols := &colproto.Columns{}
	for _, b := range synth.Generate()[:n] {
		cols.Append(b.Name, b.Features())
	}
	return cols
}

// sortPreds orders a front canonically so batch and live derivations
// compare equal regardless of tie ordering.
func sortPreds(ps []core.Prediction) []core.Prediction {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b core.Prediction) int {
		switch {
		case a.Speedup != b.Speedup:
			if a.Speedup < b.Speedup {
				return -1
			}
			return 1
		case a.NormEnergy != b.NormEnergy:
			if a.NormEnergy < b.NormEnergy {
				return -1
			}
			return 1
		default:
			return int(a.Config.Mem - b.Config.Mem)
		}
	})
	return out
}

func TestPredictBatchJSONRoundTrip(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "{}")
	version, pred, _, ok := s.serving.Current()
	if !ok {
		t.Fatal("no serving predictor after training")
	}

	cols := batchColumns(3)
	doc, err := json.Marshal(cols)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/predict/batch", string(doc))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var fronts colproto.Fronts
	if err := json.Unmarshal(rec.Body.Bytes(), &fronts); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, rec.Body)
	}
	if fronts.Version != version || fronts.Count != cols.Len() {
		t.Fatalf("response version=%q count=%d, want %q/%d", fronts.Version, fronts.Count, version, cols.Len())
	}
	for i, b := range synth.Generate()[:cols.Len()] {
		got := sortPreds(fronts.Kernel(i))
		want := sortPreds(pred.ParetoSet(b.Features()))
		if len(got) != len(want) {
			t.Fatalf("%s: batch front has %d points, live %d", b.Name, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s point %d: batch %+v, live %+v", b.Name, j, got[j], want[j])
			}
		}
		if last := fronts.Kernel(i); !last[len(last)-1].MemLHeuristic {
			t.Fatalf("%s: front does not end with the mem-L heuristic point", b.Name)
		}
	}
}

func TestPredictBatchBinaryRoundTrip(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "{}")

	cols := batchColumns(2)
	frame := cols.AppendBinary(nil)
	req := httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(frame))
	req.Header.Set("Content-Type", binaryContentType)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary batch status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != binaryContentType {
		t.Fatalf("Content-Type %q, want %q", ct, binaryContentType)
	}
	var binFronts colproto.Fronts
	if err := binFronts.ParseBinary(rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}

	// The binary response must describe the same fronts as the JSON one.
	doc, err := json.Marshal(cols)
	if err != nil {
		t.Fatal(err)
	}
	jrec := post(t, s, "/predict/batch", string(doc))
	var jsonFronts colproto.Fronts
	if err := json.Unmarshal(jrec.Body.Bytes(), &jsonFronts); err != nil {
		t.Fatal(err)
	}
	if binFronts.Count != jsonFronts.Count || binFronts.Version != jsonFronts.Version {
		t.Fatalf("framings disagree: binary %d/%s, json %d/%s",
			binFronts.Count, binFronts.Version, jsonFronts.Count, jsonFronts.Version)
	}
	for i := 0; i < binFronts.Count; i++ {
		b, j := binFronts.Kernel(i), jsonFronts.Kernel(i)
		if len(b) != len(j) {
			t.Fatalf("kernel %d: binary %d points, json %d", i, len(b), len(j))
		}
		for k := range b {
			if b[k] != j[k] {
				t.Fatalf("kernel %d point %d: binary %+v, json %+v", i, k, b[k], j[k])
			}
		}
	}
}

func TestPredictBatchErrors(t *testing.T) {
	s := testServer(t)

	// No active model: 503 before training.
	if rec := post(t, s, "/predict/batch", `{"columns":[[1]]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("untrained batch status %d, want 503: %s", rec.Code, rec.Body)
	}

	trainWait(t, s, "{}")
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"bad json", "{", http.StatusBadRequest},
		{"wrong column count", `{"columns":[[1],[2]]}`, http.StatusBadRequest},
		{"empty batch", `{"columns":[[],[],[],[],[],[],[],[],[],[]]}`, http.StatusBadRequest},
		{"ragged columns", `{"columns":[[1,2],[1],[1],[1],[1],[1],[1],[1],[1],[1]]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := post(t, s, "/predict/batch", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not structured JSON: %s", tc.name, rec.Body)
		}
	}
	if rec := get(t, s, "/predict/batch"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status %d, want 405", rec.Code)
	}

	// A truncated binary frame is rejected, not misparsed.
	frame := batchColumns(2).AppendBinary(nil)
	req := httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(frame[:len(frame)-3]))
	req.Header.Set("Content-Type", binaryContentType)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated binary frame status %d, want 400: %s", rec.Code, rec.Body)
	}
}

// discardWriter is a ResponseWriter that reuses its header map and
// discards the body, so the alloc gate measures the handler, not the
// recorder.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(c int)   { d.code = c }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// TestPredictBatchHandlerAllocs pins the allocation budget of the whole
// binary hot path — request decode, PredictFrontsInto, response encode —
// through the real handler. The steady-state budget is a handful of
// header-map and content-type allocations; the columnar work itself is
// allocation-free (see engine and colproto alloc tests).
func TestPredictBatchHandlerAllocs(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "{}")

	frame := batchColumns(1).AppendBinary(nil)
	body := bytes.NewReader(frame)
	req := httptest.NewRequest(http.MethodPost, "/predict/batch", body)
	req.Header.Set("Content-Type", binaryContentType)
	req.ContentLength = int64(len(frame))
	w := &discardWriter{h: make(http.Header)}

	run := func() {
		body.Reset(frame)
		req.Body = noopCloser{body}
		s.handlePredictBatch(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("batch handler status %d", w.code)
		}
	}
	run() // warm pools and grow buffers
	allocs := testing.AllocsPerRun(50, run)
	// The budget covers header writes (two Set calls), Content-Length
	// formatting, and mime parsing — nothing proportional to the batch.
	const budget = 12
	if raceEnabled {
		// sync.Pool drops buffers on purpose under -race; the handler
		// still ran above, only the count is not enforced.
		t.Logf("race build: %.0f allocs/request, budget %d not enforced", allocs, budget)
		return
	}
	if allocs > budget {
		t.Fatalf("binary batch handler allocates %.0f objects/request, budget %d", allocs, budget)
	}
}

type noopCloser struct{ *bytes.Reader }

func (noopCloser) Close() error { return nil }

// TestSelectServesPublishedFrontZeroSVR is the end-to-end zero-SVR pin:
// after training (which publishes fronts), /select on a training kernel
// resolves from the front table — the governor reports a front hit and
// runs no live sweep.
func TestSelectServesPublishedFrontZeroSVR(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "{}")
	_, _, gov, ok := s.serving.Current()
	if !ok {
		t.Fatal("no serving governor after training")
	}
	if gov.FrontKernels() == 0 {
		t.Fatal("training published no front table")
	}

	b := synth.Generate()[0]
	doc, err := json.Marshal(map[string]any{
		"policy": map[string]any{"name": "min-energy"},
		"source": b.Source,
		"kernel": b.KernelName,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/select", string(doc))
	if rec.Code != http.StatusOK {
		t.Fatalf("select status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []struct {
			Decision *json.RawMessage `json:"decision"`
			Error    string           `json:"error"`
		} `json:"results"`
		Cache struct {
			FrontKernels int    `json:"front_kernels"`
			FrontHits    uint64 `json:"front_hits"`
			SweepMisses  uint64 `json:"sweep_misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error != "" || resp.Results[0].Decision == nil {
		t.Fatalf("select did not decide: %s", rec.Body)
	}
	if resp.Cache.FrontKernels == 0 || resp.Cache.FrontHits != 1 || resp.Cache.SweepMisses != 0 {
		t.Fatalf("decision did not come from the front table: %+v", resp.Cache)
	}

	// An unknown kernel still decides (live sweep fallback).
	doc, _ = json.Marshal(map[string]any{
		"policy": map[string]any{"name": "min-energy"},
		"source": saxpy,
	})
	rec = post(t, s, "/select", string(doc))
	if rec.Code != http.StatusOK {
		t.Fatalf("fallback select status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache.SweepMisses != 1 || resp.Cache.FrontHits != 1 {
		t.Fatalf("unknown kernel did not fall back to a live sweep: %+v", resp.Cache)
	}
}

// TestPredictBatchPoolReuseAfterBadJSON is the pooled-state regression:
// a JSON request with the wrong column count is rejected with 400 but
// its buffers go back to the pool, and the next binary request — which
// almost certainly draws the same buffers — must still parse and serve
// rather than panic on the short column slice.
func TestPredictBatchPoolReuseAfterBadJSON(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "{}")

	for i := 0; i < 3; i++ {
		if rec := post(t, s, "/predict/batch", `{"columns":[[1],[2]]}`); rec.Code != http.StatusBadRequest {
			t.Fatalf("wrong-count JSON status %d, want 400: %s", rec.Code, rec.Body)
		}
		frame := batchColumns(2).AppendBinary(nil)
		req := httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(frame))
		req.Header.Set("Content-Type", binaryContentType)
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("binary request after bad JSON: status %d, want 200: %s", rec.Code, rec.Body)
		}
		var fronts colproto.Fronts
		if err := fronts.ParseBinary(rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		if fronts.Count != 2 {
			t.Fatalf("binary response has %d kernels, want 2", fronts.Count)
		}
	}
}

// TestPredictBatchBodyCap pins the request-size bound of the
// unauthenticated batch endpoint: a body over maxBatchBodyBytes is cut
// off with 413, and a request merely *claiming* a huge Content-Length
// cannot force a matching allocation.
func TestPredictBatchBodyCap(t *testing.T) {
	s := testServer(t)
	trainWait(t, s, "{}")

	big := bytes.Repeat([]byte("x"), maxBatchBodyBytes+1)
	req := httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(big))
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413: %s", rec.Code, rec.Body)
	}

	// A huge claimed Content-Length with no body must not preallocate:
	// the request fails fast as an empty body, and the pool keeps only
	// modest buffers.
	req = httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(nil))
	req.ContentLength = 1 << 40
	rec = httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("claimed-huge empty body status %d, want 400: %s", rec.Code, rec.Body)
	}
	bb := batchBufPool.Get().(*batchBuffers)
	defer batchBufPool.Put(bb)
	if cap(bb.body) > maxBatchBodyBytes {
		t.Fatalf("pooled body buffer is %d bytes — an oversized buffer was pooled", cap(bb.body))
	}
}
