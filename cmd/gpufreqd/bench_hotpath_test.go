package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/colproto"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/synth"
)

// paperSnapshotWithFronts publishes the cached paper-scale models plus
// their publish-time front table as the active snapshot of a fresh model
// directory.
func paperSnapshotWithFronts(b *testing.B) string {
	b.Helper()
	dir, models := paperSnapshot(b) // ensures paperBench.models
	// Re-save into the same registry with fronts and activate that version.
	store, err := registry.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.NewDefault(engine.Options{})
	fronts := registry.ComputeFronts(
		engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options()),
		engine.TrainingKernels())
	man, err := store.SaveWithFronts("titanx", "", models, registry.Training{}, fronts)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Activate("titanx", man.Version); err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchServerDir boots a server from an existing model directory.
func benchServerDir(b *testing.B, dir string) *server {
	b.Helper()
	store, err := registry.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	s := newServer(engine.NewDefault(engine.Options{}), store, "titanx", adapt.Config{})
	if !s.loadActive() {
		b.Fatal("bench server did not load the snapshot")
	}
	return s
}

// selectBody builds a /select request body for one training kernel.
func selectBody(src, kernel string) string {
	return `{"policy":{"name":"min-energy"},"source":` + jsonStr(src) + `,"kernel":` + jsonStr(kernel) + `}`
}

// selectFirstTouch measures the latency of every training kernel's FIRST
// /select decision on a fresh server (paced like predictPercentiles): the
// number that separates a published front table (map hit) from a live
// ladder sweep (two SVR evaluations per configuration).
func selectFirstTouch(b *testing.B, s *server) (p50, p99 float64) {
	b.Helper()
	var lat []time.Duration
	for _, bench := range synth.Generate() {
		body := selectBody(bench.Source, bench.KernelName)
		start := time.Now()
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/select", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("select status %d: %s", rec.Code, rec.Body)
		}
		lat = append(lat, time.Since(start))
		time.Sleep(probeInterval)
	}
	return percentiles(lat)
}

// BenchmarkSelectFirstTouchFront is the after: first-touch /select over
// the 106 training kernels against a snapshot with published fronts —
// every decision is a front-table map hit with zero SVR evaluations.
func BenchmarkSelectFirstTouchFront(b *testing.B) {
	dir := paperSnapshotWithFronts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchServerDir(b, dir)
		if _, _, gov, _ := s.serving.Current(); gov.FrontKernels() == 0 {
			b.Fatal("snapshot has no fronts")
		}
		p50, p99 := selectFirstTouch(b, s)
		b.ReportMetric(p50, "p50-ms")
		b.ReportMetric(p99, "p99-ms")
	}
}

// BenchmarkSelectFirstTouchLive is the before: the same first-touch sweep
// against a frontless snapshot, so every decision runs the live ladder
// sweep through the SVRs.
func BenchmarkSelectFirstTouchLive(b *testing.B) {
	dir, _ := paperSnapshot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchServerDir(b, dir)
		p50, p99 := selectFirstTouch(b, s)
		b.ReportMetric(p50, "p50-ms")
		b.ReportMetric(p99, "p99-ms")
	}
}

// BenchmarkSelectHot measures steady-state /select latency on a
// front-published server: after one warm pass, paced probes rotating the
// training kernels (decision-cache and front-table hits only).
func BenchmarkSelectHot(b *testing.B) {
	dir := paperSnapshotWithFronts(b)
	s := benchServerDir(b, dir)
	kernels := synth.Generate()
	bodies := make([]string, len(kernels))
	for i, k := range kernels {
		bodies[i] = selectBody(k.Source, k.KernelName)
	}
	for _, body := range bodies { // warm pass
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/select", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("warmup select status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lat []time.Duration
		for j := 0; j < 512; j++ {
			body := bodies[j%len(bodies)]
			start := time.Now()
			rec := httptest.NewRecorder()
			s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/select", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("select status %d: %s", rec.Code, rec.Body)
			}
			lat = append(lat, time.Since(start))
			time.Sleep(probeInterval)
		}
		p50, p99 := percentiles(lat)
		b.ReportMetric(p50, "p50-ms")
		b.ReportMetric(p99, "p99-ms")
	}
}

// BenchmarkPredictCeiling measures the single-kernel /predict requests/s
// ceiling: a closed loop with no pacing, the maximum one connection can
// push through the mux.
func BenchmarkPredictCeiling(b *testing.B) {
	dir, _ := paperSnapshot(b)
	s := benchServerDir(b, dir)
	kernels := benchKernels(32)
	// Warm the front memo so the ceiling measures the steady state.
	for _, k := range kernels {
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict",
			strings.NewReader(`{"source": `+jsonStr(k)+`}`)))
		if rec.Code != http.StatusOK {
			b.Fatalf("predict status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		const calls = 2048
		start := time.Now()
		for j := 0; j < calls; j++ {
			body := `{"source": ` + jsonStr(kernels[j%len(kernels)]) + `}`
			rec := httptest.NewRecorder()
			s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("predict status %d: %s", rec.Code, rec.Body)
			}
		}
		b.ReportMetric(float64(calls)/time.Since(start).Seconds(), "req/s")
		b.ReportMetric(float64(calls)/time.Since(start).Seconds(), "kernels/s")
	}
}

// BenchmarkBatchCeiling measures the columnar /predict/batch ceiling with
// the binary framing: 32 kernels per request in a closed loop, reported
// both as requests/s and kernels/s (the number to compare against
// BenchmarkPredictCeiling's kernels/s).
func BenchmarkBatchCeiling(b *testing.B) {
	dir := paperSnapshotWithFronts(b)
	s := benchServerDir(b, dir)
	const perRequest = 32
	cols := &colproto.Columns{}
	for _, k := range synth.Generate()[:perRequest] {
		cols.Append(k.Name, k.Features())
	}
	frame := cols.AppendBinary(nil)
	body := bytes.NewReader(frame)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		const calls = 64
		start := time.Now()
		for j := 0; j < calls; j++ {
			body.Reset(frame)
			req := httptest.NewRequest(http.MethodPost, "/predict/batch", body)
			req.Header.Set("Content-Type", binaryContentType)
			rec := httptest.NewRecorder()
			s.mux.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("batch status %d: %s", rec.Code, rec.Body)
			}
		}
		secs := time.Since(start).Seconds()
		b.ReportMetric(float64(calls)/secs, "req/s")
		b.ReportMetric(float64(calls*perRequest)/secs, "kernels/s")
	}
}
