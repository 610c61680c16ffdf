package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
)

// paperBench trains (once per bench binary) a paper-scale model set —
// the 106 micro-benchmarks at the default 40 sampled settings — so the
// cold-start benchmarks compare like against like.
var paperBench struct {
	sync.Once
	models *core.Models
	err    error
}

// paperSnapshot publishes the cached paper-scale models as the active
// snapshot of a fresh per-benchmark model directory.
func paperSnapshot(b *testing.B) (string, *core.Models) {
	b.Helper()
	paperBench.Do(func() {
		eng := engine.NewDefault(engine.Options{})
		paperBench.models, paperBench.err = eng.TrainDefault(context.Background())
	})
	if paperBench.err != nil {
		b.Fatal(paperBench.err)
	}
	dir := b.TempDir()
	store, err := registry.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	man, err := store.Save("titanx", "", paperBench.models, registry.Training{})
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Activate("titanx", man.Version); err != nil {
		b.Fatal(err)
	}
	return dir, paperBench.models
}

// BenchmarkColdStartLoadFromDisk measures restart-to-serving with a
// populated model directory: open the registry, load + integrity-check
// the active snapshot, and install the predictor — the whole boot path a
// restarted gpufreqd takes instead of retraining.
func BenchmarkColdStartLoadFromDisk(b *testing.B) {
	dir, _ := paperSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := registry.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.NewDefault(engine.Options{})
		models, man, err := store.Load("titanx", "")
		if err != nil {
			b.Fatal(err)
		}
		eng.SetModels(models)
		if _, err := eng.Predictor(); err != nil {
			b.Fatal(err)
		}
		_ = man
	}
}

// BenchmarkColdStartRetrain is the alternative the registry obviates: a
// full paper-scale training run from scratch at boot.
func BenchmarkColdStartRetrain(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.NewDefault(engine.Options{})
		if _, err := eng.TrainDefault(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernels generates distinct OpenCL kernels so the predict loop is
// not a single cache entry.
func benchKernels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`__kernel void k%d(__global const float* a, __global float* o, int n) {
			int i = get_global_id(0);
			if (i < n) o[i] = a[i] * %d.0f + %d.0f;
		}`, i, i+1, i)
	}
	return out
}

// probeInterval paces the predict probes: a closed polling loop would
// starve the background retrain of CPU on small machines (CI runs on one
// core), which is neither realistic traffic nor a useful latency sample.
const probeInterval = 5 * time.Millisecond

// predictPercentiles drives paced /predict probes through the mux until
// stop closes (or minCalls is reached with no stop channel), returning
// p50/p99 latencies in milliseconds.
func predictPercentiles(b *testing.B, s *server, kernels []string, stop <-chan struct{}, minCalls int) (p50, p99 float64) {
	b.Helper()
	var lat []time.Duration
	for i := 0; ; i++ {
		if stop != nil {
			select {
			case <-stop:
				if len(lat) >= 32 {
					return percentiles(lat)
				}
				stop = nil // retrain finished very fast; top up to minCalls
			default:
			}
		}
		if stop == nil && len(lat) >= minCalls {
			return percentiles(lat)
		}
		body := `{"source": ` + jsonStr(kernels[i%len(kernels)]) + `}`
		start := time.Now()
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("predict status %d: %s", rec.Code, rec.Body)
		}
		lat = append(lat, time.Since(start))
		time.Sleep(probeInterval)
	}
}

func percentiles(lat []time.Duration) (p50, p99 float64) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(p float64) float64 {
		idx := int(p * float64(len(lat)-1))
		return float64(lat[idx].Microseconds()) / 1000
	}
	return at(0.50), at(0.99)
}

// newBenchServer builds a server pre-loaded with the paper-scale snapshot.
func newBenchServer(b *testing.B) *server {
	b.Helper()
	dir, _ := paperSnapshot(b)
	store, err := registry.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	s := newServer(engine.NewDefault(engine.Options{}), store, "titanx", adapt.Config{}, planeLimits{}, nil)
	if !s.loadActive() {
		b.Fatal("bench server did not load the snapshot")
	}
	return s
}

// BenchmarkPredictBaseline measures /predict p50/p99 with no concurrent
// retrain — the reference for BenchmarkPredictDuringRetrain.
func BenchmarkPredictBaseline(b *testing.B) {
	s := newBenchServer(b)
	kernels := benchKernels(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p50, p99 := predictPercentiles(b, s, kernels, nil, 512)
		b.ReportMetric(p50, "p50-ms")
		b.ReportMetric(p99, "p99-ms")
	}
}

// BenchmarkPredictDuringRetrain measures /predict p50/p99 while a full
// background retrain runs and hot-swaps — the async-/train acceptance
// number: serving latency must not collapse during training.
func BenchmarkPredictDuringRetrain(b *testing.B) {
	s := newBenchServer(b)
	kernels := benchKernels(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := s.startTraining(0)
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		go func() {
			s.waitTraining(job)
			close(stop)
		}()
		p50, p99 := predictPercentiles(b, s, kernels, stop, 512)
		if st := job.snapshot(s); st.Status != statusReady {
			b.Fatalf("retrain did not publish: %+v", st)
		}
		b.ReportMetric(p50, "p50-ms")
		b.ReportMetric(p99, "p99-ms")
	}
}
