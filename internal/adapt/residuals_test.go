package adapt

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/registry"
	"repro/internal/svm"
)

// randomModel builds an RBF model over nsv seeded random support vectors,
// so predictions genuinely depend on the features and the configuration.
func randomModel(tb testing.TB, rng *rand.Rand, nsv int) *svm.Model {
	tb.Helper()
	var b strings.Builder
	b.WriteString(`{"kernel":{"type":"rbf","gamma":0.5},"support_vectors":[`)
	for i := 0; i < nsv; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j := 0; j < features.Dim; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(rng.Float64(), 'g', -1, 64))
		}
		b.WriteByte(']')
	}
	b.WriteString(`],"coefs":[`)
	for i := 0; i < nsv; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(0.4*rng.Float64()-0.2, 'g', -1, 64))
	}
	b.WriteString(`],"b":1}`)
	m, err := svm.Load(strings.NewReader(b.String()))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func randomModels(tb testing.TB, rng *rand.Rand, nsv int) *core.Models {
	return &core.Models{Speedup: randomModel(tb, rng, nsv), Energy: randomModel(tb, rng, nsv)}
}

// obsStream draws seeded valid observations over the Titan X ladder; the
// measured objectives scatter around 1 by ±noise.
type obsStream struct {
	rng   *rand.Rand
	cfgs  []freq.Config
	noise float64
}

func newObsStream(seed int64) *obsStream {
	ladder := gpu.TitanX().Ladder
	s := &obsStream{rng: rand.New(rand.NewSource(seed)), noise: 0.05}
	for _, mem := range ladder.MemClocks() {
		for _, c := range ladder.CoreClocks(mem) {
			s.cfgs = append(s.cfgs, freq.Config{Mem: mem, Core: c})
		}
	}
	return s
}

func (s *obsStream) next() Observation {
	var st features.Static
	var sum float64
	for i := range st {
		st[i] = s.rng.Float64()
		sum += st[i]
	}
	for i := range st {
		st[i] *= 0.9 / sum
	}
	return Observation{
		Kernel:     "k",
		Features:   st,
		Config:     s.cfgs[s.rng.Intn(len(s.cfgs))],
		Speedup:    1 + s.noise*(2*s.rng.Float64()-1),
		NormEnergy: 1 + s.noise*(2*s.rng.Float64()-1),
	}
}

// wantDrift is the reference verdict: the drift rule applied to
// Residuals(pred, window) over the controller's current window.
func wantDrift(c *Controller, pred *engine.Predictor) DriftStatus {
	window := c.Observations()
	if n := len(window); n > c.cfg.Window {
		window = window[n-c.cfg.Window:]
	}
	speedup, energy := Residuals(pred, window)
	return c.judge(len(window), speedup, energy)
}

// TestDriftMemoMatchesResiduals pins the drift window's per-slot error memo
// to the one definition of observation error: across a seeded ingest
// stream, a process restart that restores the window from the WAL (with a
// different model serving), and two hot-swaps, every verdict equals the
// rule applied to Residuals(pred, window) — bit for bit, as ==.
func TestDriftMemoMatchesResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	models := []*core.Models{randomModels(t, rng, 8), randomModels(t, rng, 8), randomModels(t, rng, 8)}
	cfg := Config{Capacity: 48, Window: 16, MinSamples: 4, BaselineSpeedup: 0.08, BaselineEnergy: 0.08}
	stream := newObsStream(3)
	r := newRig(t, models[0], registry.Training{})
	verdicts := map[bool]int{}
	check := func(c *Controller, step string, got DriftStatus) {
		t.Helper()
		pred, _, _ := r.current()
		if want := wantDrift(c, pred); got != want {
			t.Fatalf("%s: drift %+v, want %+v", step, got, want)
		}
		verdicts[got.Drift]++
	}
	observe := func(c *Controller, phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if i%20 == 0 {
				stream.noise = 0.02 + 0.3*rng.Float64() // drift comes and goes
			}
			res, err := c.Observe(stream.next())
			if err != nil {
				t.Fatal(err)
			}
			check(c, fmt.Sprintf("%s ingest %d", phase, i), res.Drift)
		}
	}

	dir := t.TempDir()
	wal, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	deps := r.deps(fakeTrainer{models: models[0]})
	deps.WAL = wal
	observe(New(cfg, deps), "first process", 40)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the restored window carries no cached errors, and a
	// different model serves than the one the first process evaluated.
	r.setCurrent("v0002", models[1])
	if deps.WAL, err = OpenWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer deps.WAL.Close()
	c := New(cfg, deps)
	check(c, "restored", c.Status().Drift)
	observe(c, "restored", 30)

	for i, m := range []*core.Models{models[2], models[0]} {
		r.setCurrent(fmt.Sprintf("v%04d", i+3), m)
		check(c, fmt.Sprintf("swap %d status", i+1), c.Status().Drift)
		observe(c, fmt.Sprintf("swap %d", i+1), 60)
	}
	if got := c.StoreStats(); got.Total != 190 || got.Count != cfg.Capacity {
		t.Fatalf("store accounting %+v, want 190 ingested and a full ring", got)
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("stream never exercised both verdicts: %v", verdicts)
	}
}

// TestDriftMemoConcurrentSwaps ingests from several goroutines while the
// serving model hot-swaps underneath; once traffic stops, the verdict must
// still equal the rule over Residuals for the final model. Run under -race
// it is the memo's concurrency check.
func TestDriftMemoConcurrentSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	models := []*core.Models{randomModels(t, rng, 4), randomModels(t, rng, 4), randomModels(t, rng, 4)}
	r := newRig(t, models[0], registry.Training{})
	c := New(Config{Capacity: 64, Window: 32, MinSamples: 4, BaselineSpeedup: 0.1, BaselineEnergy: 0.1},
		r.deps(fakeTrainer{models: models[0]}))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			stream := newObsStream(seed)
			for i := 0; i < 60; i++ {
				if _, err := c.Observe(stream.next()); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	for i := 0; i < 12; i++ {
		r.setCurrent(fmt.Sprintf("v%04d", i+2), models[i%len(models)])
		c.Status()
	}
	wg.Wait()

	pred, _, _ := r.current()
	if got, want := c.Status().Drift, wantDrift(c, pred); got != want {
		t.Fatalf("drift after concurrent swaps %+v, want %+v", got, want)
	}
}

// BenchmarkObserveWindow is one Observe with a full drift window of the
// given size, against models with real support vectors. Each ingest
// predicts only the new observation; the rest of the window reuses its
// memoized errors, so the window size adds only the in-order sum of
// squares.
func BenchmarkObserveWindow(b *testing.B) {
	for _, window := range []int{64, 1024} {
		b.Run("window="+strconv.Itoa(window), func(b *testing.B) {
			models := randomModels(b, rand.New(rand.NewSource(1)), 64)
			pred := engine.NewPredictor(models, gpu.TitanX().Ladder, engine.Options{Workers: 1})
			store, err := registry.Open("")
			if err != nil {
				b.Fatal(err)
			}
			c := New(Config{Capacity: window, Window: window}, Deps{
				Device: "titanx", Store: store,
				Current: func() (*engine.Predictor, string, bool) { return pred, "v0001", true },
				Trainer: fakeTrainer{models: models},
			})
			stream := newObsStream(1)
			ring := make([]Observation, window)
			for i := range ring {
				ring[i] = stream.next()
				if _, err := c.Observe(ring[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Observe(ring[i%window]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
