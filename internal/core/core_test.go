package core_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/pareto"
	"repro/internal/svm"
	"repro/internal/synth"
)

// Adapt converts synth benchmarks to training kernels.
func adapt(bs []synth.Benchmark) []core.TrainingKernel {
	out := make([]core.TrainingKernel, len(bs))
	for i := range bs {
		out[i] = core.TrainingKernel{
			Name:     bs[i].Name,
			Features: bs[i].Features(),
			Profile:  bs[i].Profile(),
		}
	}
	return out
}

// trainSmall trains on a reduced setup (every 2nd micro-benchmark, 16
// settings) to keep unit tests fast; benches exercise the full 106×40.
func trainSmall(t *testing.T) (*core.Models, *measure.Harness) {
	t.Helper()
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	all := synth.Generate()
	var subset []synth.Benchmark
	for i := range all {
		if i%2 == 0 {
			subset = append(subset, all[i])
		}
	}
	eng := engine.New(h, engine.Options{Core: core.Options{SettingsPerKernel: 16}})
	models, err := eng.Train(context.Background(), adapt(subset))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return models, h
}

var cachedModels *core.Models
var cachedHarness *measure.Harness

func sharedModels(t *testing.T) (*core.Models, *measure.Harness) {
	t.Helper()
	if cachedModels == nil {
		cachedModels, cachedHarness = trainSmall(t)
	}
	return cachedModels, cachedHarness
}

func TestBuildTrainingSetShape(t *testing.T) {
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	bs := synth.Generate()[:3]
	eng := engine.New(h, engine.Options{Core: core.Options{SettingsPerKernel: 10}})
	samples, err := eng.BuildTrainingSet(context.Background(), adapt(bs))
	if err != nil {
		t.Fatal(err)
	}
	settings := h.Device().Sim().Ladder.TrainingSample(10)
	want := 3 * len(settings)
	if len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	for _, s := range samples {
		if s.Speedup <= 0 || s.NormEnergy <= 0 {
			t.Errorf("%s@%v: non-positive objectives %v %v", s.Kernel, s.Config, s.Speedup, s.NormEnergy)
		}
		if s.Vector[features.StaticDim] < -0.01 {
			t.Errorf("core frequency feature negative: %v", s.Vector[features.StaticDim])
		}
	}
}

func TestPaperTrainingSetSize(t *testing.T) {
	// Paper: 106 micro-benchmarks x 40 sampled settings = 4240 samples.
	if testing.Short() {
		t.Skip("full training set in -short mode")
	}
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	settings := h.Device().Sim().Ladder.TrainingSample(40)
	if len(settings) < 38 || len(settings) > 42 {
		t.Fatalf("sampled %d settings, want ~40", len(settings))
	}
	total := len(settings) * 106
	if total < 4000 || total > 4500 {
		t.Errorf("training size %d, want ~4240", total)
	}
}

func TestTrainedModelsPredictSensibly(t *testing.T) {
	models, h := sharedModels(t)
	pred := engine.NewPredictor(models, h.Device().Sim().Ladder, engine.Options{})

	// A compute-heavy unseen kernel: predicted speedup must grow with the
	// core clock at the highest memory clock.
	knnB, err := bench.ByName("k-NN")
	if err != nil {
		t.Fatal(err)
	}
	st := knnB.Features()
	ladder := h.Device().Sim().Ladder
	lo := pred.PredictConfig(st, freq.Config{Mem: freq.MemH, Core: 595})
	mid := pred.PredictConfig(st, freq.Config{Mem: freq.MemH, Core: ladder.NearestCore(freq.MemH, 898)})
	hi := pred.PredictConfig(st, freq.Config{Mem: freq.MemH, Core: 1202})
	if !(lo.Speedup < mid.Speedup && mid.Speedup < hi.Speedup) {
		t.Errorf("predicted speedup not increasing in core clock: %.3f, %.3f, %.3f",
			lo.Speedup, mid.Speedup, hi.Speedup)
	}
	// Around the default configuration the speedup prediction should be
	// near 1 (it is the normalization anchor).
	def := pred.PredictConfig(st, h.Device().Sim().Ladder.Default())
	if math.Abs(def.Speedup-1) > 0.25 {
		t.Errorf("predicted speedup at default = %.3f, want ~1", def.Speedup)
	}
	if math.Abs(def.NormEnergy-1) > 0.25 {
		t.Errorf("predicted energy at default = %.3f, want ~1", def.NormEnergy)
	}
}

func TestSpeedupAccuracyOnUnseenKernels(t *testing.T) {
	// End-to-end accuracy check mirroring Fig. 6: on the high memory
	// clocks the speedup RMSE over the test benchmarks must be small.
	models, h := sharedModels(t)
	pred := engine.NewPredictor(models, h.Device().Sim().Ladder, engine.Options{})
	var se []float64
	for _, name := range []string{"k-NN", "MT", "MatrixMultiply", "Blackscholes"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st := b.Features()
		base, err := h.Baseline(b.Profile())
		if err != nil {
			t.Fatal(err)
		}
		ladder := h.Device().Sim().Ladder
		for _, cfg := range []freq.Config{
			{Mem: freq.MemH, Core: 595},
			{Mem: freq.MemH, Core: ladder.NearestCore(freq.MemH, 898)},
			{Mem: freq.MemH, Core: 1001},
			{Mem: freq.MemH, Core: 1202},
			{Mem: freq.Memh, Core: ladder.NearestCore(freq.Memh, 898)},
		} {
			rel, err := h.MeasureRelative(b.Profile(), cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			p := pred.PredictConfig(st, cfg)
			se = append(se, p.Speedup-rel.Speedup)
		}
	}
	rmse := 0.0
	for _, e := range se {
		rmse += e * e
	}
	rmse = math.Sqrt(rmse / float64(len(se)))
	// Paper reports 6.68% RMSE at mem-H; allow slack for the reduced
	// training subset used in unit tests.
	if rmse > 0.20 {
		t.Errorf("speedup RMSE on unseen kernels = %.3f, want < 0.20", rmse)
	}
}

func TestParetoSetProperties(t *testing.T) {
	models, h := sharedModels(t)
	pred := engine.NewPredictor(models, h.Device().Sim().Ladder, engine.Options{})
	b, err := bench.ByName("Convolution")
	if err != nil {
		t.Fatal(err)
	}
	set := pred.ParetoSet(b.Features())
	if len(set) < 2 {
		t.Fatalf("Pareto set has %d points, want several", len(set))
	}
	// Exactly one mem-L heuristic point, and it is the highest mem-L core.
	heurs := 0
	for _, p := range set {
		if p.MemLHeuristic {
			heurs++
			if p.Config.Mem != freq.MemL {
				t.Errorf("heuristic point at mem %d, want %d", p.Config.Mem, freq.MemL)
			}
			cores := h.Device().Sim().Ladder.CoreClocks(freq.MemL)
			if p.Config.Core != cores[len(cores)-1] {
				t.Errorf("heuristic core = %d, want last mem-L core %d",
					p.Config.Core, cores[len(cores)-1])
			}
		} else if p.Config.Mem == freq.MemL {
			t.Errorf("non-heuristic mem-L point %v in predicted set", p.Config)
		}
	}
	if heurs != 1 {
		t.Errorf("%d heuristic points, want 1", heurs)
	}
	// Model-predicted members must be mutually non-dominated.
	for i, a := range set {
		if a.MemLHeuristic {
			continue
		}
		for j, b := range set {
			if i == j || b.MemLHeuristic {
				continue
			}
			if a.Speedup >= b.Speedup && a.NormEnergy < b.NormEnergy {
				t.Errorf("set member %v dominates %v", a.Config, b.Config)
			}
		}
	}
}

// TestParetoFrontMatchesSimple keeps the predictor's front derivation from
// a grid (Predictor.FrontOf, which runs pareto.FrontInPlace)
// interchangeable with the paper's Algorithm 1 (pareto.Simple) over random
// prediction clouds, including exact duplicates and tied objectives. The
// P100 ladder has no mem-L point, so FrontOf returns the front alone.
func TestParetoFrontMatchesSimple(t *testing.T) {
	models, _ := sharedModels(t)
	pred := engine.NewPredictor(models, freq.P100(), engine.Options{})
	seed := uint64(12345)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	for trial := 0; trial < 50; trial++ {
		n := 5 + trial*7
		preds := make([]core.Prediction, n)
		for i := range preds {
			// Quantize some coordinates so ties and duplicates occur.
			s := next()
			e := next()
			if i%3 == 0 {
				s = math.Round(s*8) / 8
				e = math.Round(e*8) / 8
			}
			preds[i] = core.Prediction{
				Config:     freq.Config{Mem: freq.MHz(i), Core: freq.MHz(i)},
				Speedup:    0.2 + s,
				NormEnergy: 0.6 + e,
			}
		}
		got := pred.FrontOf(features.Static{}, preds)

		pts := make([]pareto.Point, n)
		for i, pr := range preds {
			pts[i] = pareto.Point{Speedup: pr.Speedup, Energy: pr.NormEnergy, ID: i}
		}
		want := pareto.Simple(pts)

		if len(got) != len(want) {
			t.Fatalf("trial %d: front size %d (FrontOf) vs %d (Simple)", trial, len(got), len(want))
		}
		// Both fronts are sorted by (speedup, energy); compare as multisets
		// of objective pairs so duplicate-point ID order doesn't matter.
		for i := range got {
			if got[i].Speedup != want[i].Speedup || got[i].NormEnergy != want[i].Energy {
				t.Fatalf("trial %d: front[%d] = (%v, %v), Algorithm 1 has (%v, %v)",
					trial, i, got[i].Speedup, got[i].NormEnergy, want[i].Speedup, want[i].Energy)
			}
		}
	}
}

func TestPredictSource(t *testing.T) {
	models, h := sharedModels(t)
	pred := engine.NewPredictor(models, h.Device().Sim().Ladder, engine.Options{})
	src := `__kernel void saxpy(__global float* x, __global float* y, float a, int n) {
	    int i = get_global_id(0);
	    if (i < n) { y[i] = a * x[i] + y[i]; }
	}`
	set, err := pred.PredictSource(src, "saxpy")
	if err != nil {
		t.Fatalf("PredictSource: %v", err)
	}
	if len(set) == 0 {
		t.Fatal("empty prediction")
	}
	if _, err := pred.PredictSource("garbage", ""); err == nil {
		t.Error("expected parse error")
	}
}

func TestModelsSaveLoadRoundTrip(t *testing.T) {
	models, h := sharedModels(t)
	var buf bytes.Buffer
	if err := models.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	st, err := features.ExtractSource(`__kernel void k(__global float* o) { o[0] = 1.0f; }`, "")
	if err != nil {
		t.Fatal(err)
	}
	p1 := engine.NewPredictor(models, h.Device().Sim().Ladder, engine.Options{})
	p2 := engine.NewPredictor(loaded, h.Device().Sim().Ladder, engine.Options{})
	cfg := freq.Config{Mem: freq.MemH, Core: 1001}
	a, b := p1.PredictConfig(st, cfg), p2.PredictConfig(st, cfg)
	if math.Abs(a.Speedup-b.Speedup) > 1e-9 || math.Abs(a.NormEnergy-b.NormEnergy) > 1e-9 {
		t.Errorf("round-trip drift: %+v vs %+v", a, b)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := core.Load(strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := core.Load(strings.NewReader(`{"speedup": {"kernel":{"type":"x"}}, "energy": null}`)); err == nil {
		t.Error("expected kernel error")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := engine.NewDefault(engine.Options{}).Fit(context.Background(), nil); err == nil {
		t.Error("Fit(nil) should fail")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := core.Options{}.WithDefaults()
	if o.SettingsPerKernel != 40 {
		t.Errorf("SettingsPerKernel = %d, want 40", o.SettingsPerKernel)
	}
	if _, ok := o.SpeedupKernel.(svm.Linear); !ok {
		t.Errorf("speedup kernel = %v, want linear", o.SpeedupKernel)
	}
	rbf, ok := o.EnergyKernel.(svm.RBF)
	if !ok || rbf.Gamma != 4 {
		t.Errorf("energy kernel = %v, want rbf(4) (substrate-calibrated)", o.EnergyKernel)
	}
	if o.Params.C != 1000 || o.Params.Epsilon != 0.1 {
		t.Errorf("params = %+v, want C=1000 eps=0.1", o.Params)
	}
}

func TestP100PredictorNoHeuristic(t *testing.T) {
	// On a single-memory-clock device the mem-L heuristic must not fire.
	models, _ := sharedModels(t)
	pred := engine.NewPredictor(models, freq.P100(), engine.Options{})
	st, err := features.ExtractSource(`__kernel void k(__global float* o) { o[0] = 1.0f; }`, "")
	if err != nil {
		t.Fatal(err)
	}
	set := pred.ParetoSet(st)
	for _, p := range set {
		if p.MemLHeuristic {
			t.Error("heuristic point on single-memory-clock device")
		}
	}
}

func TestResidualRMSE(t *testing.T) {
	// Empty input is defined as zero.
	models, h := sharedModels(t)
	if s, e := core.ResidualRMSE(models, nil); s != 0 || e != 0 {
		t.Errorf("ResidualRMSE(nil) = (%g, %g), want zeros", s, e)
	}
	// On its own training distribution the residuals are positive (the
	// ε-tube admits errors) but bounded well below the prediction range.
	bs := synth.Generate()[:4]
	eng := engine.New(h.Clone(), engine.Options{Core: core.Options{SettingsPerKernel: 10}})
	samples, err := eng.BuildTrainingSet(context.Background(), adapt(bs))
	if err != nil {
		t.Fatal(err)
	}
	s, e := core.ResidualRMSE(models, samples)
	if s <= 0 || e <= 0 {
		t.Errorf("residuals = (%g, %g), want positive", s, e)
	}
	if s > 0.5 || e > 0.5 {
		t.Errorf("residuals = (%g, %g), implausibly large", s, e)
	}
}
