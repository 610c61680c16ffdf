// End-to-end integration test of the full reproduction pipeline at reduced
// scale: generate micro-benchmarks, measure them on the simulated device,
// train both models, predict a Pareto set for an unseen kernel, and check
// the paper's qualitative claims hold throughout.
package repro_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/pareto"
)

func TestEndToEndPipeline(t *testing.T) {
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	eng := engine.New(h, engine.Options{Core: core.Options{SettingsPerKernel: 10}})

	// Training phase (Fig. 2).
	samples, err := eng.BuildTrainingSet(context.Background(), engine.TrainingKernels())
	if err != nil {
		t.Fatalf("training set: %v", err)
	}
	if len(samples) < 106*8 {
		t.Fatalf("only %d samples", len(samples))
	}
	models, err := eng.Fit(context.Background(), samples)
	if err != nil {
		t.Fatalf("train: %v", err)
	}

	// Prediction phase (Fig. 3) for an unseen application.
	conv, err := bench.ByName("Convolution")
	if err != nil {
		t.Fatal(err)
	}
	pred := engine.NewPredictor(models, h.Device().Sim().Ladder, engine.Options{})
	set := pred.ParetoSet(conv.Features())
	if len(set) < 3 {
		t.Fatalf("predicted Pareto set has %d points", len(set))
	}

	// Evaluate the predicted configurations against ground truth: the set
	// must dominate the naive low-power corner and include a configuration
	// at least as good as 95% of the measured optimum on each objective.
	base, err := h.Baseline(conv.Profile())
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := h.Sweep(conv.Profile())
	if err != nil {
		t.Fatal(err)
	}
	bestS, bestE := 0.0, math.Inf(1)
	for _, r := range sweep {
		bestS = math.Max(bestS, r.Speedup)
		bestE = math.Min(bestE, r.NormEnergy)
	}
	var predBestS, predBestE = 0.0, math.Inf(1)
	var pts []pareto.Point
	for _, p := range set {
		rel, err := h.MeasureRelative(conv.Profile(), p.Config, base)
		if err != nil {
			t.Fatal(err)
		}
		predBestS = math.Max(predBestS, rel.Speedup)
		predBestE = math.Min(predBestE, rel.NormEnergy)
		pts = append(pts, pareto.Point{Speedup: rel.Speedup, Energy: rel.NormEnergy})
	}
	if predBestS < 0.95*bestS {
		t.Errorf("predicted set max speedup %.3f < 95%% of optimum %.3f", predBestS, bestS)
	}
	if predBestE > bestE/0.93 {
		t.Errorf("predicted set min energy %.3f misses optimum %.3f by > 7%%", predBestE, bestE)
	}

	// Coverage difference against the measured front must be small.
	var all []pareto.Point
	for _, r := range sweep {
		all = append(all, pareto.Point{Speedup: r.Speedup, Energy: r.NormEnergy})
	}
	d := pareto.CoverageDifference(all[:pareto.FrontInPlace(all)], pts)
	if d > 0.15 {
		t.Errorf("coverage difference %.4f too large for end-to-end pipeline", d)
	}
}

func TestDefaultConfigurationNotAlwaysOptimal(t *testing.T) {
	// The paper's motivating observation (Fig. 1c): the default
	// configuration may be dominated. Verify it happens for at least one
	// test benchmark on the simulated device.
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	dominatedSomewhere := false
	for _, name := range []string{"k-NN", "MT", "BitCompression"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := h.Sweep(b.Profile())
		if err != nil {
			t.Fatal(err)
		}
		var defPt pareto.Point
		var pts []pareto.Point
		for _, r := range sweep {
			p := pareto.Point{Speedup: r.Speedup, Energy: r.NormEnergy}
			if r.Config == h.Device().Sim().Ladder.Default() {
				defPt = p
			}
			pts = append(pts, p)
		}
		for _, p := range pts[:pareto.FrontInPlace(pts)] {
			if pareto.Dominates(p, defPt) {
				dominatedSomewhere = true
			}
		}
	}
	if !dominatedSomewhere {
		t.Error("default configuration Pareto-optimal for every probed benchmark; " +
			"the paper's motivation (dominant non-default settings exist) is lost")
	}
}
