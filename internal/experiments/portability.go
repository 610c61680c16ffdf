package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
)

// PortabilityResult evaluates the methodology on a second device. The paper
// claims portability ("different NVIDIA GPUs may have very different
// tunable configurations... the methodology introduced by this work is
// portable"); the Tesla P100 exercises the degenerate case of a single
// memory clock, where the problem reduces to core-clock scaling and no
// mem-L heuristic applies.
type PortabilityResult struct {
	Device string
	// Model records which model version produced the evaluation.
	Model Provenance
	// NumConfigs is the device's tunable configuration count.
	NumConfigs int
	// SpeedupRMSE and EnergyRMSE are percentage-point RMS errors over the
	// twelve test benchmarks at the sampled settings.
	SpeedupRMSE float64
	EnergyRMSE  float64
	// MeanParetoSize is the average predicted Pareto-set size.
	MeanParetoSize float64
}

// PortabilityP100 retrains the models from scratch on the simulated Tesla
// P100 and evaluates prediction error and Pareto sets on the twelve test
// benchmarks — the full pipeline on a device the Titan X models never saw.
func PortabilityP100(opts core.Options) (PortabilityResult, error) {
	h := measure.NewHarness(nvml.NewDevice(gpu.P100()))
	ladder := h.Device().Sim().Ladder

	eng := engine.New(h, engine.Options{Core: opts})
	if _, err := eng.Train(context.Background(), engine.TrainingKernels()); err != nil {
		return PortabilityResult{}, fmt.Errorf("experiments: P100 training: %w", err)
	}
	pred, err := eng.Predictor()
	if err != nil {
		return PortabilityResult{}, err
	}

	var sSum, eSum float64
	var n int
	var paretoSizes int
	settings := ladder.TrainingSample(40)
	for _, b := range bench.All() {
		st := b.Features()
		base, err := h.Baseline(b.Profile())
		if err != nil {
			return PortabilityResult{}, err
		}
		for _, cfg := range settings {
			rel, err := h.MeasureRelative(b.Profile(), cfg, base)
			if err != nil {
				return PortabilityResult{}, err
			}
			p := pred.PredictConfig(st, cfg)
			ds := 100 * (p.Speedup - rel.Speedup)
			de := 100 * (p.NormEnergy - rel.NormEnergy)
			sSum += ds * ds
			eSum += de * de
			n++
		}
		paretoSizes += len(pred.ParetoSet(st))
	}
	prov, err := ProvenanceFor(h.Device().Name(), eng.Models(), "")
	if err != nil {
		return PortabilityResult{}, err
	}
	return PortabilityResult{
		Device:         h.Device().Name(),
		Model:          prov,
		NumConfigs:     ladder.NumConfigs(),
		SpeedupRMSE:    math.Sqrt(sSum / float64(n)),
		EnergyRMSE:     math.Sqrt(eSum / float64(n)),
		MeanParetoSize: float64(paretoSizes) / float64(len(bench.All())),
	}, nil
}

// RenderPortability prints the portability evaluation.
func RenderPortability(w io.Writer, r PortabilityResult) {
	fmt.Fprintln(w, "Portability: full pipeline retrained on a second device")
	fmt.Fprintf(w, "  device:            %s\n", r.Device)
	fmt.Fprintf(w, "  model:             %s\n", r.Model)
	fmt.Fprintf(w, "  configurations:    %d (single memory clock)\n", r.NumConfigs)
	fmt.Fprintf(w, "  speedup RMSE:      %.2f%%\n", r.SpeedupRMSE)
	fmt.Fprintf(w, "  energy RMSE:       %.2f%%\n", r.EnergyRMSE)
	fmt.Fprintf(w, "  mean Pareto size:  %.1f configurations\n", r.MeanParetoSize)
}
