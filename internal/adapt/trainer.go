package adapt

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
)

// Trainer produces a candidate model set from the base training corpus plus
// the folded-in observations. The production implementation is
// EngineTrainer; tests inject degenerate trainers to pin the holdout
// guardrail (a candidate that is worse on held-out observations must never
// be activated, no matter what the trainer returned).
type Trainer interface {
	// Fit trains candidate models on the base corpus extended with extra
	// samples and reports the training metadata for the snapshot manifest.
	// prior is ignored: the controller passes nil, and the parameter stays
	// only while the offline benchmark trace (benchmark/trace) still
	// passes the serving models; it goes when that trace is retired.
	Fit(ctx context.Context, extra []core.Sample, prior *core.Models) (*core.Models, registry.Training, error)
}

// EngineTrainer is the production Trainer: it rebuilds the synthetic
// training set through the engine's worker pool (once — the set is
// deterministic, so it is cached across retrains), lays it out as a
// solver-ready matrix (also once — per retrain only the folded-in
// observation rows pay for layout), fits both SVRs concurrently, and
// records the training residuals the drift detector will use as the next
// baseline.
type EngineTrainer struct {
	eng *engine.Engine
	// Kernels overrides the training kernel list (nil = the paper's full
	// 106-micro-benchmark suite); tests use small subsets.
	Kernels []core.TrainingKernel

	baseOnce    sync.Once
	base        *core.TrainingMatrix
	baseKernels int
	baseErr     error
}

// NewEngineTrainer builds the production trainer over an engine.
func NewEngineTrainer(eng *engine.Engine, kernels []core.TrainingKernel) *EngineTrainer {
	return &EngineTrainer{eng: eng, Kernels: kernels}
}

// baseMatrix builds (once) the synthetic training set and its solver
// layout, reused across retrains.
func (t *EngineTrainer) baseMatrix(ctx context.Context) (*core.TrainingMatrix, error) {
	t.baseOnce.Do(func() {
		kernels := t.Kernels
		if kernels == nil {
			kernels = engine.TrainingKernels()
		}
		t.baseKernels = len(kernels)
		var samples []core.Sample
		if samples, t.baseErr = t.eng.BuildTrainingSet(ctx, kernels); t.baseErr == nil {
			t.base = core.NewTrainingMatrix(samples)
		}
	})
	return t.base, t.baseErr
}

// Fit implements Trainer: base synthetic samples plus the observations,
// fitted through the engine's concurrent SVR path. prior is ignored.
func (t *EngineTrainer) Fit(ctx context.Context, extra []core.Sample, _ *core.Models) (*core.Models, registry.Training, error) {
	base, err := t.baseMatrix(ctx)
	if err != nil {
		return nil, registry.Training{}, err
	}
	m := base.WithExtra(extra)
	models, err := t.eng.FitMatrix(ctx, m)
	if err != nil {
		return nil, registry.Training{}, err
	}
	// Observations counts the extra samples as given; the adaptation
	// controller overwrites it with the distinct observation count (its
	// extra samples are weight-replicated).
	tr := registry.Training{
		SettingsPerKernel: t.eng.Options().Core.WithDefaults().SettingsPerKernel,
		Kernels:           t.baseKernels,
		Samples:           m.Len(),
		Observations:      len(extra),
	}
	tr.SpeedupRMSE, tr.EnergyRMSE = core.ResidualRMSEOn(models, m)
	return models, tr, nil
}
