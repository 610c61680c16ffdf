// Package engine is the concurrent orchestration layer between the user
// entry points (cmd/gpufreq, cmd/gpufreqd, the examples) and the
// model/measurement internals (internal/core, internal/svm,
// internal/measure, internal/pareto). It is the one path for both phases
// of the paper's pipeline:
//
//   - Training: the per-benchmark sampling unit (core.SampleKernel) is
//     sharded across a worker pool, each worker measuring on an independent
//     harness clone, and the two ε-SVR fits — which share inputs but no
//     state — run concurrently. Construction is context-aware, so an
//     in-flight training run can be cancelled.
//   - Prediction: the Predictor is the paper's prediction phase, the one
//     place models and static features become a Pareto set, derived by
//     the one front rule, pareto.FrontInPlace. Its ladder sweep is
//     separable (svm.Sweep): the per-configuration half of every kernel
//     evaluation is tabled once per predictor, so a kernel costs one exp
//     per RBF support vector and runs on the calling goroutine; many
//     kernels go through the columnar batch path (PredictFrontsInto, under
//     PredictBatch). The engine caches no predictions: repeated kernels are
//     served from the policy governor's per-kernel front memo (the
//     publish-time front table plus its sweep LRU).
//
// Sharding is per training kernel on a fresh harness clone, which makes the
// assembled training set deterministic and independent of the worker count
// (each kernel always sees its own sensor-noise stream from the start).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/svm"
	"repro/internal/synth"
)

// ErrNotTrained is returned by Predictor accessors before any models have
// been trained or installed.
var ErrNotTrained = errors.New("engine: no trained models (run Train or SetModels first)")

// Options configures the engine. Zero values select sensible defaults.
type Options struct {
	// Workers sizes the worker pool for training-set construction.
	// <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Core carries the training options through to the model layer
	// (settings per kernel, SVR kernels, hyper-parameters).
	Core core.Options
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Engine couples a measurement harness with (lazily trained) models and a
// predictor. All methods are safe for concurrent use.
type Engine struct {
	harness *measure.Harness
	opts    Options

	mu     sync.RWMutex
	models *core.Models
	pred   *Predictor
}

// New builds an engine over an existing harness.
func New(h *measure.Harness, opts Options) *Engine {
	return &Engine{harness: h, opts: opts.withDefaults()}
}

// NewDefault builds an engine over a fresh simulated Titan X, the paper's
// primary evaluation device.
func NewDefault(opts Options) *Engine {
	return New(measure.NewHarness(nvml.NewDevice(gpu.TitanX())), opts)
}

// Harness exposes the measurement harness (for characterization sweeps).
func (e *Engine) Harness() *measure.Harness { return e.harness }

// Options returns the engine's resolved options.
func (e *Engine) Options() Options { return e.opts }

// TrainingKernels adapts the paper's 106 synthetic micro-benchmarks into
// training kernels.
func TrainingKernels() []core.TrainingKernel {
	bs := synth.Generate()
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

// BuildTrainingSet assembles the supervised training set by sharding the
// per-kernel sampling unit across the worker pool. Each kernel is measured
// on a fresh harness clone, so the result is byte-identical for any worker
// count. The context cancels the run between kernel measurements.
func (e *Engine) BuildTrainingSet(ctx context.Context, kernels []core.TrainingKernel) ([]core.Sample, error) {
	settings := core.TrainingSettings(e.harness, e.opts.Core)
	perKernel := make([][]core.Sample, len(kernels))

	workers := e.opts.Workers
	if workers > len(kernels) {
		workers = len(kernels)
	}
	if workers < 1 {
		workers = 1
	}

	// stop cancels the run on the first worker error, so the feeder never
	// blocks sending to a pool whose workers have all exited.
	stopCtx, stop := context.WithCancel(ctx)
	defer stop()

	jobs := make(chan int)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if stopCtx.Err() != nil {
					return
				}
				samples, err := core.SampleKernel(e.harness.Clone(), kernels[i], settings)
				if err != nil {
					errc <- err // buffered: one slot per worker
					stop()
					return
				}
				perKernel[i] = samples
			}
		}()
	}

feed:
	for i := range kernels {
		select {
		case jobs <- i:
		case <-stopCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	select {
	case err := <-errc:
		return nil, fmt.Errorf("engine: building training set: %w", err)
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: building training set: %w", err)
	}

	var out []core.Sample
	for _, ks := range perKernel {
		out = append(out, ks...)
	}
	return out, nil
}

// Fit trains the speedup and normalized-energy SVRs concurrently — the two
// fits share the design matrix but no solver state, so they are
// embarrassingly parallel. The context is honored at entry and its error
// reported after the fits complete (the solvers are not interruptible).
func (e *Engine) Fit(ctx context.Context, samples []core.Sample) (*core.Models, error) {
	if len(samples) == 0 {
		return nil, errors.New("engine: empty training set")
	}
	return e.FitMatrix(ctx, core.NewTrainingMatrix(samples))
}

// FitMatrix is Fit over a prebuilt training matrix.
func (e *Engine) FitMatrix(ctx context.Context, m *core.TrainingMatrix) (*core.Models, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := e.opts.Core.WithDefaults()
	if m.Len() == 0 {
		return nil, errors.New("engine: empty training set")
	}

	var (
		wg         sync.WaitGroup
		sm, em     *svm.Model
		sErr, eErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sm, sErr = svm.Train(m.Rows, m.Speedup, opt.SpeedupKernel, opt.Params)
	}()
	go func() {
		defer wg.Done()
		em, eErr = svm.Train(m.Rows, m.Energy, opt.EnergyKernel, opt.Params)
	}()
	wg.Wait()

	if sErr != nil {
		return nil, fmt.Errorf("engine: training speedup model: %w", sErr)
	}
	if eErr != nil {
		return nil, fmt.Errorf("engine: training energy model: %w", eErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &core.Models{Speedup: sm, Energy: em}, nil
}

// Train builds the training set and fits both models, installing the result
// as the engine's active models. It returns the models for inspection.
func (e *Engine) Train(ctx context.Context, kernels []core.TrainingKernel) (*core.Models, error) {
	samples, err := e.BuildTrainingSet(ctx, kernels)
	if err != nil {
		return nil, err
	}
	models, err := e.Fit(ctx, samples)
	if err != nil {
		return nil, err
	}
	e.SetModels(models)
	return models, nil
}

// TrainDefault trains on the paper's full synthetic micro-benchmark suite.
func (e *Engine) TrainDefault(ctx context.Context) (*core.Models, error) {
	return e.Train(ctx, TrainingKernels())
}

// SetModels installs externally obtained models (e.g. loaded from disk) as
// the active models, rebuilds the predictor and returns it. The returned
// predictor is over m even if another SetModels runs concurrently.
func (e *Engine) SetModels(m *core.Models) *Predictor {
	ladder := e.harness.Device().Sim().Ladder
	pred := NewPredictor(m, ladder, e.opts)
	e.mu.Lock()
	e.models = m
	e.pred = pred
	e.mu.Unlock()
	return pred
}

// Models returns the active models, or nil before training.
func (e *Engine) Models() *core.Models {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.models
}

// Trained reports whether models are installed.
func (e *Engine) Trained() bool { return e.Models() != nil }

// Predictor returns the predictor over the active models.
func (e *Engine) Predictor() (*Predictor, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.pred == nil {
		return nil, ErrNotTrained
	}
	return e.pred, nil
}
