package engine

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/freq"
)

// Predictor is the engine's concurrent prediction facade over a pair of
// trained models: it mirrors core.Predictor's API, evaluates the frequency
// ladder in parallel, and batches whole kernel lists. It memoizes nothing;
// per-kernel Pareto sets are cached one layer up, in the policy governor.
// All methods are safe for concurrent use.
type Predictor struct {
	inner   *core.Predictor
	workers int

	// Ladder-derived constants, computed once at construction so the hot
	// paths never rebuild them: the modeled configuration list (all memory
	// clocks but mem-L × their core clocks) and the mem-L heuristic
	// configuration. The ladder is immutable for the predictor's lifetime.
	cfgs    []freq.Config
	memLCfg freq.Config
	hasMemL bool
}

// NewPredictor builds a concurrent predictor.
func NewPredictor(m *core.Models, ladder *freq.Ladder, opts Options) *Predictor {
	opts = opts.withDefaults()
	p := &Predictor{
		inner:   core.NewPredictor(m, ladder),
		workers: opts.Workers,
	}
	for _, mem := range p.inner.ModeledMems() {
		for _, c := range p.inner.Ladder.CoreClocks(mem) {
			p.cfgs = append(p.cfgs, freq.Config{Mem: mem, Core: c})
		}
	}
	p.memLCfg, p.hasMemL = core.MemLHeuristicConfig(p.inner.Ladder)
	return p
}

// Core returns the underlying sequential predictor.
func (p *Predictor) Core() *core.Predictor { return p.inner }

// Ladder returns the frequency ladder predictions are made over.
func (p *Predictor) Ladder() *freq.Ladder { return p.inner.Ladder }

// PredictConfig predicts both objectives for one configuration.
func (p *Predictor) PredictConfig(st features.Static, cfg freq.Config) core.Prediction {
	return p.inner.PredictConfig(st, cfg)
}

// predictConfigs evaluates many configurations for one kernel, splitting
// the sweep across the worker pool when it is large enough to pay off.
func (p *Predictor) predictConfigs(st features.Static, cfgs []freq.Config) []core.Prediction {
	out := make([]core.Prediction, len(cfgs))
	const parallelMin = 32
	if p.workers <= 1 || len(cfgs) < parallelMin {
		for i, cfg := range cfgs {
			out[i] = p.PredictConfig(st, cfg)
		}
		return out
	}
	workers := p.workers
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	chunk := (len(cfgs) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(cfgs); lo += chunk {
		hi := lo + chunk
		if hi > len(cfgs) {
			hi = len(cfgs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = p.PredictConfig(st, cfgs[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// modeledConfigs returns the cached list of every supported configuration
// of the modeled memory clocks (all but mem-L). Callers must not mutate it.
func (p *Predictor) modeledConfigs() []freq.Config { return p.cfgs }

// PredictAll predicts both objectives at every supported configuration of
// the given memory clocks (nil = the modeled clocks: all but mem-L),
// evaluating the ladder in parallel.
func (p *Predictor) PredictAll(st features.Static, mems []freq.MHz) []core.Prediction {
	var cfgs []freq.Config
	if mems == nil {
		cfgs = p.modeledConfigs()
	} else {
		for _, m := range mems {
			for _, c := range p.inner.Ladder.CoreClocks(m) {
				cfgs = append(cfgs, freq.Config{Mem: m, Core: c})
			}
		}
	}
	return p.predictConfigs(st, cfgs)
}

// memLHeuristic is core.Predictor.MemLHeuristic over the precomputed
// heuristic configuration.
func (p *Predictor) memLHeuristic(st features.Static) (core.Prediction, bool) {
	if !p.hasMemL {
		return core.Prediction{}, false
	}
	pr := p.PredictConfig(st, p.memLCfg)
	pr.MemLHeuristic = true
	return pr, true
}

// paretoOf derives the Pareto front and appends the mem-L heuristic
// configuration, matching core.Predictor's output contract.
func (p *Predictor) paretoOf(st features.Static, preds []core.Prediction) []core.Prediction {
	out := core.ParetoFront(preds)
	if heur, ok := p.memLHeuristic(st); ok {
		out = append(out, heur)
	}
	return out
}

// ParetoSet predicts the Pareto-optimal frequency configurations for a
// kernel given only its static features (prediction-phase steps 1–9 of
// Fig. 3), sweeping the modeled ladder in parallel.
func (p *Predictor) ParetoSet(st features.Static) []core.Prediction {
	return p.paretoOf(st, p.predictConfigs(st, p.modeledConfigs()))
}

// ParetoSetOver is ParetoSet restricted to the given candidate
// configurations; lowest-memory-clock candidates are excluded from modeling
// and replaced by the mem-L heuristic, as in core.Predictor.ParetoSetOver.
func (p *Predictor) ParetoSetOver(st features.Static, cfgs []freq.Config) []core.Prediction {
	modeled := core.ExcludeMemL(p.inner.Ladder, cfgs)
	return p.paretoOf(st, p.predictConfigs(st, modeled))
}

// PredictSource is the end-to-end prediction entry point: parse OpenCL
// source, extract static features, and predict the Pareto set.
func (p *Predictor) PredictSource(src, kernelName string) ([]core.Prediction, error) {
	st, err := features.ExtractSource(src, kernelName)
	if err != nil {
		return nil, err
	}
	return p.ParetoSet(st), nil
}

// PredictBatch predicts the Pareto set of every kernel in the batch,
// fanning kernels out across the worker pool. Results are index-aligned
// with the input. The context cancels unstarted work; the partial result is
// discarded and ctx.Err() returned.
func (p *Predictor) PredictBatch(ctx context.Context, sts []features.Static) ([][]core.Prediction, error) {
	out := make([][]core.Prediction, len(sts))
	workers := p.workers
	if workers > len(sts) {
		workers = len(sts)
	}
	if workers < 1 {
		workers = 1
	}
	cfgs := p.modeledConfigs()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				// Per-kernel sweeps stay sequential here: the batch fan-out
				// already saturates the pool, and nesting predictConfigs
				// would oversubscribe it.
				preds := make([]core.Prediction, len(cfgs))
				for j, cfg := range cfgs {
					preds[j] = p.PredictConfig(sts[i], cfg)
				}
				out[i] = p.paretoOf(sts[i], preds)
			}
		}()
	}
	for i := range sts {
		select {
		case jobs <- i:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return nil, ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
