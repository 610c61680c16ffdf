package engine

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/freq"
)

// Predictor is the prediction phase of the paper (Fig. 3 steps 1–9 and
// Section 4.5) over a pair of trained models: it evaluates both SVRs over
// every configuration of the modeled memory clocks, derives the Pareto set
// with core.ParetoFront and appends the mem-L heuristic point. It is the one
// place that turns models and static features into a Pareto set; core holds
// the rules as pure functions. A single kernel's ladder sweep is split
// across the worker pool, and whole kernel lists go through the columnar
// batch path (PredictFrontsInto). It memoizes nothing; per-kernel Pareto
// sets are cached one layer up, in the policy governor. All methods are
// safe for concurrent use.
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
		inner:   &core.Predictor{Models: m, Ladder: ladder},
		workers: opts.Workers,
		cfgs:    core.ExcludeMemL(ladder, ladder.Configs()),
	}
	p.memLCfg, p.hasMemL = core.MemLHeuristicConfig(ladder)
	return p
}

// Core returns the models and ladder the predictor evaluates.
func (p *Predictor) Core() *core.Predictor { return p.inner }

// Ladder returns the frequency ladder predictions are made over.
func (p *Predictor) Ladder() *freq.Ladder { return p.inner.Ladder }

// PredictConfig predicts both objectives for one configuration.
func (p *Predictor) PredictConfig(st features.Static, cfg freq.Config) core.Prediction {
	v := features.Combine(st, cfg).Slice()
	return core.Prediction{
		Config:     cfg,
		Speedup:    p.inner.Models.Speedup.Predict(v),
		NormEnergy: p.inner.Models.Energy.Predict(v),
	}
}

// predictConfigs evaluates many configurations for one kernel, splitting
// the sweep across the worker pool when it is large enough to pay off. One
// kernel's sweep stays below the svm row-sharding threshold, so the
// columnar path would run it on a single core.
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

// PredictAll predicts both objectives at every configuration of the
// modeled memory clocks (all but mem-L), in ladder order, evaluating the
// ladder in parallel.
func (p *Predictor) PredictAll(st features.Static) []core.Prediction {
	return p.predictConfigs(st, p.cfgs)
}

// FrontOf derives a kernel's Pareto set from its predicted grid: the
// Pareto front of grid, ascending by speedup, followed by the mem-L
// heuristic configuration when the ladder has one. grid is not modified.
func (p *Predictor) FrontOf(st features.Static, grid []core.Prediction) []core.Prediction {
	out := core.ParetoFront(grid)
	if p.hasMemL {
		heur := p.PredictConfig(st, p.memLCfg)
		heur.MemLHeuristic = true
		out = append(out, heur)
	}
	return out
}

// ParetoSet predicts the Pareto-optimal frequency configurations for a
// kernel given only its static features (prediction-phase steps 1–9 of
// Fig. 3), sweeping the modeled ladder in parallel.
func (p *Predictor) ParetoSet(st features.Static) []core.Prediction {
	return p.FrontOf(st, p.PredictAll(st))
}

// ParetoSetOver is ParetoSet restricted to the given candidate
// configurations (e.g. the 40-setting evaluation sample the paper uses);
// lowest-memory-clock candidates are excluded from modeling and replaced by
// the mem-L heuristic.
func (p *Predictor) ParetoSetOver(st features.Static, cfgs []freq.Config) []core.Prediction {
	return p.FrontOf(st, p.predictConfigs(st, core.ExcludeMemL(p.inner.Ladder, cfgs)))
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

// PredictBatch predicts the Pareto set of every kernel in the batch through
// the columnar path (PredictFrontsInto) on a pooled scratch, and returns
// fronts the caller owns. Results are index-aligned with the input and
// equal to calling ParetoSet per kernel. A context that is already
// cancelled returns ctx.Err(); a batch that has started runs to the end.
func (p *Predictor) PredictBatch(ctx context.Context, sts []features.Static) ([][]core.Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := GetBatchScratch()
	defer PutBatchScratch(s)
	fronts := p.PredictFrontsInto(s, sts)
	total := 0
	for _, f := range fronts {
		total += len(f)
	}
	// One backing array for every front; the scratch's slices are reused
	// by the next batch, so nothing may alias them.
	flat := make([]core.Prediction, 0, total)
	out := make([][]core.Prediction, len(fronts))
	for i, f := range fronts {
		lo := len(flat)
		flat = append(flat, f...)
		out[i] = flat[lo:len(flat):len(flat)]
	}
	return out, nil
}
