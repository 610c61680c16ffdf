package engine

import (
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/pareto"
	"repro/internal/svm"
)

// Predictor is the prediction phase of the paper (Fig. 3 steps 1–9 and
// Section 4.5) over a pair of trained models: it evaluates both SVRs over
// every configuration of the modeled memory clocks, derives the Pareto set
// and appends the mem-L heuristic point. It is the one place that turns
// models and static features into a Pareto set; core holds the rules as
// pure functions. Every path sweeps the ladder through the separable
// svm.Sweep pair built at construction (one exp per RBF support vector
// and kernel instead of one per support vector and configuration), on the
// calling goroutine; whole kernel lists go through the columnar batch path
// (PredictFrontsInto). It memoizes nothing; per-kernel Pareto sets are
// cached one layer up, in the policy governor. All methods are safe for
// concurrent use.
type Predictor struct {
	inner *core.Predictor

	// Ladder-derived constants, computed once at construction so the hot
	// paths never rebuild them: the modeled configuration list (all memory
	// clocks but mem-L × their core clocks) and the mem-L heuristic
	// configuration. The ladder is immutable for the predictor's lifetime.
	cfgs    []freq.Config
	memLCfg freq.Config
	hasMemL bool

	// ladder sweeps both models over cfgs followed by memLCfg (when the
	// ladder has one); memL sweeps memLCfg alone, for FrontOf, whose grid
	// comes from the caller. Both compute the mem-L point with the same
	// operations, so their values are bit-identical.
	ladder, memL sweepPair
}

// sweepPair is a prepared sweep of each model over the same configurations.
type sweepPair struct{ speedup, energy *svm.Sweep }

// newSweepPair prepares both models to predict any kernel's static features
// at every configuration of cfgs.
func newSweepPair(m *core.Models, cfgs []freq.Config) sweepPair {
	tails := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		c, mem := cfg.Normalized()
		tails[i] = []float64{c, mem} // features.Combine's frequency pair
	}
	return sweepPair{
		speedup: m.Speedup.NewSweep(features.StaticDim, tails),
		energy:  m.Energy.NewSweep(features.StaticDim, tails),
	}
}

// into predicts both objectives of st at every configuration of the pair.
func (s sweepPair) into(speedup, energy []float64, st *features.Static) {
	s.speedup.Into(speedup, st[:])
	s.energy.Into(energy, st[:])
}

// NewPredictor builds a predictor and its ladder sweeps. The options do not
// affect prediction: a sweep runs on the calling goroutine.
func NewPredictor(m *core.Models, ladder *freq.Ladder, opts Options) *Predictor {
	p := &Predictor{
		inner: &core.Predictor{Models: m, Ladder: ladder},
		cfgs:  core.ExcludeMemL(ladder, ladder.Configs()),
	}
	p.memLCfg, p.hasMemL = core.MemLHeuristicConfig(ladder)
	swept := p.cfgs
	if p.hasMemL {
		swept = append(slices.Clip(swept), p.memLCfg)
		p.memL = newSweepPair(m, []freq.Config{p.memLCfg})
	}
	p.ladder = newSweepPair(m, swept)
	return p
}

// stride is the length of one kernel's ladder sweep: the modeled
// configurations plus the mem-L point when the ladder has one.
func (p *Predictor) stride() int {
	if p.hasMemL {
		return len(p.cfgs) + 1
	}
	return len(p.cfgs)
}

// Core returns the models and ladder the predictor evaluates.
func (p *Predictor) Core() *core.Predictor { return p.inner }

// Ladder returns the frequency ladder predictions are made over.
func (p *Predictor) Ladder() *freq.Ladder { return p.inner.Ladder }

// PredictConfig predicts both objectives for one configuration, row-wise
// through svm.Model.Predict. It agrees with the ladder sweep to within
// floating-point rounding.
func (p *Predictor) PredictConfig(st features.Static, cfg freq.Config) core.Prediction {
	v := features.Combine(st, cfg).Slice()
	return core.Prediction{
		Config:     cfg,
		Speedup:    p.inner.Models.Speedup.Predict(v),
		NormEnergy: p.inner.Models.Energy.Predict(v),
	}
}

// PredictAll predicts both objectives at every configuration of the
// modeled memory clocks (all but mem-L), in ladder order.
func (p *Predictor) PredictAll(st features.Static) []core.Prediction {
	s := GetBatchScratch()
	defer PutBatchScratch(s)
	s.ensure(0, p.stride())
	p.ladder.into(s.speedup, s.energy, &st)
	out := make([]core.Prediction, len(p.cfgs))
	for i, cfg := range p.cfgs {
		out[i] = core.Prediction{Config: cfg, Speedup: s.speedup[i], NormEnergy: s.energy[i]}
	}
	return out
}

// FrontOf derives a kernel's Pareto set from its predicted grid: the
// Pareto front of grid (pareto.FrontInPlace), ascending by speedup,
// followed by the mem-L heuristic configuration when the ladder has one.
// grid is not modified.
func (p *Predictor) FrontOf(st features.Static, grid []core.Prediction) []core.Prediction {
	pts := make([]pareto.Point, len(grid))
	for i, g := range grid {
		pts[i] = pareto.Point{Speedup: g.Speedup, Energy: g.NormEnergy, ID: i}
	}
	pts = pts[:pareto.FrontInPlace(pts)]
	out := make([]core.Prediction, len(pts), len(pts)+1)
	for i, pt := range pts {
		out[i] = grid[pt.ID]
	}
	if p.hasMemL {
		var speedup, energy [1]float64
		p.memL.into(speedup[:], energy[:], &st)
		out = append(out, core.Prediction{Config: p.memLCfg, Speedup: speedup[0], NormEnergy: energy[0], MemLHeuristic: true})
	}
	return out
}

// ParetoSet predicts the Pareto-optimal frequency configurations for a
// kernel given only its static features (prediction-phase steps 1–9 of
// Fig. 3). It is PredictFrontsInto on a batch of one, so the two agree
// exactly.
func (p *Predictor) ParetoSet(st features.Static) []core.Prediction {
	s := GetBatchScratch()
	defer PutBatchScratch(s)
	return slices.Clone(p.PredictFrontsInto(s, []features.Static{st})[0])
}

// ParetoSetOver is ParetoSet restricted to the given candidate
// configurations (e.g. the 40-setting evaluation sample the paper uses);
// lowest-memory-clock candidates are excluded from modeling and replaced by
// the mem-L heuristic. Candidates on the modeled ladder are read out of the
// ladder sweep; any other candidate is predicted with PredictConfig.
func (p *Predictor) ParetoSetOver(st features.Static, cfgs []freq.Config) []core.Prediction {
	all := p.PredictAll(st)
	cands := core.ExcludeMemL(p.inner.Ladder, cfgs)
	grid := make([]core.Prediction, len(cands))
	for i, cfg := range cands {
		if j := slices.Index(p.cfgs, cfg); j >= 0 {
			grid[i] = all[j]
		} else {
			grid[i] = p.PredictConfig(st, cfg)
		}
	}
	return p.FrontOf(st, grid)
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
