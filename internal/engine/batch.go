package engine

import (
	"sync"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/pareto"
)

// BatchScratch is the reusable working memory of the prediction paths: one
// kernel's sweep output per model, that sweep as objective-space points the
// front is derived in, and the per-kernel segments the fronts are written
// to. A scratch grows to the largest batch it has served
// and is then allocation-free for every batch that fits; the serving layer
// recycles scratches through GetBatchScratch/PutBatchScratch so the
// steady-state batch path allocates nothing (pinned by the engine's
// AllocsPerRun test). A BatchScratch must not be used concurrently.
type BatchScratch struct {
	speedup []float64      // one kernel's speedup sweep
	energy  []float64      // one kernel's energy sweep
	points  []pareto.Point // one kernel's modeled sweep, ID = config index
	preds   []core.Prediction
	fronts  [][]core.Prediction
}

// batchPool recycles scratches across requests. Pool entries the GC drops
// under memory pressure are simply rebuilt on the next Get.
var batchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// GetBatchScratch returns a scratch from the shared pool (allocating a
// fresh empty one only when the pool is dry). Return it with
// PutBatchScratch when the results derived from it are no longer
// referenced.
func GetBatchScratch() *BatchScratch { return batchPool.Get().(*BatchScratch) }

// PutBatchScratch returns a scratch to the shared pool. The slices handed
// out by PredictFrontsInto alias the scratch's memory and must not be read
// after it is returned.
func PutBatchScratch(s *BatchScratch) { batchPool.Put(s) }

// ensure sizes the scratch for nKernels kernels of stride predictions each,
// reusing existing capacity.
func (s *BatchScratch) ensure(nKernels, stride int) {
	if cap(s.speedup) < stride {
		s.speedup = make([]float64, stride)
		s.energy = make([]float64, stride)
		s.points = make([]pareto.Point, stride)
	}
	s.speedup = s.speedup[:stride]
	s.energy = s.energy[:stride]
	s.points = s.points[:stride]
	n := nKernels * stride
	if cap(s.preds) < n {
		s.preds = make([]core.Prediction, n)
	}
	s.preds = s.preds[:n]
	if cap(s.fronts) < nKernels {
		s.fronts = make([][]core.Prediction, nKernels)
	}
	s.fronts = s.fronts[:nKernels]
}

// PredictFrontsInto predicts the Pareto set of every kernel in the batch:
// each kernel's ladder sweep (the modeled configurations plus the mem-L
// heuristic point), its front by pareto.FrontInPlace over the scratch's
// points, and only the front members written out as predictions in the
// kernel's segment of the scratch. The result is index-aligned with sts and
// equal, values and order, to calling ParetoSet per kernel.
//
// Every returned slice aliases the scratch: results are valid only until
// the scratch is reused or returned to the pool. Once the scratch has
// grown to the batch, a call allocates nothing.
func (p *Predictor) PredictFrontsInto(s *BatchScratch, sts []features.Static) [][]core.Prediction {
	nCfg := len(p.cfgs)
	stride := p.stride()
	s.ensure(len(sts), stride)
	pts := s.points[:nCfg]
	for i := range sts {
		p.ladder.into(s.speedup, s.energy, &sts[i])
		for j := range pts {
			pts[j] = pareto.Point{Speedup: s.speedup[j], Energy: s.energy[j], ID: j}
		}
		m := pareto.FrontInPlace(pts)
		seg := s.preds[i*stride : (i+1)*stride]
		for k, pt := range pts[:m] {
			seg[k] = core.Prediction{Config: p.cfgs[pt.ID], Speedup: pt.Speedup, NormEnergy: pt.Energy}
		}
		if p.hasMemL {
			// The heuristic point rides after the modeled grid in the
			// sweep; it goes just past the front, matching FrontOf.
			seg[m] = core.Prediction{
				Config:        p.memLCfg,
				Speedup:       s.speedup[nCfg],
				NormEnergy:    s.energy[nCfg],
				MemLHeuristic: true,
			}
			m++
		}
		s.fronts[i] = seg[:m:stride]
	}
	return s.fronts
}
