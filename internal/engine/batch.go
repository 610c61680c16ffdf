package engine

import (
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/features"
)

// BatchScratch is the reusable working memory of the prediction paths: one
// kernel's sweep output per model, and the per-kernel prediction segments
// fronts are derived in. A scratch grows to the largest batch it has served
// and is then allocation-free for every batch that fits; the serving layer
// recycles scratches through GetBatchScratch/PutBatchScratch so the
// steady-state batch path allocates nothing (pinned by the engine's
// AllocsPerRun test). A BatchScratch must not be used concurrently.
type BatchScratch struct {
	speedup []float64 // one kernel's speedup sweep
	energy  []float64 // one kernel's energy sweep
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
	}
	s.speedup = s.speedup[:stride]
	s.energy = s.energy[:stride]
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
// heuristic point) and an in-place front derivation in its segment of the
// scratch. The result is index-aligned with sts and equal, values and
// order, to calling ParetoSet per kernel.
//
// Every returned slice aliases the scratch: results are valid only until
// the scratch is reused or returned to the pool. Once the scratch has
// grown to the batch, a call allocates nothing.
func (p *Predictor) PredictFrontsInto(s *BatchScratch, sts []features.Static) [][]core.Prediction {
	nCfg := len(p.cfgs)
	stride := p.stride()
	s.ensure(len(sts), stride)
	for i := range sts {
		p.ladder.into(s.speedup, s.energy, &sts[i])
		seg := s.preds[i*stride : (i+1)*stride]
		for j, cfg := range p.cfgs {
			seg[j] = core.Prediction{Config: cfg, Speedup: s.speedup[j], NormEnergy: s.energy[j]}
		}
		m := frontInPlace(seg[:nCfg])
		if p.hasMemL {
			// The heuristic point rides after the modeled grid; move it to
			// just past the compacted front, matching FrontOf's contract.
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

// frontInPlace compacts preds to its Pareto set (speedup maximized, energy
// minimized) and returns the front length. It reproduces pareto.Fast's
// semantics without allocating: sort descending by speedup (ascending
// energy tie-break), keep each equal-speedup group's minimal-energy members
// when they improve the running energy minimum (exact ties in both
// objectives are all front members, per the paper's non-strict dominance),
// then reverse into the ascending-speedup output order.
func frontInPlace(preds []core.Prediction) int {
	slices.SortFunc(preds, func(a, b core.Prediction) int {
		switch {
		case a.Speedup > b.Speedup:
			return -1
		case a.Speedup < b.Speedup:
			return 1
		case a.NormEnergy < b.NormEnergy:
			return -1
		case a.NormEnergy > b.NormEnergy:
			return 1
		}
		return 0
	})
	bestE := math.Inf(1)
	m := 0
	i := 0
	for i < len(preds) {
		j := i
		for j < len(preds) && preds[j].Speedup == preds[i].Speedup {
			j++
		}
		if preds[i].NormEnergy < bestE {
			bestE = preds[i].NormEnergy
			for k := i; k < j && preds[k].NormEnergy == bestE; k++ {
				preds[m] = preds[k]
				m++
			}
		}
		i = j
	}
	for a, b := 0, m-1; a < b; a, b = a+1, b-1 {
		preds[a], preds[b] = preds[b], preds[a]
	}
	return m
}
