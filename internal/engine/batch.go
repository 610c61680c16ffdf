package engine

import (
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/features"
)

// BatchScratch is the reusable working memory of the columnar batch
// prediction path: the flat feature matrix, the per-model output columns,
// and the per-kernel prediction segments fronts are derived in. A scratch
// grows to the largest batch it has served and is then allocation-free for
// every batch that fits; the serving layer recycles scratches through
// GetBatchScratch/PutBatchScratch so the steady-state batch path allocates
// nothing (pinned by the engine's AllocsPerRun test). A BatchScratch must
// not be used concurrently.
type BatchScratch struct {
	rows    []float64   // flat row-major feature matrix, one row per (kernel, config)
	xs      [][]float64 // row views into rows, passed to svm.PredictBatchInto
	speedup []float64   // speedup-model output column
	energy  []float64   // energy-model output column
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

// ensure sizes the scratch for nKernels kernels of stride rows each,
// reusing existing capacity. The row views are rebuilt every call (cheap:
// slice-header writes into already-allocated backing).
func (s *BatchScratch) ensure(nKernels, stride int) {
	n := nKernels * stride
	dim := features.Dim
	if cap(s.rows) < n*dim {
		s.rows = make([]float64, n*dim)
	}
	s.rows = s.rows[:n*dim]
	if cap(s.xs) < n {
		s.xs = make([][]float64, n)
	}
	s.xs = s.xs[:n]
	for i := range s.xs {
		s.xs[i] = s.rows[i*dim : (i+1)*dim : (i+1)*dim]
	}
	if cap(s.speedup) < n {
		s.speedup = make([]float64, n)
		s.energy = make([]float64, n)
	}
	s.speedup = s.speedup[:n]
	s.energy = s.energy[:n]
	if cap(s.preds) < n {
		s.preds = make([]core.Prediction, n)
	}
	s.preds = s.preds[:n]
	if cap(s.fronts) < nKernels {
		s.fronts = make([][]core.Prediction, nKernels)
	}
	s.fronts = s.fronts[:nKernels]
}

// PredictFrontsInto predicts the Pareto set of every kernel in the batch
// through the columnar fast path: one flat feature matrix over the modeled
// ladder (plus the mem-L heuristic row per kernel), one PredictBatchInto
// call per model across the whole batch, and in-place per-kernel front
// derivation. The result is index-aligned with sts and semantically
// identical to calling ParetoSet per kernel (pinned by the engine tests).
//
// A batch recomputes its rows unconditionally, and every returned slice
// aliases the scratch: results are valid only until the scratch is reused or
// returned to the pool. Batches whose row count stays under the svm
// parallel threshold (256) allocate nothing once the scratch has grown;
// larger batches shard the model evaluation across GOMAXPROCS goroutines,
// whose spawns are the only allocations.
func (p *Predictor) PredictFrontsInto(s *BatchScratch, sts []features.Static) [][]core.Prediction {
	nCfg := len(p.cfgs)
	stride := nCfg
	if p.hasMemL {
		stride++
	}
	s.ensure(len(sts), stride)

	// Stage 1: materialize the feature matrix, kernels × stride rows.
	dim := features.Dim
	off := 0
	for i := range sts {
		for _, cfg := range p.cfgs {
			v := features.Combine(sts[i], cfg)
			copy(s.rows[off:off+dim], v[:])
			off += dim
		}
		if p.hasMemL {
			v := features.Combine(sts[i], p.memLCfg)
			copy(s.rows[off:off+dim], v[:])
			off += dim
		}
	}

	// Stage 2: one columnar sweep per model over the whole batch.
	p.inner.Models.Speedup.PredictBatchInto(s.speedup, s.xs)
	p.inner.Models.Energy.PredictBatchInto(s.energy, s.xs)

	// Stage 3: assemble predictions and derive each kernel's front in place.
	for i := range sts {
		base := i * stride
		seg := s.preds[base : base+stride]
		for j, cfg := range p.cfgs {
			seg[j] = core.Prediction{Config: cfg, Speedup: s.speedup[base+j], NormEnergy: s.energy[base+j]}
		}
		m := frontInPlace(seg[:nCfg])
		if p.hasMemL {
			// The heuristic row rides after the modeled grid; move it to
			// just past the compacted front, matching paretoOf's contract.
			seg[m] = core.Prediction{
				Config:        p.memLCfg,
				Speedup:       s.speedup[base+nCfg],
				NormEnergy:    s.energy[base+nCfg],
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
