package engine

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/pareto"
)

// sortPreds normalizes a prediction set into a canonical order so fronts
// derived by different algorithms compare equal regardless of how they
// break exact objective ties.
func sortPreds(ps []core.Prediction) []core.Prediction {
	out := append([]core.Prediction(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Speedup != b.Speedup {
			return a.Speedup < b.Speedup
		}
		if a.NormEnergy != b.NormEnergy {
			return a.NormEnergy < b.NormEnergy
		}
		if a.Config.Mem != b.Config.Mem {
			return a.Config.Mem < b.Config.Mem
		}
		return a.Config.Core < b.Config.Core
	})
	return out
}

// TestPredictFrontsIntoMatchesParetoSet pins both batch paths, and the
// grid-then-front path the registry publishes with (FrontOf over
// PredictAll, and ParetoSetOver the whole ladder), to the per-kernel sweep
// exactly, values and order, on a device with the mem-L point (Titan X) and
// one without (P100), over the 12 test benchmarks, the 106 training kernels
// and 64 random static vectors.
func TestPredictFrontsIntoMatchesParetoSet(t *testing.T) {
	e, kernels := testEngine(t, 4)
	models, err := e.Train(context.Background(), kernels)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	sts := sweepKernels(64)
	for _, dev := range []struct {
		name   string
		ladder *freq.Ladder
		memL   bool
	}{
		{"titanx", e.Harness().Device().Sim().Ladder, true},
		{"p100", freq.P100(), false},
	} {
		p := NewPredictor(models, dev.ladder, Options{Workers: 4})
		want := make([][]core.Prediction, len(sts))
		for i, st := range sts {
			want[i] = p.ParetoSet(st)
			if last := want[i][len(want[i])-1]; last.MemLHeuristic != dev.memL {
				t.Fatalf("%s kernel %d: last point %+v, mem-L heuristic want %v", dev.name, i, last, dev.memL)
			}
			if got := p.FrontOf(st, p.PredictAll(st)); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s kernel %d: FrontOf(PredictAll) = %v, ParetoSet %v", dev.name, i, got, want[i])
			}
			if got := p.ParetoSetOver(st, dev.ladder.Configs()); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s kernel %d: ParetoSetOver(ladder) = %v, ParetoSet %v", dev.name, i, got, want[i])
			}
		}
		checkFronts := func(path string, got, want [][]core.Prediction) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d fronts for %d kernels", dev.name, path, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s %s kernel %d disagrees with ParetoSet:\n got %v\nwant %v", dev.name, path, i, got[i], want[i])
				}
			}
		}

		scratch := GetBatchScratch()
		checkFronts("PredictFrontsInto", p.PredictFrontsInto(scratch, sts), want)
		// Reusing the scratch for a different batch must not corrupt results.
		checkFronts("PredictFrontsInto reuse", p.PredictFrontsInto(scratch, sts[:4]), want[:4])
		PutBatchScratch(scratch)

		got, err := p.PredictBatch(context.Background(), sts)
		if err != nil {
			t.Fatal(err)
		}
		checkFronts("PredictBatch", got, want)
		// PredictBatch's fronts belong to the caller: a second batch, which
		// reuses the pooled scratch, must neither see a mutation of them
		// nor overwrite them.
		got[0][0].Speedup = -1
		again, err := p.PredictBatch(context.Background(), sts)
		if err != nil {
			t.Fatal(err)
		}
		checkFronts("PredictBatch rerun", again, want)
		if got[0][0].Speedup != -1 {
			t.Fatalf("%s: a later PredictBatch overwrote an earlier result", dev.name)
		}
		checkFronts("PredictBatch after rerun", got[1:], want[1:])
	}
}

// TestFrontInPlaceMatchesParetoFront checks FrontOf, the front of a grid by
// pareto.FrontInPlace, against the paper's Algorithm 1 (pareto.Simple) on
// the rule's edge cases. The P100 ladder has no mem-L point, so FrontOf
// returns the front alone.
func TestFrontInPlaceMatchesParetoFront(t *testing.T) {
	e, kernels := testEngine(t, 4)
	models, err := e.Train(context.Background(), kernels)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	p := NewPredictor(models, freq.P100(), Options{})
	cases := [][]core.Prediction{
		{},
		{{Speedup: 1, NormEnergy: 1}},
		// Strictly improving chain: everything is on the front.
		{{Speedup: 1, NormEnergy: 0.5}, {Speedup: 2, NormEnergy: 0.8}, {Speedup: 3, NormEnergy: 1.2}},
		// A dominated middle point.
		{{Speedup: 1, NormEnergy: 0.5}, {Speedup: 0.9, NormEnergy: 0.9}, {Speedup: 2, NormEnergy: 1.0}},
		// Equal-speedup group: only the minimal-energy member survives.
		{{Speedup: 1, NormEnergy: 0.7}, {Speedup: 1, NormEnergy: 0.5}, {Speedup: 1, NormEnergy: 0.6}},
		// Exact duplicates in both objectives are all front members.
		{{Speedup: 2, NormEnergy: 0.5}, {Speedup: 2, NormEnergy: 0.5}, {Speedup: 1, NormEnergy: 0.9}},
		// Duplicates that are dominated stay out.
		{{Speedup: 1, NormEnergy: 0.9}, {Speedup: 1, NormEnergy: 0.9}, {Speedup: 2, NormEnergy: 0.5}},
	}
	for ci, preds := range cases {
		pts := make([]pareto.Point, len(preds))
		for i, pr := range preds {
			pts[i] = pareto.Point{Speedup: pr.Speedup, Energy: pr.NormEnergy, ID: i}
		}
		var want []core.Prediction
		for _, pt := range pareto.Simple(pts) {
			want = append(want, preds[pt.ID])
		}
		got := p.FrontOf(features.Static{}, preds)
		if !reflect.DeepEqual(sortPreds(got), sortPreds(want)) {
			t.Errorf("case %d: FrontOf = %v, Algorithm 1 %v", ci, got, want)
		}
	}
}

// TestPredictFrontsIntoAllocs pins the zero-allocation contract of the
// steady-state batch path: once the scratch has grown to the batch size, a
// batch performs no allocations at all, at one kernel and at the 32 kernels
// (5,696 sweep rows on the Titan X) of a select-novel /predict/batch frame.
func TestPredictFrontsIntoAllocs(t *testing.T) {
	e, kernels := testEngine(t, 4)
	if _, err := e.Train(context.Background(), kernels); err != nil {
		t.Fatalf("Train: %v", err)
	}
	p, err := e.Predictor()
	if err != nil {
		t.Fatalf("Predictor: %v", err)
	}
	for _, n := range []int{1, 32} {
		sts := randomStatics(n)
		scratch := GetBatchScratch()
		p.PredictFrontsInto(scratch, sts) // grow the scratch

		var sink [][]core.Prediction
		allocs := testing.AllocsPerRun(100, func() {
			sink = p.PredictFrontsInto(scratch, sts)
		})
		PutBatchScratch(scratch)
		if allocs != 0 {
			t.Fatalf("steady-state batch of %d kernels allocates %.1f times per run, want 0", n, allocs)
		}
		_ = sink
	}
}

// BenchmarkColumnarVsSweep is the ladder sweep's speed check, run by the CI
// bench job. It derives the fronts of the 106 training kernels twice: one
// PredictFrontsInto call over the separable sweep, and the row-wise oracle
// (svm.Model.Predict on each kernel's 178 features.Combine rows, then the
// front rules). It reports ns per kernel for each and fails unless the
// sweep is at least 4x cheaper per kernel than the oracle; the separable
// form replaces one exp per (support vector, configuration) pair with one
// per support vector, which measures about 12x on 2 vCPUs.
func BenchmarkColumnarVsSweep(b *testing.B) {
	e := NewDefault(Options{Core: core.Options{SettingsPerKernel: 12}})
	kernels := TrainingKernels()
	models, err := e.Train(context.Background(), kernels)
	if err != nil {
		b.Fatal(err)
	}
	p, err := e.Predictor()
	if err != nil {
		b.Fatal(err)
	}
	sts := make([]features.Static, len(kernels))
	for i, k := range kernels {
		sts[i] = k.Features
	}
	// nsPerKernel runs f, which derives every kernel's front once, for at
	// least a fixed wall-clock budget after one warm-up call.
	nsPerKernel := func(f func()) float64 {
		const budget = 250 * time.Millisecond
		f()
		var elapsed time.Duration
		calls := 0
		for elapsed < budget {
			start := time.Now()
			f()
			elapsed += time.Since(start)
			calls++
		}
		return float64(elapsed.Nanoseconds()) / float64(calls*len(sts))
	}
	scratch := GetBatchScratch()
	defer PutBatchScratch(scratch)
	ladder := p.Ladder()
	var sweep, rows float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep = nsPerKernel(func() { p.PredictFrontsInto(scratch, sts) })
		rows = nsPerKernel(func() {
			for _, st := range sts {
				referenceParetoSet(models, ladder, st)
			}
		})
	}
	b.ReportMetric(sweep, "sweep-ns/kernel")
	b.ReportMetric(rows, "rowwise-ns/kernel")
	b.ReportMetric(rows/sweep, "speedup")
	if rows < 4*sweep {
		b.Fatalf("ladder sweep (%.0f ns/kernel) is not 4x cheaper than the row-wise oracle (%.0f ns/kernel)", sweep, rows)
	}
}
