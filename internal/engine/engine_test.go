package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clkernel"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/pareto"
)

// testEngine returns an engine over a reduced training setup that fits in
// test time: a slice of the synthetic suite at few sampled settings.
func testEngine(t *testing.T, workers int) (*Engine, []core.TrainingKernel) {
	t.Helper()
	e := NewDefault(Options{
		Workers: workers,
		Core:    core.Options{SettingsPerKernel: 6},
	})
	kernels := TrainingKernels()[:24]
	return e, kernels
}

func TestBuildTrainingSetDeterministicAcrossWorkerCounts(t *testing.T) {
	e1, kernels := testEngine(t, 1)
	e8, _ := testEngine(t, 8)
	ctx := context.Background()

	s1, err := e1.BuildTrainingSet(ctx, kernels)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	s8, err := e8.BuildTrainingSet(ctx, kernels)
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Fatal("training set differs between worker counts")
	}
	settings := core.TrainingSettings(e1.Harness(), e1.Options().Core)
	if len(s1) != len(kernels)*len(settings) {
		t.Fatalf("got %d samples, want %d", len(s1), len(kernels)*len(settings))
	}
}

func TestTrainAndPredictViaEngine(t *testing.T) {
	e, kernels := testEngine(t, 0)
	if e.Trained() {
		t.Fatal("engine claims to be trained before Train")
	}
	if _, err := e.Predictor(); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("Predictor before training: err = %v, want ErrNotTrained", err)
	}
	models, err := e.Train(context.Background(), kernels)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if models.Speedup.NumSV() == 0 || models.Energy.NumSV() == 0 {
		t.Fatal("trained models have no support vectors")
	}
	if _, err := e.Predictor(); err != nil {
		t.Fatalf("Predictor: %v", err)
	}

	// The ladder sweep must agree with the rules applied to direct model
	// evaluations (TestParetoSetMatchesRowWiseOracle checks many kernels).
	st := benchFeatures()[0]
	ladder := e.Harness().Device().Sim().Ladder
	got := NewPredictor(models, ladder, Options{}).ParetoSet(st)
	if diff, err := compareFronts(got, referenceParetoSet(models, ladder, st)); err != nil || diff > 1e-12 {
		t.Fatalf("engine ParetoSet disagrees with the reference (max diff %g): %v", diff, err)
	}
	if last := got[len(got)-1]; !last.MemLHeuristic {
		t.Fatalf("last prediction %+v is not the mem-L heuristic", last)
	}
}

// TestParetoSetMatchesRowWiseOracle pins the separable ladder sweep to the
// row-wise oracle (svm.Model.Predict on every features.Combine row): the
// same configurations in the same order with the same mem-L flags, and
// values within 1e-12. It covers the 12 test benchmarks, the 106 training
// kernels and 256 seeded random valid static vectors, on a ladder with the
// mem-L point (Titan X) and one without (P100).
func TestParetoSetMatchesRowWiseOracle(t *testing.T) {
	e, kernels := testEngine(t, 0)
	models, err := e.Train(context.Background(), kernels)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	sts := sweepKernels(256)
	for _, dev := range []struct {
		name   string
		ladder *freq.Ladder
	}{
		{"titanx", e.Harness().Device().Sim().Ladder},
		{"p100", freq.P100()},
	} {
		p := NewPredictor(models, dev.ladder, Options{})
		worst := 0.0
		for i, st := range sts {
			diff, err := compareFronts(p.ParetoSet(st), referenceParetoSet(models, dev.ladder, st))
			if err != nil {
				t.Fatalf("%s kernel %d: %v", dev.name, i, err)
			}
			worst = math.Max(worst, diff)
		}
		if worst > 1e-12 {
			t.Fatalf("%s: sweep differs from the row-wise oracle by %g, want <= 1e-12", dev.name, worst)
		}
		t.Logf("%s: %d kernels, largest difference from the row-wise oracle %g", dev.name, len(sts), worst)
	}
}

// TestParetoSetOverMatchesRowWiseOracle checks the restricted sweep against
// the row-wise oracle on the paper's 40-setting evaluation sample plus a
// claimed core clock the Titan X never applies: candidates on the modeled
// ladder are read out of the sweep, the claimed one is predicted row-wise,
// and lowest-memory-clock candidates give way to the mem-L point.
func TestParetoSetOverMatchesRowWiseOracle(t *testing.T) {
	e, kernels := testEngine(t, 0)
	models, err := e.Train(context.Background(), kernels)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	ladder := e.Harness().Device().Sim().Ladder
	mem := ladder.MemClocks()[0]
	claimed := ladder.ClaimedCoreClocks(mem)
	offLadder := freq.Config{Mem: mem, Core: claimed[len(claimed)-1]}
	if ladder.Supported(offLadder) {
		t.Fatalf("%v is on the ladder; the test needs a claimed-only clock", offLadder)
	}
	cands := append(ladder.TrainingSample(40), offLadder)
	p := NewPredictor(models, ladder, Options{})
	for i, st := range sweepKernels(16) {
		var grid []core.Prediction
		for _, cfg := range core.ExcludeMemL(ladder, cands) {
			grid = append(grid, p.PredictConfig(st, cfg))
		}
		want := paretoFront(grid)
		memL, _ := core.MemLHeuristicConfig(ladder)
		heur := p.PredictConfig(st, memL)
		heur.MemLHeuristic = true
		want = append(want, heur)
		if diff, err := compareFronts(p.ParetoSetOver(st, cands), want); err != nil || diff > 1e-12 {
			t.Fatalf("kernel %d: ParetoSetOver disagrees with the row-wise oracle (max diff %g): %v", i, diff, err)
		}
	}
}

// compareFronts returns the largest objective difference between two
// Pareto sets, or an error when their configurations, order or mem-L flags
// differ.
func compareFronts(got, want []core.Prediction) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d points, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	worst := 0.0
	for i := range want {
		if got[i].Config != want[i].Config || got[i].MemLHeuristic != want[i].MemLHeuristic {
			return 0, fmt.Errorf("point %d is %+v, want %+v", i, got[i], want[i])
		}
		worst = math.Max(worst, math.Abs(got[i].Speedup-want[i].Speedup))
		worst = math.Max(worst, math.Abs(got[i].NormEnergy-want[i].NormEnergy))
	}
	return worst, nil
}

// sweepKernels returns the static features of the 12 test benchmarks, the
// 106 training kernels and n seeded random valid static vectors.
func sweepKernels(n int) []features.Static {
	sts := benchFeatures()
	for _, k := range TrainingKernels() {
		sts = append(sts, k.Features)
	}
	return append(sts, randomStatics(n)...)
}

// randomStatics returns n seeded random valid static feature vectors.
func randomStatics(n int) []features.Static {
	rng := rand.New(rand.NewSource(25))
	out := make([]features.Static, n)
	for i := range out {
		st := &out[i]
		sum := 0.0
		for j := range st {
			st[j] = rng.Float64()
			sum += st[j]
		}
		share := rng.Float64() // the counted share of all instructions
		for j := range st {
			st[j] *= share / sum
		}
		if !st.Valid() {
			panic(fmt.Sprintf("random static vector %v is not valid", *st))
		}
	}
	return out
}

// TestConcurrentPredictBatch exercises many goroutines sharing one
// Predictor; run under -race it is the engine's concurrent-safety proof.
func TestConcurrentPredictBatch(t *testing.T) {
	e, kernels := testEngine(t, 4)
	if _, err := e.Train(context.Background(), kernels); err != nil {
		t.Fatalf("Train: %v", err)
	}
	p, err := e.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	sts := benchFeatures()
	want, err := p.PredictBatch(context.Background(), sts)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([][][]core.Prediction, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = p.PredictBatch(context.Background(), sts)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if !reflect.DeepEqual(results[c], want) {
			t.Fatalf("caller %d diverged from reference batch", c)
		}
	}
}

func TestBuildTrainingSetCancellation(t *testing.T) {
	e, _ := testEngine(t, 2)
	kernels := TrainingKernels() // full suite: plenty of in-flight work
	ctx, cancel := context.WithCancel(context.Background())

	type result struct {
		samples []core.Sample
		err     error
	}
	done := make(chan result, 1)
	go func() {
		s, err := e.BuildTrainingSet(ctx, kernels)
		done <- result{s, err}
	}()
	cancel()

	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", r.err)
		}
		if r.samples != nil {
			t.Fatal("cancelled run returned samples")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled training run did not return")
	}
	if e.Trained() {
		t.Fatal("cancelled run installed models")
	}
}

// TestBuildTrainingSetWorkerError injects a kernel whose measurement fails
// (a corrupt profile yields an invalid baseline) and checks the pool
// surfaces the error instead of deadlocking the feeder — for every worker
// count, including fewer workers than remaining jobs.
func TestBuildTrainingSetWorkerError(t *testing.T) {
	bad := core.TrainingKernel{
		Name: "bad",
		Profile: gpu.KernelProfile{
			Name:      "bad",
			Counts:    clkernel.Counts{GlobalBytes: -1e6},
			WorkItems: 1 << 20,
		},
	}
	for _, workers := range []int{1, 2, 8} {
		e := NewDefault(Options{Workers: workers, Core: core.Options{SettingsPerKernel: 6}})
		kernels := append([]core.TrainingKernel{bad}, TrainingKernels()[:16]...)

		done := make(chan error, 1)
		go func() {
			_, err := e.BuildTrainingSet(context.Background(), kernels)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: no error for failing kernel", workers)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("workers=%d: pool deadlocked on worker error", workers)
		}
	}
}

func TestTrainCancellationBeforeFit(t *testing.T) {
	e, kernels := testEngine(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Train(ctx, kernels); !errors.Is(err, context.Canceled) {
		t.Fatalf("Train on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestPredictBatchCancellation(t *testing.T) {
	e, kernels := testEngine(t, 2)
	if _, err := e.Train(context.Background(), kernels); err != nil {
		t.Fatal(err)
	}
	p, err := e.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	// A context cancelled before the call returns its error and no result;
	// a batch that has started runs to the end, so a live context gets
	// every front.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sets, err := p.PredictBatch(ctx, benchFeatures()); !errors.Is(err, context.Canceled) || sets != nil {
		t.Fatalf("PredictBatch on cancelled ctx = %d sets, err %v; want none, context.Canceled", len(sets), err)
	}
	sets, err := p.PredictBatch(context.Background(), benchFeatures())
	if err != nil || len(sets) != len(bench.All()) {
		t.Fatalf("PredictBatch = %d sets, err %v; want %d", len(sets), err, len(bench.All()))
	}
}

// benchFeatures returns the static features of the 12 test benchmarks, in
// bench.All order.
func benchFeatures() []features.Static {
	bs := bench.All()
	out := make([]features.Static, len(bs))
	for i, b := range bs {
		out[i] = b.Features()
	}
	return out
}

// paretoFront is the Pareto front of a row-wise grid by the one front rule
// (pareto.FrontInPlace, itself checked against Algorithm 1 in package
// pareto), ascending by speedup.
func paretoFront(grid []core.Prediction) []core.Prediction {
	pts := make([]pareto.Point, len(grid))
	for i, g := range grid {
		pts[i] = pareto.Point{Speedup: g.Speedup, Energy: g.NormEnergy, ID: i}
	}
	pts = pts[:pareto.FrontInPlace(pts)]
	out := make([]core.Prediction, len(pts), len(pts)+1)
	for i, pt := range pts {
		out[i] = grid[pt.ID]
	}
	return out
}

// referenceParetoSet derives a kernel's Pareto set sequentially from direct
// svm evaluations on features.Combine rows, the rules in core and the front
// rule: the oracle the engine's sweeps are checked against.
func referenceParetoSet(m *core.Models, ladder *freq.Ladder, st features.Static) []core.Prediction {
	predict := func(cfg freq.Config) core.Prediction {
		v := features.Combine(st, cfg).Slice()
		return core.Prediction{Config: cfg, Speedup: m.Speedup.Predict(v), NormEnergy: m.Energy.Predict(v)}
	}
	var grid []core.Prediction
	for _, cfg := range core.ExcludeMemL(ladder, ladder.Configs()) {
		grid = append(grid, predict(cfg))
	}
	out := paretoFront(grid)
	if cfg, ok := core.MemLHeuristicConfig(ladder); ok {
		heur := predict(cfg)
		heur.MemLHeuristic = true
		out = append(out, heur)
	}
	return out
}
