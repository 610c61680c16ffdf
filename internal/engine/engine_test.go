package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clkernel"
	"repro/internal/core"
	"repro/internal/gpu"
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
	p, err := e.Predictor()
	if err != nil {
		t.Fatalf("Predictor: %v", err)
	}

	// The cached facade must agree with the uncached core predictor.
	st := bench.AllFeatures()[0]
	want := core.NewPredictor(models, e.Harness().Device().Sim().Ladder).ParetoSet(st)
	got := p.ParetoSet(st)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine ParetoSet disagrees with core:\n got %v\nwant %v", got, want)
	}
	if last := got[len(got)-1]; !last.MemLHeuristic {
		t.Fatalf("last prediction %+v is not the mem-L heuristic", last)
	}
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
	sts := bench.AllFeatures()
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.PredictBatch(ctx, bench.AllFeatures()); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictBatch on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestPredictSourceMatchesCore(t *testing.T) {
	e, kernels := testEngine(t, 4)
	models, err := e.Train(context.Background(), kernels)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	const src = `__kernel void axpy(__global const float* x, __global float* y, float a, int n) {
		int i = get_global_id(0);
		if (i < n) y[i] = a * x[i] + y[i];
	}`
	got, err := p.PredictSource(src, "axpy")
	if err != nil {
		t.Fatalf("PredictSource: %v", err)
	}
	cp := core.NewPredictor(models, p.Ladder())
	want, err := cp.PredictSource(src, "axpy")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine PredictSource disagrees with core path")
	}
}
