package engine_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
)

const saxpy = `__kernel void saxpy(__global const float* x, __global float* y, float a, int n) {
	int i = get_global_id(0);
	if (i < n) y[i] = a * x[i] + y[i];
}`

// ExampleEngine_Train trains on a small slice of the synthetic suite and
// predicts the Pareto set of a kernel that is never executed — the
// paper's two-phase pipeline through the concurrent engine.
func ExampleEngine_Train() {
	eng := engine.NewDefault(engine.Options{
		Workers: 2,
		Core:    core.Options{SettingsPerKernel: 4},
	})
	// A 12-kernel subset keeps the example fast; production uses the full
	// 106-micro-benchmark suite via TrainDefault.
	kernels := engine.TrainingKernels()[:12]
	if _, err := eng.Train(context.Background(), kernels); err != nil {
		fmt.Println("error:", err)
		return
	}
	pred, err := eng.Predictor()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	set, err := pred.PredictSource(saxpy, "saxpy")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("trained=%v pareto non-empty=%v\n", eng.Trained(), len(set) > 0)
	// Output:
	// trained=true pareto non-empty=true
}

// ExamplePredictor_PredictBatch predicts many kernels in one call; results
// are index-aligned with the input.
func ExamplePredictor_PredictBatch() {
	eng := engine.NewDefault(engine.Options{
		Workers: 2,
		Core:    core.Options{SettingsPerKernel: 4},
	})
	if _, err := eng.Train(context.Background(), engine.TrainingKernels()[:12]); err != nil {
		fmt.Println("error:", err)
		return
	}
	pred, err := eng.Predictor()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	kernels := engine.TrainingKernels()[:3]
	sts := make([]features.Static, len(kernels))
	for i, k := range kernels {
		sts[i] = k.Features
	}
	sets, err := pred.PredictBatch(context.Background(), sts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("kernels=%d all predicted=%v\n", len(sets), nonEmpty(sets))
	// Output:
	// kernels=3 all predicted=true
}

func nonEmpty(sets [][]core.Prediction) bool {
	for _, s := range sets {
		if len(s) == 0 {
			return false
		}
	}
	return true
}
