package svm

import (
	"math"
	"testing"
)

func TestPolyKernelFitsQuadratic(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 20; i++ {
		x := float64(i) / 20
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x*x-x+0.5)
	}
	m, err := Train(xs, ys, Polynomial{Gamma: 1, Coef0: 1, Degree: 2}, Params{C: 1000, Epsilon: 0.02})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for i, x := range xs {
		if math.Abs(m.Predict(x)-ys[i]) > 0.05 {
			t.Errorf("Predict(%v) = %.4f, want %.4f", x, m.Predict(x), ys[i])
		}
	}
}

func TestTinyRowCacheStillConverges(t *testing.T) {
	// A 2-row cache forces constant eviction; results must not change.
	var xs [][]float64
	var ys []float64
	r := &det{s: 21}
	for i := 0; i < 80; i++ {
		a, b := r.next(), r.next()
		xs = append(xs, []float64{a, b})
		ys = append(ys, 1+a-2*b)
	}
	big, err := Train(xs, ys, Dot{}, Params{C: 100, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Train(xs, ys, Dot{}, Params{C: 100, Epsilon: 0.05, CacheRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if math.Abs(big.Predict(x)-small.Predict(x)) > 1e-9 {
			t.Fatalf("cache size changed the solution at %v: %v vs %v",
				x, big.Predict(x), small.Predict(x))
		}
	}
}

func TestMaxIterCapReported(t *testing.T) {
	var xs [][]float64
	var ys []float64
	r := &det{s: 9}
	for i := 0; i < 60; i++ {
		a := r.next()
		xs = append(xs, []float64{a})
		ys = append(ys, math.Sin(20*a)) // hard for a linear kernel
	}
	m, err := Train(xs, ys, Dot{}, Params{C: 1e6, Epsilon: 1e-6, MaxIter: 25})
	if err != nil {
		t.Fatal(err)
	}
	if m.Converged {
		t.Error("25 iterations should not converge on this problem")
	}
	if m.Iters != 25 {
		t.Errorf("Iters = %d, want 25", m.Iters)
	}
	// Even unconverged models must predict finite values.
	for _, x := range xs {
		if v := m.Predict(x); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite prediction %v", v)
		}
	}
}

func TestOffsetWithAllBoundSVs(t *testing.T) {
	// Two conflicting targets beyond the tube push both alphas to C; SMO's
	// offset must fall back to the feasible-interval midpoint, and the
	// interior-point fit lands on the same analytic centre.
	xs := [][]float64{{0}, {0}}
	ys := []float64{0, 2}
	for _, k := range []Kernel{Dot{}, Linear{}} {
		m, err := Train(xs, ys, k, Params{C: 1, Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Predict([]float64{0})
		if math.Abs(got-1) > 0.15 {
			t.Errorf("%v: conflicting targets: Predict = %.3f, want ~1 (midpoint)", k, got)
		}
	}
}

func TestNumSVAndBatchConsistency(t *testing.T) {
	xs := [][]float64{{0}, {0.5}, {1}, {1.5}}
	ys := []float64{0, 1, 2, 3}
	m, err := Train(xs, ys, Linear{}, Params{C: 10, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSV() != len(m.Coefs) || m.NumSV() != len(m.SupportVectors) {
		t.Errorf("NumSV %d inconsistent with coefs %d / SVs %d",
			m.NumSV(), len(m.Coefs), len(m.SupportVectors))
	}
	out := make([]float64, len(xs))
	m.PredictBatchInto(out, xs)
	for i := range xs {
		if out[i] != m.Predict(xs[i]) {
			t.Errorf("batch mismatch at %d", i)
		}
	}
}
