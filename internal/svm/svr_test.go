package svm

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// paperParams are the hyper-parameters the paper uses for both models.
var paperParams = Params{C: 1000, Epsilon: 0.1}

// det is a tiny deterministic pseudo-random stream for test data.
type det struct{ s uint64 }

func (d *det) next() float64 {
	d.s = d.s*6364136223846793005 + 1442695040888963407
	return float64(d.s>>11) / float64(1<<53)
}

func TestLinearFit1D(t *testing.T) {
	// y = 2x + 1 must be recovered within the epsilon tube.
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 20; i++ {
		x := float64(i) / 10
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x+1)
	}
	m, err := Train(xs, ys, Linear{}, paperParams)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if !m.Converged {
		t.Error("training did not converge")
	}
	for i, x := range xs {
		got := m.Predict(x)
		if math.Abs(got-ys[i]) > paperParams.Epsilon+0.02 {
			t.Errorf("Predict(%v) = %.4f, want %.4f ± ε", x, got, ys[i])
		}
	}
	// Extrapolation must stay linear.
	if got := m.Predict([]float64{3}); math.Abs(got-7) > 0.3 {
		t.Errorf("Predict(3) = %.4f, want ~7", got)
	}
}

func TestLinearFitMultiDim(t *testing.T) {
	// y = 1 + 2a - 3b + 0.5c over a grid.
	var xs [][]float64
	var ys []float64
	r := &det{s: 7}
	for i := 0; i < 120; i++ {
		a, b, c := r.next(), r.next(), r.next()
		xs = append(xs, []float64{a, b, c})
		ys = append(ys, 1+2*a-3*b+0.5*c)
	}
	m, err := Train(xs, ys, Linear{}, paperParams)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	rmse := 0.0
	for i, x := range xs {
		d := m.Predict(x) - ys[i]
		rmse += d * d
	}
	rmse = math.Sqrt(rmse / float64(len(xs)))
	if rmse > 0.08 {
		t.Errorf("RMSE = %.4f, want < 0.08 (ε = 0.1)", rmse)
	}
}

func TestRBFFitsNonlinear(t *testing.T) {
	// A parabola with a minimum — the shape of normalized energy over core
	// frequency — cannot be fit by a linear model but must be by RBF.
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 40; i++ {
		x := float64(i) / 40
		xs = append(xs, []float64{x})
		ys = append(ys, 1.5*(x-0.7)*(x-0.7)+0.8)
	}
	rbf, err := Train(xs, ys, RBF{Gamma: 10}, paperParams)
	if err != nil {
		t.Fatalf("Train RBF: %v", err)
	}
	lin, err := Train(xs, ys, Linear{}, paperParams)
	if err != nil {
		t.Fatalf("Train linear: %v", err)
	}
	rmseOf := func(m *Model) float64 {
		s := 0.0
		for i, x := range xs {
			d := m.Predict(x) - ys[i]
			s += d * d
		}
		return math.Sqrt(s / float64(len(xs)))
	}
	if r := rmseOf(rbf); r > 0.12 {
		t.Errorf("RBF RMSE = %.4f, want < 0.12", r)
	}
	// The linear model cannot represent the bend; RBF must beat it.
	if rmseOf(rbf) >= rmseOf(lin) {
		t.Errorf("RBF RMSE %.4f not better than linear %.4f on parabola",
			rmseOf(rbf), rmseOf(lin))
	}
}

func TestEpsilonTubeSparsity(t *testing.T) {
	// Points inside the ε-tube of the solution need not become support
	// vectors: the model must be sparser than the training set on clean
	// linear data with a wide tube. Sparsity is a property of SMO's dual,
	// so this trains Dot; a Linear model stores one weight vector.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		xs = append(xs, []float64{x})
		ys = append(ys, x)
	}
	m, err := Train(xs, ys, Dot{}, Params{C: 10, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSV() >= len(xs)/2 {
		t.Errorf("NumSV = %d of %d, want sparse solution", m.NumSV(), len(xs))
	}
}

func TestTrainValidation(t *testing.T) {
	ok := [][]float64{{1}, {2}}
	okY := []float64{1, 2}
	cases := []struct {
		name string
		xs   [][]float64
		ys   []float64
		p    Params
	}{
		{"empty", nil, nil, paperParams},
		{"mismatched", ok, []float64{1}, paperParams},
		{"ragged", [][]float64{{1}, {2, 3}}, okY, paperParams},
		{"nan target", ok, []float64{1, math.NaN()}, paperParams},
		{"bad C", ok, okY, Params{C: 0, Epsilon: 0.1}},
		{"bad epsilon", ok, okY, Params{C: 1, Epsilon: -1}},
	}
	for _, c := range cases {
		if _, err := Train(c.xs, c.ys, Linear{}, c.p); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestConstantTarget(t *testing.T) {
	xs := [][]float64{{0}, {0.5}, {1}}
	ys := []float64{3, 3, 3}
	m, err := Train(xs, ys, Linear{}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.25}); math.Abs(got-3) > paperParams.Epsilon+1e-6 {
		t.Errorf("Predict = %.4f, want 3 ± ε", got)
	}
}

func TestDeterministicTraining(t *testing.T) {
	var xs [][]float64
	var ys []float64
	r := &det{s: 3}
	for i := 0; i < 60; i++ {
		a, b := r.next(), r.next()
		xs = append(xs, []float64{a, b})
		ys = append(ys, math.Sin(3*a)+b)
	}
	m1, err := Train(xs, ys, RBF{Gamma: 1}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(xs, ys, RBF{Gamma: 1}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	if m1.NumSV() != m2.NumSV() || m1.B != m2.B {
		t.Error("training is not deterministic")
	}
	for i := 0; i < 10; i++ {
		x := []float64{float64(i) / 10, 0.5}
		if m1.Predict(x) != m2.Predict(x) {
			t.Fatalf("predictions differ at %v", x)
		}
	}
}

func TestNoisyDataStaysBounded(t *testing.T) {
	r := &det{s: 11}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 150; i++ {
		x := r.next()
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x+0.2*(r.next()-0.5))
	}
	m, err := Train(xs, ys, Linear{}, Params{C: 100, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		v := m.Predict(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite prediction at %v", x)
		}
	}
}

func TestPredictFiniteProperty(t *testing.T) {
	xs := [][]float64{{0, 0}, {0.5, 1}, {1, 0.2}, {0.3, 0.9}}
	ys := []float64{0, 1, 0.5, 0.8}
	m, err := Train(xs, ys, RBF{Gamma: 0.1}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		v := m.Predict([]float64{a, b})
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictBatch(t *testing.T) {
	xs := [][]float64{{0}, {1}}
	ys := []float64{0, 1}
	m, err := Train(xs, ys, Linear{}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, len(xs))
	m.PredictBatchInto(batch, xs)
	for i, x := range xs {
		if batch[i] != m.Predict(x) {
			t.Errorf("batch[%d] != Predict", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 10; i++ {
		x := float64(i) / 10
		xs = append(xs, []float64{x, 1 - x})
		ys = append(ys, 3*x-1)
	}
	for _, k := range []Kernel{Linear{}, RBF{Gamma: 0.1}} {
		m, err := Train(xs, ys, k, paperParams)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%v: Save: %v", k, err)
		}
		m2, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v: Load: %v", k, err)
		}
		for _, x := range xs {
			if math.Abs(m.Predict(x)-m2.Predict(x)) > 1e-12 {
				t.Errorf("%v: prediction drift after round trip", k)
			}
		}
	}
}

func TestLoadRejectsBad(t *testing.T) {
	cases := []string{
		"not json",
		`{"kernel":{"type":"mystery"},"support_vectors":[],"coefs":[],"b":0}`,
		`{"kernel":{"type":"linear"},"support_vectors":[[1]],"coefs":[],"b":0}`,
		`{"kernel":{"type":"linear"},"support_vectors":[[1,2],[3]],"coefs":[1,1],"b":0}`,
	}
	for _, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("Load(%q) succeeded, want error", c)
		}
	}
}

func TestKernelStrings(t *testing.T) {
	if (Linear{}).String() != "linear" {
		t.Error("Linear.String")
	}
	if s := (RBF{Gamma: 0.1}).String(); s != "rbf(gamma=0.1)" {
		t.Errorf("RBF.String = %q", s)
	}
}

func TestKernelSymmetryProperty(t *testing.T) {
	kernels := []Kernel{Linear{}, RBF{Gamma: 0.5}, Polynomial{Gamma: 1, Coef0: 1, Degree: 2}}
	f := func(a, b [4]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.Abs(a[i]) > 1e6 {
				return true
			}
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) || math.Abs(b[i]) > 1e6 {
				return true
			}
		}
		for _, k := range kernels {
			if k.Eval(a[:], b[:]) != k.Eval(b[:], a[:]) {
				return false
			}
		}
		// RBF is bounded in (0, 1] and equals 1 on the diagonal.
		r := RBF{Gamma: 0.5}
		v := r.Eval(a[:], a[:])
		if math.Abs(v-1) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
