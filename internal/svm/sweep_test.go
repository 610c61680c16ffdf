package svm

import (
	"fmt"
	"math"
	"testing"
)

// laplace is a kernel outside the built-in set, so a sweep over it takes
// the concatenated-row fallback.
type laplace struct{ gamma float64 }

func (k laplace) Eval(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return math.Exp(-k.gamma * d)
}

func (k laplace) String() string { return fmt.Sprintf("laplace(%g)", k.gamma) }

// randRows returns n rows of dim uniform entries in [0, 1).
func randRows(d *det, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = d.next()
		}
	}
	return out
}

// TestSweepMatchesPredict checks Sweep.Into against Predict on the
// concatenated row for every kernel family and every split point, on
// seeded random heads and tails: within 1e-12 absolute, and bit-identical
// for the linear kernel, whose sweep sums Predict's terms in Predict's
// order. Polynomial and laplace take the concatenated-row fallback.
func TestSweepMatchesPredict(t *testing.T) {
	const dim = 6
	d := &det{s: 25}
	xs := randRows(d, 80, dim)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(3*x[0]) + x[1]*x[2] - 2*x[3] + 0.5*x[4]*x[4] + x[5]
	}
	for _, k := range []Kernel{Linear{}, RBF{Gamma: 0.7}, Polynomial{Gamma: 0.5, Coef0: 1, Degree: 3}, laplace{gamma: 0.9}} {
		m, err := Train(xs, ys, k, Params{C: 100, Epsilon: 0.01})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if m.NumSV() == 0 {
			t.Fatalf("%v: no support vectors", k)
		}
		for split := 0; split <= dim; split++ {
			tails := randRows(d, 17, dim-split)
			s := m.NewSweep(split, tails)
			out := make([]float64, len(tails))
			for h := 0; h < 5; h++ {
				head := randRows(d, 1, split)[0]
				s.Into(out, head)
				for j, tail := range tails {
					want := m.Predict(append(append([]float64(nil), head...), tail...))
					if _, linear := k.(Linear); linear && out[j] != want {
						t.Fatalf("%v split %d tail %d: sweep %v, Predict %v (want bit-identical)", k, split, j, out[j], want)
					}
					if diff := math.Abs(out[j] - want); diff > 1e-12 {
						t.Fatalf("%v split %d tail %d: sweep %v, Predict %v (diff %g)", k, split, j, out[j], want, diff)
					}
				}
			}
		}
	}
}

// TestSweepNoSupportVectors pins the degenerate model: every tail predicts
// the bias.
func TestSweepNoSupportVectors(t *testing.T) {
	m := &Model{B: 0.25, kernel: RBF{Gamma: 1}}
	m.finalize()
	out := []float64{-1, -1}
	m.NewSweep(1, [][]float64{{0.5}, {0.75}}).Into(out, []float64{0.1})
	if out[0] != 0.25 || out[1] != 0.25 {
		t.Fatalf("sweep of a model without support vectors = %v, want the bias 0.25", out)
	}
}

// TestSweepPanicsOnMismatchedLengths mirrors PredictBatchInto: a split, a
// tail, a head or an output of the wrong length panics instead of reading
// past a row.
func TestSweepPanicsOnMismatchedLengths(t *testing.T) {
	xs := [][]float64{{0, 0, 0}, {1, 0, 1}, {0, 1, 1}, {1, 1, 0}}
	m, err := Train(xs, []float64{0, 1, 2, 3}, RBF{Gamma: 0.5}, Params{C: 10, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSweep(2, [][]float64{{0.5}, {1}})
	for name, f := range map[string]func(){
		"split past dim":  func() { m.NewSweep(4, nil) },
		"negative split":  func() { m.NewSweep(-1, [][]float64{{0, 0, 0, 0}}) },
		"short tail":      func() { m.NewSweep(1, [][]float64{{0.5, 1}, {1}}) },
		"long tail":       func() { m.NewSweep(2, [][]float64{{0.5, 1}}) },
		"short output":    func() { s.Into(make([]float64, 1), []float64{0, 0}) },
		"long output":     func() { s.Into(make([]float64, 3), []float64{0, 0}) },
		"short head":      func() { s.Into(make([]float64, 2), []float64{0}) },
		"long head":       func() { s.Into(make([]float64, 2), []float64{0, 0, 0}) },
		"head as the row": func() { s.Into(make([]float64, 2), []float64{0, 0, 0.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkSweep compares one 178-tail sweep of an RBF model against the
// same 178 rows through Predict, the row-wise form it replaces.
func BenchmarkSweep(b *testing.B) {
	const dim, split, nTail = 12, 10, 178
	d := &det{s: 7}
	xs := randRows(d, 400, dim)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(4*x[0]) + x[1]*x[10] - x[11]
	}
	m, err := Train(xs, ys, RBF{Gamma: 0.1}, Params{C: 1000, Epsilon: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	tails := randRows(d, nTail, dim-split)
	head := randRows(d, 1, split)[0]
	out := make([]float64, nTail)
	s := m.NewSweep(split, tails)
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Into(out, head)
		}
	})
	b.Run("rows", func(b *testing.B) {
		row := make([]float64, dim)
		copy(row, head)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, tail := range tails {
				copy(row[split:], tail)
				out[j] = m.Predict(row)
			}
		}
	})
}
