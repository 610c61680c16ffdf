package svm_test

// Property sweep: every model class SMO trains — the preserved reference
// solver, the production solver with shrinking on and off, and
// iteration-capped partial fits — must produce a model that passes the
// shared svmtest verification at its own tolerance, and so must the linear
// interior-point fit's duals. The checks run in an external test package
// because the checker itself lives in svmtest, which imports svm.

import (
	"math"
	"testing"

	"repro/internal/svm"
	"repro/internal/svm/svmtest"
)

// propRand is the same deterministic LCG the internal suite uses.
type propRand struct{ s uint64 }

func (d *propRand) next() float64 {
	d.s = d.s*6364136223846793005 + 1442695040888963407
	return float64(d.s>>11) / float64(1<<53)
}

type propSet struct {
	name string
	xs   [][]float64
	ys   []float64
	k    svm.Kernel
	p    svm.Params
}

// propSets builds one dataset per kernel family, shaped like the internal
// suite's: targets each kernel can actually fit, so every class converges.
// The linear family trains svm.Dot, the dot product under a type that
// Train sends to SMO.
func propSets() []propSet {
	linXs := make([][]float64, 150)
	linYs := make([]float64, 150)
	d := &propRand{s: 42}
	for i := range linXs {
		x1, x2 := 2*d.next()-1, 2*d.next()-1
		linXs[i] = []float64{x1, x2}
		linYs[i] = 2*x1 - x2 + 0.05*(d.next()-0.5)
	}
	rbfXs := make([][]float64, 120)
	rbfYs := make([]float64, 120)
	d = &propRand{s: 7}
	for i := range rbfXs {
		x1, x2 := 2*d.next()-1, 2*d.next()-1
		rbfXs[i] = []float64{x1, x2}
		rbfYs[i] = math.Sin(2*x1) + 0.5*x2*x2
	}
	polyXs := make([][]float64, 100)
	polyYs := make([]float64, 100)
	d = &propRand{s: 13}
	for i := range polyXs {
		x1, x2 := 2*d.next()-1, 2*d.next()-1
		polyXs[i] = []float64{x1, x2}
		polyYs[i] = (x1 + x2) * (x1 + x2)
	}
	pp := svm.Params{C: 1000, Epsilon: 0.1}
	return []propSet{
		{"linear", linXs, linYs, svm.Dot{}, pp},
		{"rbf", rbfXs, rbfYs, svm.RBF{Gamma: 2}, pp},
		{"poly", polyXs, polyYs, svm.Polynomial{Gamma: 1, Coef0: 1, Degree: 2}, pp},
	}
}

// TestKKTPropertySweep certifies every converged model class against the
// shared KKT checker at the solver's stopping tolerance.
func TestKKTPropertySweep(t *testing.T) {
	for _, set := range propSets() {
		set := set
		t.Run(set.name, func(t *testing.T) {
			classes := []struct {
				name  string
				train func() (*svm.Model, error)
			}{
				{"reference", func() (*svm.Model, error) {
					return svm.RefTrainModel(set.xs, set.ys, set.k, set.p), nil
				}},
				{"shrinking-on", func() (*svm.Model, error) {
					return svm.Train(set.xs, set.ys, set.k, set.p)
				}},
				{"shrinking-off", func() (*svm.Model, error) {
					p := set.p
					p.DisableShrinking = true
					return svm.Train(set.xs, set.ys, set.k, p)
				}},
			}
			for _, cl := range classes {
				m, err := cl.train()
				if err != nil {
					t.Fatalf("%s: train: %v", cl.name, err)
				}
				if !m.Converged {
					t.Fatalf("%s: did not converge (%d iters)", cl.name, m.Iters)
				}
				if err := svmtest.VerifyKKT(m, set.xs, set.ys, set.p, 0); err != nil {
					t.Errorf("%s: %v", cl.name, err)
				}
			}
		})
	}
}

// TestFeasibilityIterationCapped pins the iteration-capped class: a fit cut
// off mid-solve is not optimal, but it must still be dual-feasible — SMO
// updates preserve the box and equality constraints at every step.
func TestFeasibilityIterationCapped(t *testing.T) {
	for _, set := range propSets() {
		p := set.p
		p.MaxIter = 20
		m, err := svm.Train(set.xs, set.ys, set.k, p)
		if err != nil {
			t.Fatalf("%s: train: %v", set.name, err)
		}
		if err := svmtest.VerifyFeasibility(m, p); err != nil {
			t.Errorf("%s capped: %v", set.name, err)
		}
	}
}

// TestVerifyKKTDetectsBrokenModels is the checker's own negative control: a
// model whose optimality was destroyed after training must be rejected.
func TestVerifyKKTDetectsBrokenModels(t *testing.T) {
	set := propSets()[1] // rbf
	m, err := svm.Train(set.xs, set.ys, set.k, set.p)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Coefs) == 0 {
		t.Fatal("no support vectors")
	}

	// Corrupted offset: every residual shifts, violating the tube cases.
	bad, err := svm.Train(set.xs, set.ys, set.k, set.p)
	if err != nil {
		t.Fatal(err)
	}
	bad.B += 1
	if err := svmtest.VerifyKKT(bad, set.xs, set.ys, set.p, 0); err == nil {
		t.Error("offset-corrupted model passed VerifyKKT")
	}

	// Out-of-box coefficient: feasibility must fail.
	bad2, err := svm.Train(set.xs, set.ys, set.k, set.p)
	if err != nil {
		t.Fatal(err)
	}
	bad2.Coefs[0] = 2 * set.p.C
	if err := svmtest.VerifyKKT(bad2, set.xs, set.ys, set.p, 0); err == nil {
		t.Error("out-of-box model passed VerifyKKT")
	}

	// Model trained on different rows: support vectors match nothing.
	other := make([][]float64, len(set.xs))
	for i, x := range set.xs {
		other[i] = []float64{x[0] + 10, x[1] + 10}
	}
	if err := svmtest.VerifyKKT(m, other, set.ys, set.p, 0); err == nil {
		t.Error("model verified against a foreign training set")
	}
}

// TestLinearIPMDualsPassKKT certifies the interior-point fit through its
// duals, before they are folded into w: on the linear property set they
// must satisfy the same KKT conditions as a converged SMO fit, at a
// tolerance a thousand times tighter than SMO's.
func TestLinearIPMDualsPassKKT(t *testing.T) {
	set := propSets()[0]
	m := svm.LinearDuals(set.xs, set.ys, set.p)
	if !m.Converged {
		t.Fatalf("interior-point fit did not converge in %d iterations", m.Iters)
	}
	if err := svmtest.VerifyKKT(m, set.xs, set.ys, set.p, 1e-6); err != nil {
		t.Fatal(err)
	}
}
