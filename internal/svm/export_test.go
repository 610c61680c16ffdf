package svm

import (
	"fmt"
	"math"
)

// Test-only exports: the external property-test package (svm_test) applies
// the svmtest KKT checker to every model class this suite trains, including
// the preserved reference solver — which internal test files cannot do
// themselves, because package svm's own tests may not import svmtest
// (svmtest imports svm).

// RefTrainModel runs the preserved pre-overhaul reference solver and wraps
// its output as a public Model, so external tests can verify the reference
// implementation with the same checkers as the production solver.
func RefTrainModel(xs [][]float64, ys []float64, k Kernel, p Params) *Model {
	rm := refTrain(xs, ys, k, p)
	m := &Model{
		SupportVectors: rm.SupportVectors,
		Coefs:          rm.Coefs,
		B:              rm.B,
		kernel:         k,
		Iters:          rm.Iters,
		Converged:      rm.Converged,
	}
	m.finalize()
	return m
}

// Dot is the linear kernel under another type. Train sends Linear to the
// interior-point solver, so tests that exercise SMO itself (shrinking, the
// iteration cap, the row cache, the reference equivalence) train Dot,
// which reaches SMO through genericRows.
type Dot struct{}

// Eval returns the dot product of a and b.
func (Dot) Eval(a, b []float64) float64 { return Linear{}.Eval(a, b) }

// String names the kernel.
func (Dot) String() string { return "dot" }

// Polynomial is the polynomial kernel K(a,b) = (γ a·b + c)^d. No program
// trains it, so it lives here: it gives the SMO tests a nonlinear kernel
// that reaches SMO through genericRows, as any user-supplied kernel does.
type Polynomial struct {
	Gamma  float64
	Coef0  float64
	Degree int
}

// Eval returns (γ a·b + c)^d.
func (k Polynomial) Eval(a, b []float64) float64 {
	return math.Pow(k.Gamma*Linear{}.Eval(a, b)+k.Coef0, float64(k.Degree))
}

// String names the kernel and its parameters.
func (k Polynomial) String() string {
	return fmt.Sprintf("poly(gamma=%g, coef0=%g, degree=%d)", k.Gamma, k.Coef0, k.Degree)
}

// LinearDuals runs the linear interior-point fit and returns its dual
// solution before it is folded into w: a model over the training rows with
// coefficients β = α − α* and the fit's offset. An interior point keeps
// every multiplier strictly inside its box, so each one is first resolved
// against its complementary slack: α_i is 0 where α_i ≤ s_i and C where
// C − α_i ≤ ξ_i (likewise α*_i against t_i and ξ*_i).
func LinearDuals(xs [][]float64, ys []float64, p Params) *Model {
	lin := trainLinear(xs, ys, p.C, p.Epsilon)
	iters, converged := lin.solve()
	resolve := func(a, slack, xi float64) float64 {
		switch {
		case a <= slack:
			return 0
		case p.C-a <= xi:
			return p.C
		}
		return a
	}
	m := &Model{B: lin.b, kernel: Linear{}, Iters: iters, Converged: converged}
	for i, x := range xs {
		beta := resolve(lin.a[i], lin.s[i], lin.xi[i]) - resolve(lin.as[i], lin.t[i], lin.xis[i])
		if beta != 0 {
			m.SupportVectors = append(m.SupportVectors, x)
			m.Coefs = append(m.Coefs, beta)
		}
	}
	m.finalize()
	return m
}
