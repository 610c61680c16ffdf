// Package svmtest provides model-verification helpers shared by the SVR
// solver tests: a KKT-residual checker certifying that a trained ε-SVR
// model is optimal (to a tolerance) for the rows it was trained on, and a
// feasibility check for iteration-capped fits. It is a production (non _test) package so that external test
// packages across the repository — and future fleet verification tooling —
// can import one shared implementation of "is this model actually a
// solution", rather than each suite re-deriving the dual conditions.
package svmtest

import (
	"fmt"
	"math"

	"repro/internal/svm"
)

// sumTol bounds the equality-constraint residue |Σβ| relative to C. An
// exactly-solved dual has Σβ = 0; the solver's support-vector cutoff
// (|β| ≤ 1e-12 rows are dropped from the model) leaves residues at that
// scale, a factor 1e-6 below any C used in practice.
const sumTol = 1e-6

// betasFor matches each of the model's support vectors to a training row by
// bit-exact row identity and returns the per-row coefficient vector (0 for non-support rows).
// Duplicated rows consume duplicated support vectors in order. It errors
// when a support vector matches no row: the model was not trained on xs.
func betasFor(m *svm.Model, xs [][]float64) ([]float64, error) {
	type queue struct{ idx []int }
	byKey := make(map[string]*queue, len(xs))
	key := func(x []float64) string {
		b := make([]byte, 0, 8*len(x))
		for _, v := range x {
			u := math.Float64bits(v)
			b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
				byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
		}
		return string(b)
	}
	for i, x := range xs {
		k := key(x)
		q := byKey[k]
		if q == nil {
			q = &queue{}
			byKey[k] = q
		}
		q.idx = append(q.idx, i)
	}
	beta := make([]float64, len(xs))
	for j, sv := range m.SupportVectors {
		q := byKey[key(sv)]
		if q == nil || len(q.idx) == 0 {
			return nil, fmt.Errorf("svmtest: support vector %d matches no training row", j)
		}
		beta[q.idx[0]] = m.Coefs[j]
		q.idx = q.idx[1:]
	}
	return beta, nil
}

// VerifyKKT certifies that model m is an optimal solution of the ε-SVR dual
// on the training set (xs, ys) under hyper-parameters p, to tolerance tol
// (p.Tol resolves the solver default when zero; pass the same tol the fit
// converged to). With r_i = y_i − f(x_i) and β_i the row's dual
// coefficient, the conditions checked are the stationarity cases of the
// ε-insensitive loss:
//
//	β = 0:        |r| ≤ ε + tol        (inside the tube)
//	0 < β < C:    |r − ε| ≤ tol        (on the upper tube edge)
//	β = C:        r ≥ ε − tol          (above the tube)
//	−C < β < 0:   |r + ε| ≤ tol        (on the lower tube edge)
//	β = −C:       r ≤ −ε + tol         (below the tube)
//
// plus the box constraint |β| ≤ C and the equality constraint Σβ ≈ 0.
// These are exactly the conditions the solver's maximal-violating-pair
// stopping criterion guarantees at convergence, expressed against the
// model's own offset, so every converged fit must pass at its own
// tolerance. A nil error means the model is a certified
// solution; any other return pinpoints the worst violation.
func VerifyKKT(m *svm.Model, xs [][]float64, ys []float64, p svm.Params, tol float64) error {
	if len(xs) == 0 || len(ys) != len(xs) {
		return fmt.Errorf("svmtest: bad verification set: %d xs, %d ys", len(xs), len(ys))
	}
	if p.C <= 0 {
		return fmt.Errorf("svmtest: C must be positive")
	}
	if tol <= 0 {
		if tol = p.Tol; tol <= 0 {
			tol = 1e-3 // the solver's documented default
		}
	}
	beta, err := betasFor(m, xs)
	if err != nil {
		return err
	}
	if err := checkFeasible(beta, p.C); err != nil {
		return err
	}

	c, eps := p.C, p.Epsilon
	// A coefficient within the support-vector collection cutoff of a bound
	// counts as at that bound; the solver clips to the bounds exactly, so
	// this slack only absorbs the 1e-12 cutoff itself.
	const bTol = 1e-11
	worst, worstRow := 0.0, -1
	for i, x := range xs {
		r := ys[i] - m.Predict(x)
		b := beta[i]
		viol := 0.0
		// Each side of the box contributes one inequality; interior and
		// zero coefficients activate both of their sides.
		if b < c-bTol && r-eps > viol { // can still increase β: r ≤ ε required
			viol = r - eps
		}
		if b > -c+bTol && -eps-r > viol { // can still decrease β: r ≥ −ε required
			viol = -eps - r
		}
		if b > bTol && eps-r > viol { // positive β demands r ≥ ε
			viol = eps - r
		}
		if b < -bTol && r+eps > viol { // negative β demands r ≤ −ε
			viol = r + eps
		}
		if viol > worst {
			worst, worstRow = viol, i
		}
	}
	if worst > tol {
		return fmt.Errorf("svmtest: KKT violation %.3e > tol %.3e at row %d (β=%.6g, residual=%.6g)",
			worst, tol, worstRow, beta[worstRow], ys[worstRow]-m.Predict(xs[worstRow]))
	}
	return nil
}

// checkFeasible verifies the box and equality constraints of a coefficient
// vector. Shared by VerifyKKT and VerifyFeasibility.
func checkFeasible(beta []float64, c float64) error {
	sum := 0.0
	for i, b := range beta {
		if math.IsNaN(b) || math.Abs(b) > c*(1+1e-12) {
			return fmt.Errorf("svmtest: coefficient %d = %g outside the box [-C, C], C = %g", i, b, c)
		}
		sum += b
	}
	if math.Abs(sum) > sumTol*math.Max(1, c) {
		return fmt.Errorf("svmtest: equality constraint violated: Σβ = %g", sum)
	}
	return nil
}

// VerifyFeasibility checks only the dual constraints — box |β| ≤ C and
// equality Σβ ≈ 0 — without requiring optimality. It is the right check for
// iteration-capped fits (Model.Converged false), which are feasible partial
// solutions by construction but need not satisfy the KKT residuals.
func VerifyFeasibility(m *svm.Model, p svm.Params) error {
	if p.C <= 0 {
		return fmt.Errorf("svmtest: C must be positive")
	}
	return checkFeasible(m.Coefs, p.C)
}
