package svm

import (
	"math"
	"slices"
	"testing"
)

// primalObjective is the linear ε-SVR primal at (w, b) with the optimal
// slacks: ½‖w‖² + C Σ max(0, |y − f| − ε).
func primalObjective(xs [][]float64, ys []float64, w []float64, b float64, p Params) float64 {
	obj := 0.0
	for _, v := range w {
		obj += v * v / 2
	}
	for i, x := range xs {
		f := b
		for j, v := range x {
			f += w[j] * v
		}
		obj += p.C * math.Max(0, math.Abs(ys[i]-f)-p.Epsilon)
	}
	return obj
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// TestIPMAgreesWithConvergedSMO is the interior-point fit's oracle: SMO on
// the dot-product kernel, run to its 1e-3 KKT tolerance τ, must agree with
// it within bounds derived from τ.
//
//   - Objective. Any SMO point whose rows meet the KKT conditions within τ
//     has a duality gap G = P(w, b) − D(β) ≤ n·C·τ (each row's Fenchel term
//     is at most C·τ). The exact optimum lies in [D(β), P(w, b)], so the
//     interior-point objective must too, up to its own certified gap.
//   - Weights. The primal is 1-strongly convex in w, so ‖w − w*‖² ≤ 2G for
//     SMO, and likewise for the interior-point fit with its own gap.
//   - Predictions. Take a row k free on the same tube edge in both fits:
//     SMO's residual there is within τ of ±ε and the interior-point one
//     within s_k + ξ_k of it, so Δb ≤ ‖Δw‖·‖x_k‖ + τ + s_k + ξ_k, and
//     |Δf(x)| ≤ ‖Δw‖·(‖x‖ + ‖x_k‖) + τ + s_k + ξ_k.
func TestIPMAgreesWithConvergedSMO(t *testing.T) {
	var xs [][]float64
	var ys []float64
	r := &det{s: 23}
	for i := 0; i < 80; i++ {
		a, b, c := r.next(), r.next(), r.next()
		xs = append(xs, []float64{a, b, c})
		ys = append(ys, 1+2*a-3*b+0.5*c+0.6*(r.next()-0.5))
	}
	const tau = 1e-3
	p := paperParams
	smo, err := Train(xs, ys, Dot{}, Params{C: p.C, Epsilon: p.Epsilon, Tol: tau, MaxIter: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ipm, err := Train(xs, ys, Linear{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !smo.Converged || !ipm.Converged {
		t.Fatalf("converged: SMO %v (%d iters), interior point %v (%d iters)", smo.Converged, smo.Iters, ipm.Converged, ipm.Iters)
	}
	if ipm.NumSV() != 1 || ipm.Coefs[0] != 1 {
		t.Fatalf("linear model holds %d rows with coefficients %v, want w with coefficient 1", ipm.NumSV(), ipm.Coefs)
	}

	// SMO's per-row β, its w and its dual objective.
	beta := make([]float64, len(xs))
	for j, sv := range smo.SupportVectors {
		for i, x := range xs {
			if slices.Equal(x, sv) {
				beta[i] = smo.Coefs[j]
			}
		}
	}
	wS := make([]float64, 3)
	dual := 0.0
	for i, x := range xs {
		for j, v := range x {
			wS[j] += beta[i] * v
		}
		dual += ys[i]*beta[i] - p.Epsilon*math.Abs(beta[i])
	}
	for _, v := range wS {
		dual -= v * v / 2
	}
	pS := primalObjective(xs, ys, wS, smo.B, p)
	gapS := pS - dual
	if bound := float64(len(xs)) * p.C * tau; gapS < 0 || gapS > bound {
		t.Fatalf("SMO duality gap %.6g outside [0, nCτ = %g]", gapS, bound)
	}

	wI := ipm.SupportVectors[0]
	pI := primalObjective(xs, ys, wI, ipm.B, p)
	gapI := ipmGapTol * math.Max(1, pI)
	if pI < dual-gapI || pI > pS+gapI {
		t.Fatalf("interior-point objective %.9g outside SMO's certified interval [%.9g, %.9g]", pI, dual, pS)
	}
	dw := make([]float64, 3)
	for j := range dw {
		dw[j] = wI[j] - wS[j]
	}
	wBound := math.Sqrt(2*gapS) + math.Sqrt(2*gapI)
	if norm(dw) > wBound {
		t.Fatalf("‖w_ipm − w_smo‖ = %.3g > %.3g", norm(dw), wBound)
	}

	// A row free on the same tube edge in both fits pins the offsets.
	lin := trainLinear(xs, ys, p.C, p.Epsilon)
	lin.solve()
	k := -1
	for i := range xs {
		free := func(v float64) bool { return v > 1e-6*p.C && v < p.C*(1-1e-6) }
		if free(beta[i]) && free(lin.a[i]-lin.as[i]) || free(-beta[i]) && free(lin.as[i]-lin.a[i]) {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("no row is free on the same tube edge in both fits")
	}
	slack := math.Max(lin.s[k]+lin.xi[k], lin.t[k]+lin.xis[k])
	for _, x := range equivGrid(3, 64) {
		bound := norm(dw)*(norm(x)+norm(xs[k])) + tau + slack
		if d := math.Abs(ipm.Predict(x) - smo.Predict(x)); d > bound {
			t.Fatalf("Predict(%v): interior point %.6f, SMO %.6f (|Δ| = %.3g > %.3g)", x, ipm.Predict(x), smo.Predict(x), d, bound)
		}
	}
	t.Logf("objective: SMO %.6f (gap %.3g), interior point %.6f; ‖Δw‖ = %.3g; iterations: SMO %d, interior point %d",
		pS, gapS, pI, norm(dw), smo.Iters, ipm.Iters)
}

// TestLinearFitRandomProblems sweeps random problems across six decades of
// C and of feature scale, with zero and wide tubes, collinear features and
// fewer rows than weights. Every fit must stay finite and end within 30
// iterations, and at most 1% may end unconverged: there rounding holds the
// gap a little above 1e-9 and the fit keeps its best iterate.
func TestLinearFitRandomProblems(t *testing.T) {
	r := &det{s: 1}
	const trials = 2000
	unconverged := 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + int(r.next()*60)
		d := 1 + int(r.next()*13)
		p := Params{C: math.Pow(10, -2+6*r.next()), Epsilon: 0.5 * r.next()}
		if trial%7 == 0 {
			p.Epsilon = 0
		}
		scale := math.Pow(10, -3+6*r.next())
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, d)
			for j := range xs[i] {
				xs[i][j] = r.next() * scale
				if trial%5 == 0 && j > 0 {
					xs[i][j] = xs[i][0]
				}
			}
			ys[i] = scale * 3 * (r.next() - 0.5)
		}
		m, err := Train(xs, ys, Linear{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if m.Iters > 30 {
			t.Errorf("trial %d (n=%d d=%d C=%g ε=%g): %d iterations", trial, n, d, p.C, p.Epsilon, m.Iters)
		}
		for _, x := range xs {
			if v := m.Predict(x); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: non-finite prediction %v", trial, v)
			}
		}
		if !m.Converged {
			unconverged++
		}
	}
	if unconverged > trials/100 {
		t.Fatalf("%d of %d fits did not certify the gap", unconverged, trials)
	}
}

// TestLinearFitUnconvergedKeepsBestIterate: a run that cannot certify its
// gap (a NaN feature poisons every certificate) ends early with Converged
// false and the finite starting iterate, w = 0 and b = mean(y).
func TestLinearFitUnconvergedKeepsBestIterate(t *testing.T) {
	xs := [][]float64{{0, 1}, {1, math.NaN()}, {2, 3}}
	ys := []float64{1, 2, 6}
	m, err := Train(xs, ys, Linear{}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	if m.Converged || m.Iters >= ipmMaxIter {
		t.Fatalf("Converged = %v after %d iterations, want an early unconverged stop", m.Converged, m.Iters)
	}
	if got := m.Predict([]float64{5, 7}); got != 3 {
		t.Fatalf("Predict = %v, want the starting iterate's mean(y) = 3", got)
	}
}
