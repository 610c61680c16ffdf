package svm

import "math"

// The linear ε-SVR has d+1 free primal weights, so it is solved in the
// primal by a primal–dual interior-point method instead of SMO on the
// n-row dual:
//
//	min ½‖w‖² + C Σ (ξ_i + ξ*_i)
//	s.t. s_i = f_i − y_i + ε + ξ_i ≥ 0    (multiplier α_i)
//	     t_i = y_i − f_i + ε + ξ*_i ≥ 0   (multiplier α*_i)
//	     ξ_i, ξ*_i ≥ 0                    (multipliers C − α_i, C − α*_i)
//
// with f_i = w·x_i + b. Stationarity gives w = Σ β_i x_i and Σ β_i = 0
// for β = α − α*, the usual dual. Each Newton step eliminates the per-row
// variables, which leaves one (d+1)×(d+1) symmetric positive definite
// system in (Δw, Δb), formed in O(n·d²) and solved by Cholesky (Ferris &
// Munson, SIAM J. Optim. 13(3), 2002). Steps use Mehrotra's
// predictor–corrector (SIAM J. Optim. 2(4), 1992): the predictor and the
// corrector share one factorization.

const (
	// ipmGapTol is the relative duality gap that certifies convergence.
	ipmGapTol = 1e-9
	// ipmMaxIter ends a run that has not certified the gap.
	ipmMaxIter = 100
	// ipmStepFrac keeps each step this fraction of the way to the boundary.
	ipmStepFrac = 0.995
)

// linearIPM is the interior-point state for one linear fit.
type linearIPM struct {
	x      *designMatrix
	ys     []float64
	c, eps float64
	n, d   int

	w []float64
	b float64
	// Per-row primal (ξ, ξ*, and the slacks s, t, carried as their own
	// variables with a residual) and dual (α, α*) variables.
	xi, xis, s, t, a, as []float64

	// Per-iterate quantities: f = w·x + b, the slack residuals ρ, ρ*, and
	// the eliminated pivots d1, d2 of each row.
	f, rho, rhos, d1, d2 []float64
	// Search direction and its complementarity right-hand sides.
	da, das, dxi, dxis, ds, dt []float64
	c1, c2, c3, c4             []float64
	beta                       []float64 // relGap's feasible dual
	m                          []float64 // (d+1)×(d+1), row-major, lower triangle used
	rw, rhs, dz                []float64
}

// trainLinear sets up the interior-point fit of the linear ε-SVR at its
// starting point; solve runs it. Inputs are validated by Train.
func trainLinear(xs [][]float64, ys []float64, c, eps float64) *linearIPM {
	x := newDesignMatrix(xs)
	n, d := x.n, x.dim
	p := &linearIPM{x: x, ys: ys, c: c, eps: eps, n: n, d: d}
	for _, v := range []*[]float64{&p.xi, &p.xis, &p.s, &p.t, &p.a, &p.as,
		&p.f, &p.rho, &p.rhos, &p.d1, &p.d2, &p.da, &p.das, &p.dxi, &p.dxis, &p.ds, &p.dt,
		&p.c1, &p.c2, &p.c3, &p.c4, &p.beta} {
		*v = make([]float64, n)
	}
	p.w, p.rw = make([]float64, d), make([]float64, d)
	p.rhs, p.dz = make([]float64, d+1), make([]float64, d+1)
	p.m = make([]float64, (d+1)*(d+1))

	// Start from w = 0 and b = mean(y), every multiplier at C/2 (so β = 0
	// satisfies both dual equations exactly), and ξ large enough that each
	// slack is at least 1.
	for _, y := range ys {
		p.b += y
	}
	p.b /= float64(n)
	for i, y := range ys {
		r := y - p.b
		p.xi[i] = math.Max(0, r-eps) + 1
		p.xis[i] = math.Max(0, -r-eps) + 1
		p.s[i] = p.b - y + eps + p.xi[i]
		p.t[i] = y - p.b + eps + p.xis[i]
		p.a[i], p.as[i] = c/2, c/2
	}
	return p
}

// solve runs predictor–corrector iterations until the certified relative
// duality gap reaches ipmGapTol, and returns (iterations, converged). A run
// also ends, unconverged, after ipmMaxIter iterations or once rounding
// holds the gap up: the residuals of the eliminated system stop shrinking
// once M is too ill-conditioned, so when complementarity alone is a
// thousandth of the target further steps cannot close the gap. An
// unconverged run leaves (w, b) at its best certified iterate.
func (p *linearIPM) solve() (int, bool) {
	n, d := p.n, p.d
	bestW, bestB, bestGap := make([]float64, d), p.b, math.Inf(1)
	it := 0
	for ; it < ipmMaxIter; it++ {
		gap, scale := p.relGap() // relGap also fills f for this iterate
		if gap <= ipmGapTol {
			return it, true
		}
		if gap < bestGap {
			copy(bestW, p.w)
			bestB, bestGap = p.b, gap
		}
		// Residuals of the equality constraints: the primal slack
		// definitions ρ = f − y + ε + ξ − s and ρ* = y − f + ε + ξ* − t,
		// and the dual w = Σβx (rw) and Σβ = 0 (rb).
		rw := p.rw
		copy(rw, p.w)
		rb := 0.0
		mu := 0.0
		for i := 0; i < n; i++ {
			beta := p.a[i] - p.as[i]
			for j, v := range p.x.row(i) {
				rw[j] -= beta * v
			}
			rb += beta
			p.rho[i] = p.f[i] - p.ys[i] + p.eps + p.xi[i] - p.s[i]
			p.rhos[i] = p.ys[i] - p.f[i] + p.eps + p.xis[i] - p.t[i]
			mu += p.a[i]*p.s[i] + p.as[i]*p.t[i] + (p.c-p.a[i])*p.xi[i] + (p.c-p.as[i])*p.xis[i]
		}
		if !(mu > 1e-3*ipmGapTol*scale) || !p.factor() {
			break
		}
		mu /= float64(4 * n)

		// Predictor: the affine-scaling direction (σ = 0).
		for i := 0; i < n; i++ {
			p.c1[i] = -p.a[i] * p.s[i]
			p.c2[i] = -p.as[i] * p.t[i]
			p.c3[i] = -(p.c - p.a[i]) * p.xi[i]
			p.c4[i] = -(p.c - p.as[i]) * p.xis[i]
		}
		p.direction(rw, rb)
		step := p.maxStep()
		muAff := 0.0
		for i := 0; i < n; i++ {
			muAff += (p.a[i] + step*p.da[i]) * (p.s[i] + step*p.ds[i])
			muAff += (p.as[i] + step*p.das[i]) * (p.t[i] + step*p.dt[i])
			muAff += (p.c - p.a[i] - step*p.da[i]) * (p.xi[i] + step*p.dxi[i])
			muAff += (p.c - p.as[i] - step*p.das[i]) * (p.xis[i] + step*p.dxis[i])
		}
		muAff /= float64(4 * n)
		sigma := math.Pow(muAff/mu, 3)

		// Corrector: centre towards σμ and cancel the predictor's
		// second-order complementarity terms.
		for i := 0; i < n; i++ {
			p.c1[i] = sigma*mu - p.a[i]*p.s[i] - p.da[i]*p.ds[i]
			p.c2[i] = sigma*mu - p.as[i]*p.t[i] - p.das[i]*p.dt[i]
			p.c3[i] = sigma*mu - (p.c-p.a[i])*p.xi[i] + p.da[i]*p.dxi[i]
			p.c4[i] = sigma*mu - (p.c-p.as[i])*p.xis[i] + p.das[i]*p.dxis[i]
		}
		p.direction(rw, rb)
		step = math.Min(1, ipmStepFrac*p.maxStep())

		for j := range p.w {
			p.w[j] += step * p.dz[j]
		}
		p.b += step * p.dz[d]
		for i := 0; i < n; i++ {
			p.a[i] += step * p.da[i]
			p.as[i] += step * p.das[i]
			p.xi[i] += step * p.dxi[i]
			p.xis[i] += step * p.dxis[i]
			p.s[i] += step * p.ds[i]
			p.t[i] += step * p.dt[i]
		}
	}
	if gap, _ := p.relGap(); gap <= ipmGapTol {
		return it, true
	} else if gap > bestGap || math.IsNaN(gap) {
		copy(p.w, bestW)
		p.b = bestB
	}
	return it, false
}

// factor forms M = diag(1,…,1,0) + Σ G_i x̃_i x̃_iᵀ with x̃ = (x, 1) and
// G_i = α_i/d1_i + α*_i/d2_i the row's eliminated curvature, where
// d1 = s + αξ/(C − α) and d2 = t + α*ξ*/(C − α*). It factors M in place
// into its lower Cholesky factor and reports false if M holds a NaN.
func (p *linearIPM) factor() bool {
	n, d := p.n, p.d
	k := d + 1
	m := p.m
	for i := range m {
		m[i] = 0
	}
	for i := 0; i < n; i++ {
		p.d1[i] = p.s[i] + p.a[i]*p.xi[i]/(p.c-p.a[i])
		p.d2[i] = p.t[i] + p.as[i]*p.xis[i]/(p.c-p.as[i])
		g := p.a[i]/p.d1[i] + p.as[i]/p.d2[i]
		xi := p.x.row(i)
		for r, vr := range xi {
			gv := g * vr
			row := m[r*k : r*k+r+1]
			for col, vc := range xi[:r+1] {
				row[col] += gv * vc
			}
		}
		row := m[d*k : d*k+d+1]
		for col, vc := range xi {
			row[col] += g * vc
		}
		row[d] += g
	}
	for j := 0; j < d; j++ {
		m[j*k+j]++
	}
	return cholesky(m, k)
}

// direction solves the Newton system for the complementarity right-hand
// sides c1..c4 (α s, α* t, (C − α) ξ, (C − α*) ξ*) and the residuals
// (rw, rb, ρ, ρ*), and fills every Δ. Eliminating the row variables gives
// Δα = h_α − (α/d1)·u and Δα* = h_α* + (α*/d2)·u, with u = Δw·x + Δb, so
// (Δw, Δb) solves M·Δz = (Σ h x − rw, Σ h + rb) for h = h_α − h_α*.
func (p *linearIPM) direction(rw []float64, rb float64) {
	n, d := p.n, p.d
	for j := 0; j < d; j++ {
		p.rhs[j] = -rw[j]
	}
	p.rhs[d] = rb
	for i := 0; i < n; i++ {
		q, qs := p.c-p.a[i], p.c-p.as[i]
		// The slack residual enters the complementarity row: Δs = u + Δξ + ρ.
		p.da[i] = (p.c1[i] - p.a[i]*p.rho[i] - p.a[i]*p.c3[i]/q) / p.d1[i]
		p.das[i] = (p.c2[i] - p.as[i]*p.rhos[i] - p.as[i]*p.c4[i]/qs) / p.d2[i]
		h := p.da[i] - p.das[i]
		for j, v := range p.x.row(i) {
			p.rhs[j] += h * v
		}
		p.rhs[d] += h
	}
	cholSolve(p.m, d+1, p.rhs, p.dz)
	for i := 0; i < n; i++ {
		u := p.dz[d]
		for j, v := range p.x.row(i) {
			u += p.dz[j] * v
		}
		p.da[i] -= p.a[i] / p.d1[i] * u
		p.das[i] += p.as[i] / p.d2[i] * u
		p.dxi[i] = (p.c3[i] + p.xi[i]*p.da[i]) / (p.c - p.a[i])
		p.dxis[i] = (p.c4[i] + p.xis[i]*p.das[i]) / (p.c - p.as[i])
		p.ds[i] = u + p.dxi[i] + p.rho[i]
		p.dt[i] = -u + p.dxis[i] + p.rhos[i]
	}
}

// maxStep returns the largest step in (0, ∞) that keeps every bounded
// variable non-negative: α, α*, C − α, C − α*, ξ, ξ*, s and t.
func (p *linearIPM) maxStep() float64 {
	step := math.Inf(1)
	limit := func(v, dv float64) {
		if dv < 0 {
			if r := -v / dv; r < step {
				step = r
			}
		}
	}
	for i := 0; i < p.n; i++ {
		limit(p.a[i], p.da[i])
		limit(p.as[i], p.das[i])
		limit(p.c-p.a[i], -p.da[i])
		limit(p.c-p.as[i], -p.das[i])
		limit(p.xi[i], p.dxi[i])
		limit(p.xis[i], p.dxis[i])
		limit(p.s[i], p.ds[i])
		limit(p.t[i], p.dt[i])
	}
	return math.Min(step, 1)
}

// relGap certifies the current iterate and leaves f = w·x + b for it. It
// returns the relative gap and its scale max(1, |P|), and evaluates the
// primal objective
// at (w, b) with the optimal slacks ξ = max(0, |y − f| − ε), and the dual
// objective Σ yβ − ε‖β‖₁ − ½‖Σ βx‖² at the multipliers made exactly
// feasible (Σ β = 0, |β| ≤ C). Weak duality makes every such pair a bound
// on the optimum, so (P − D) / max(1, |P|) bounds the relative error of P.
func (p *linearIPM) relGap() (gap, scale float64) {
	n, d := p.n, p.d
	for i := range p.f {
		v := p.b
		for j, x := range p.x.row(i) {
			v += p.w[j] * x
		}
		p.f[i] = v
	}
	primal := 0.0
	for _, v := range p.w {
		primal += v * v / 2
	}
	for i, y := range p.ys {
		primal += p.c * math.Max(0, math.Abs(y-p.f[i])-p.eps)
	}

	// Spread the rounding residue of Σβ over each row's room towards the
	// bound it moves to, so β stays in [−C, C].
	beta := p.beta
	sum, room := 0.0, 0.0
	for i := range beta {
		beta[i] = p.a[i] - p.as[i]
		sum += beta[i]
	}
	for _, b := range beta {
		if sum > 0 {
			room += b + p.c
		} else {
			room += p.c - b
		}
	}
	v := make([]float64, d)
	dual := 0.0
	for i := 0; i < n; i++ {
		b := beta[i]
		if sum > 0 {
			b -= sum * (b + p.c) / room
		} else if sum < 0 {
			b -= sum * (p.c - b) / room
		}
		dual += p.ys[i]*b - p.eps*math.Abs(b)
		for j, x := range p.x.row(i) {
			v[j] += b * x
		}
	}
	for _, x := range v {
		dual -= x * x / 2
	}
	scale = math.Max(1, math.Abs(primal))
	return (primal - dual) / scale, scale
}

// cholesky factors the symmetric positive definite k×k matrix m (row-major,
// lower triangle read) into its lower Cholesky factor in place. Near the
// optimum M is dominated by the rows on the tube edge, and with fewer such
// rows than weights it is numerically singular: a pivot that cancels to
// 1e-14 of its diagonal is replaced by 1e128, which drops that direction
// from the step (Wright, SIAM J. Optim. 9(4), 1999). The residuals carried
// into the next iteration correct the inexact step. It reports false only
// on a NaN.
func cholesky(m []float64, k int) bool {
	for j := 0; j < k; j++ {
		diag := m[j*k+j]
		s := diag
		for t := 0; t < j; t++ {
			s -= m[j*k+t] * m[j*k+t]
		}
		if math.IsNaN(s) {
			return false
		}
		if !(s > 1e-14*diag) {
			s = 1e128
		}
		s = math.Sqrt(s)
		m[j*k+j] = s
		for i := j + 1; i < k; i++ {
			v := m[i*k+j]
			for t := 0; t < j; t++ {
				v -= m[i*k+t] * m[j*k+t]
			}
			m[i*k+j] = v / s
		}
	}
	return true
}

// cholSolve solves L Lᵀ x = r for the factor L from cholesky.
func cholSolve(l []float64, k int, r, x []float64) {
	for i := 0; i < k; i++ {
		v := r[i]
		for t := 0; t < i; t++ {
			v -= l[i*k+t] * x[t]
		}
		x[i] = v / l[i*k+i]
	}
	for i := k - 1; i >= 0; i-- {
		v := x[i]
		for t := i + 1; t < k; t++ {
			v -= l[t*k+i] * x[t]
		}
		x[i] = v / l[i*k+i]
	}
}
