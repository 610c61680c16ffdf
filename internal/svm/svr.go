package svm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Params configures ε-SVR training. The paper uses C = 1000, ε = 0.1 for
// both models, linear kernel for speedup and RBF(γ=0.1) for energy.
type Params struct {
	// C is the box constraint (regularization inverse).
	C float64
	// Epsilon is the insensitive-tube half width.
	Epsilon float64
	// Tol is the SMO KKT violation tolerance for convergence (default
	// 1e-3). The linear interior-point fit does not read it: it stops on a
	// certified relative duality gap of 1e-9.
	Tol float64
	// MaxIter caps SMO iterations; <=0 means 200×n with a floor of 100k.
	// The linear interior-point fit does not read it: it certifies its gap
	// in well under 100 iterations, and a run that reaches that fixed
	// internal limit uncertified reports Converged false.
	MaxIter int
	// CacheRows bounds the kernel row cache in entries (default 768).
	// Each cached row holds one float64 per training sample, so the byte
	// budget of the cache is CacheRows × n × 8: the default over the
	// paper-scale n ≈ 4.3k training set is ~26 MiB. Rows are evicted in
	// true least-recently-used order; values below 2 are clamped to 2 (the
	// solver reads two rows at once), and capacity changes training time
	// but never the trained model.
	CacheRows int
	// DisableShrinking turns off the LIBSVM-style active-set shrinking
	// heuristic (the -h 0 switch of LIBSVM). Shrinking cuts working-set
	// selection from O(2n) to O(active) per iteration and is on by
	// default; the solver always reconstructs the full gradient and
	// re-checks every variable before declaring convergence, so the
	// stopping criterion is identical either way.
	DisableShrinking bool
}

// Model is a trained ε-SVR: f(x) = Σ coef_i·K(sv_i, x) + b. A linear
// model holds its primal weights w as one pseudo support vector with
// coefficient 1, so f(x) = w·x + b.
type Model struct {
	SupportVectors [][]float64
	Coefs          []float64
	B              float64
	kernel         Kernel
	// Iters and Converged describe the training run: interior-point
	// iterations and a certified duality gap for linear models, SMO
	// iterations and the KKT tolerance for every other kernel.
	Iters     int
	Converged bool

	// Prediction fast paths, derived once by finalize: the support
	// vectors are flattened into one contiguous row-major matrix, linear
	// models collapse their expansion into one weight vector, and RBF
	// models precompute ‖sv‖² so every kernel evaluation reduces to a dot
	// product (‖a−b‖² = ‖a‖² + ‖b‖² − 2 a·b). Predict allocates nothing.
	svFlat     []float64
	svDim      int
	linWeights []float64
	svNorms    []float64
}

// finalize derives the kernel-specific prediction fast paths. Train and
// Load call it on every constructed model.
func (m *Model) finalize() {
	nsv := len(m.SupportVectors)
	if nsv == 0 {
		m.svFlat, m.svDim, m.linWeights, m.svNorms = nil, 0, nil, nil
		return
	}
	dim := len(m.SupportVectors[0])
	m.svDim = dim
	m.svFlat = make([]float64, nsv*dim)
	for i, sv := range m.SupportVectors {
		copy(m.svFlat[i*dim:(i+1)*dim], sv)
	}
	// Re-point the public rows into the flat copy: the model then owns its
	// support vectors outright instead of pinning the caller's (possibly
	// much larger, contiguously allocated) training rows for its lifetime,
	// and the data exists once, not twice.
	for i := range m.SupportVectors {
		m.SupportVectors[i] = m.sv(i)
	}
	m.linWeights, m.svNorms = nil, nil
	switch m.kernel.(type) {
	case Linear:
		w := make([]float64, dim)
		for i := 0; i < nsv; i++ {
			c := m.Coefs[i]
			for j, v := range m.sv(i) {
				w[j] += c * v
			}
		}
		m.linWeights = w
	case RBF:
		norms := make([]float64, nsv)
		for i := 0; i < nsv; i++ {
			s := 0.0
			for _, v := range m.sv(i) {
				s += v * v
			}
			norms[i] = s
		}
		m.svNorms = norms
	}
}

// sv returns support vector i from the flattened matrix.
func (m *Model) sv(i int) []float64 {
	return m.svFlat[i*m.svDim : (i+1)*m.svDim : (i+1)*m.svDim]
}

// Predict evaluates the regression function at x. It allocates nothing.
func (m *Model) Predict(x []float64) float64 {
	if m.linWeights != nil {
		s := m.B
		for j, w := range m.linWeights {
			s += w * x[j]
		}
		return s
	}
	if m.svNorms != nil {
		return m.predictRBF(x)
	}
	s := m.B
	for i := range m.Coefs {
		s += m.Coefs[i] * m.kernel.Eval(m.sv(i), x)
	}
	return s
}

// predictRBF evaluates an RBF model over the flattened support-vector
// matrix, reusing the precomputed norms; ‖x‖² is computed once and shared
// across all support vectors.
func (m *Model) predictRBF(x []float64) float64 {
	gamma := m.kernel.(RBF).Gamma
	xn := 0.0
	for _, v := range x {
		xn += v * v
	}
	s := m.B
	for i, c := range m.Coefs {
		sv := m.sv(i)
		dot := 0.0
		for j, v := range sv {
			dot += v * x[j]
		}
		d := m.svNorms[i] + xn - 2*dot
		if d < 0 {
			d = 0 // guard against rounding below zero
		}
		s += c * math.Exp(-gamma*d)
	}
	return s
}

// parallelBatchMin is the batch size above which PredictBatchInto shards
// rows across GOMAXPROCS goroutines. Below it the spawn overhead dominates
// the per-row kernel expansion cost.
const parallelBatchMin = 256

// PredictBatchInto evaluates the model at every row of xs into out (which
// must have len(xs) entries). Rows reuse the kernel-specific fast paths
// prepared by finalize — each row walks the shared flattened support-vector
// matrix with no per-row state — so batches below the parallel threshold
// (256 rows) allocate nothing; larger batches shard across GOMAXPROCS
// goroutines, whose spawns are the only allocations.
func (m *Model) PredictBatchInto(out []float64, xs [][]float64) {
	if len(out) != len(xs) {
		panic(fmt.Sprintf("svm: PredictBatchInto: %d outputs for %d inputs", len(out), len(xs)))
	}
	workers := runtime.GOMAXPROCS(0)
	if len(xs) < parallelBatchMin || workers <= 1 {
		for i, x := range xs {
			out[i] = m.Predict(x)
		}
		return
	}
	if workers > len(xs) {
		workers = len(xs)
	}
	var wg sync.WaitGroup
	chunk := (len(xs) + workers - 1) / workers
	for lo := 0; lo < len(xs); lo += chunk {
		hi := lo + chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = m.Predict(xs[i])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// NumSV returns the number of support vectors.
func (m *Model) NumSV() int { return len(m.SupportVectors) }

// Train fits an ε-SVR on (xs, ys) with the given kernel. The Linear kernel
// is solved in the primal by a primal–dual interior-point method (ipm.go)
// to a certified relative duality gap of 1e-9. Every other kernel runs SMO
// on the standard 2n-variable dual with maximal-violating-pair working-set
// selection, kernel-specialized row computation over a flat design matrix,
// LIBSVM-style active-set shrinking, and an LRU kernel row cache.
func Train(xs [][]float64, ys []float64, k Kernel, p Params) (*Model, error) {
	n := len(xs)
	if n == 0 || len(ys) != n {
		return nil, fmt.Errorf("svm: bad training set: %d xs, %d ys", n, len(ys))
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			return nil, fmt.Errorf("svm: row %d has dim %d, want %d", i, len(x), dim)
		}
	}
	for i, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return nil, fmt.Errorf("svm: target %d is not finite: %v", i, y)
		}
	}
	if p.C <= 0 {
		return nil, errors.New("svm: C must be positive")
	}
	if p.Epsilon < 0 {
		return nil, errors.New("svm: epsilon must be non-negative")
	}
	if p.Tol <= 0 {
		p.Tol = 1e-3
	}
	maxIter := p.MaxIter
	if maxIter <= 0 {
		maxIter = 200 * n
		if maxIter < 100_000 {
			maxIter = 100_000
		}
	}

	if _, ok := k.(Linear); ok {
		lin := trainLinear(xs, ys, p.C, p.Epsilon)
		iters, converged := lin.solve()
		m := &Model{SupportVectors: [][]float64{lin.w}, Coefs: []float64{1}, B: lin.b,
			kernel: k, Iters: iters, Converged: converged}
		m.finalize()
		return m, nil
	}

	s := &solver{
		ys: ys,
		n:  n, c: p.C, eps: p.Epsilon, tol: p.Tol,
		cache: newRowCache(k, newDesignMatrix(xs), p.CacheRows),
	}
	iters, converged := s.solve(maxIter, !p.DisableShrinking)

	// Collect support vectors: beta_i = alpha_i - alpha*_i != 0.
	m := &Model{kernel: k, Iters: iters, Converged: converged}
	for i := 0; i < n; i++ {
		beta := s.alpha[i] - s.alpha[i+n]
		if math.Abs(beta) > 1e-12 {
			m.SupportVectors = append(m.SupportVectors, xs[i])
			m.Coefs = append(m.Coefs, beta)
		}
	}
	m.B = s.offset()
	m.finalize()
	return m, nil
}

// shrinkInterval is how many SMO iterations pass between shrink attempts
// (LIBSVM uses min(l, 1000) for dual dimension l).
const shrinkInterval = 1000

// solver holds SMO state for the 2n-variable ε-SVR dual:
//
//	min ½ αᵀQα + pᵀα  s.t.  zᵀα = 0, 0 ≤ α ≤ C
//
// with, for a < n (the αᵢ block, z=+1): p_a = ε − y_a, and for a ≥ n (the
// αᵢ* block, z=−1): p_a = ε + y_{a−n}; Q_ab = z_a z_b K(x_{a%n}, x_{b%n}).
//
// The active set starts as all 2n variables; shrinking periodically removes
// bound variables that cannot currently be selected, so selectPair and the
// gradient refresh in update cost O(active) instead of O(2n). Gradient
// entries of fully shrunk bases go stale and are reconstructed by unshrink
// before convergence is declared (and before the offset is derived).
type solver struct {
	ys  []float64
	n   int
	c   float64
	eps float64
	tol float64

	alpha []float64 // 2n dual variables
	grad  []float64 // 2n gradient; stale for bases outside activeBases
	cache *rowCache

	// The active set is kept as two ascending lists split by dual block
	// (z=+1 variables a < n, z=−1 variables a ≥ n): iterating the first
	// then the second visits variables in ascending index order — the
	// same tie-breaking order as a full 0..2n scan — without a per-element
	// block branch.
	activePos   []int  // active variables < n, ascending
	activeNeg   []int  // active variables ≥ n, ascending
	activeBases []int  // bases with ≥1 active variable, ascending
	baseActive  []bool // len n, membership mask for activeBases
	fullActive  bool   // active covers all 2n variables
	unshrunk    bool   // the one-time near-convergence unshrink happened
}

func (s *solver) z(a int) float64 {
	if a < s.n {
		return 1
	}
	return -1
}

func (s *solver) p(a int) float64 {
	if a < s.n {
		return s.eps - s.ys[a]
	}
	return s.eps + s.ys[a-s.n]
}

// solve runs SMO until convergence or maxIter, returning (iters, converged).
func (s *solver) solve(maxIter int, shrinking bool) (int, bool) {
	n2 := 2 * s.n
	s.alpha = make([]float64, n2)
	s.grad = make([]float64, n2)
	for a := 0; a < n2; a++ {
		s.grad[a] = s.p(a) // alpha = 0 initially
	}
	s.baseActive = make([]bool, s.n)
	s.activateAll()

	interval := shrinkInterval
	if n2 < interval {
		interval = n2
	}
	counter := interval

	for it := 0; it < maxIter; it++ {
		if shrinking {
			if counter--; counter == 0 {
				counter = interval
				s.shrink()
			}
		}
		i, j, gap := s.selectPair()
		if gap < s.tol {
			if s.fullActive {
				return it, true
			}
			// Converged on the shrunk problem only: reconstruct the
			// stale gradients, restore every variable, and re-check
			// against the full set before declaring convergence.
			s.unshrink()
			counter = 1 // re-shrink on the next iteration (LIBSVM)
			i, j, gap = s.selectPair()
			if gap < s.tol {
				return it, true
			}
		}
		s.update(i, j)
	}
	if !s.fullActive {
		s.unshrink() // offset needs fresh gradients for every variable
	}
	return maxIter, false
}

// activateAll restores the full 2n-variable active set.
func (s *solver) activateAll() {
	n := s.n
	if cap(s.activePos) < n {
		s.activePos = make([]int, n)
		s.activeNeg = make([]int, n)
		s.activeBases = make([]int, n)
	}
	s.activePos = s.activePos[:n]
	s.activeNeg = s.activeNeg[:n]
	s.activeBases = s.activeBases[:n]
	for b := 0; b < n; b++ {
		s.activePos[b] = b
		s.activeNeg[b] = b + n
		s.activeBases[b] = b
		s.baseActive[b] = true
	}
	s.fullActive = true
}

// selectPair picks the working pair with second-order selection (LIBSVM
// WSS2) over the active set: i is the maximal violator in I_up; j maximizes
// the guaranteed objective decrease b²/a among I_low candidates. The
// returned gap is the first-order KKT violation used as the stopping
// criterion.
func (s *solver) selectPair() (int, int, float64) {
	n := s.n
	alpha, grad, c := s.alpha, s.grad, s.c
	up := -1
	upVal := math.Inf(-1)
	// a ∈ I_up: α can still move in the +z direction.
	for _, a := range s.activePos {
		if alpha[a] < c {
			if v := -grad[a]; v > upVal {
				upVal, up = v, a
			}
		}
	}
	for _, a := range s.activeNeg {
		if alpha[a] > 0 {
			if v := grad[a]; v > upVal {
				upVal, up = v, a
			}
		}
	}
	if up < 0 {
		return 0, 0, 0
	}
	upBase := up % n
	rowUp := s.cache.row(upBase)
	kii := rowUp[upBase]
	diags := s.cache.diags

	low := -1
	lowVal := math.Inf(1)
	bestGain := -1.0
	const tau = 1e-12
	// a ∈ I_low: α can still move in the −z direction.
	for _, a := range s.activePos {
		if alpha[a] <= 0 {
			continue
		}
		v := -grad[a]
		if v < lowVal {
			lowVal = v
		}
		if b := upVal - v; b > 0 {
			// at = K_ii + K_tt − 2K_it = ‖φ(x_i) − φ(x_t)‖².
			at := kii + diags[a] - 2*rowUp[a]
			if at <= 0 {
				at = tau
			}
			if gain := b * b / at; gain > bestGain {
				bestGain, low = gain, a
			}
		}
	}
	for _, a := range s.activeNeg {
		if alpha[a] >= c {
			continue
		}
		v := grad[a]
		if v < lowVal {
			lowVal = v
		}
		if b := upVal - v; b > 0 {
			base := a - n
			at := kii + diags[base] - 2*rowUp[base]
			if at <= 0 {
				at = tau
			}
			if gain := b * b / at; gain > bestGain {
				bestGain, low = gain, a
			}
		}
	}
	if low < 0 {
		return 0, 0, 0
	}
	return up, low, upVal - lowVal
}

// update performs the analytic two-variable optimization for pair (i, j),
// then refreshes the gradient of every active base.
func (s *solver) update(i, j int) {
	const tau = 1e-12
	zi, zj := s.z(i), s.z(j)
	rowI := s.cache.row(i % s.n)
	rowJ := s.cache.row(j % s.n)
	kii := rowI[i%s.n]
	kjj := rowJ[j%s.n]
	kij := rowI[j%s.n]

	// In the 2n-variable dual, Q_ab = z_a z_b K_(a%n)(b%n); for both pair
	// kinds the quadratic coefficient reduces to ‖φ(x_i) − φ(x_j)‖².
	quad := kii + kjj - 2*kij
	if quad <= 0 {
		quad = tau
	}
	oldAi, oldAj := s.alpha[i], s.alpha[j]
	if zi != zj {
		delta := (-s.grad[i] - s.grad[j]) / quad
		diff := s.alpha[i] - s.alpha[j]
		s.alpha[i] += delta
		s.alpha[j] += delta
		// Box clipping preserving alpha_i - alpha_j = diff (LIBSVM order).
		if diff > 0 {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = diff
			}
			if s.alpha[i] > s.c {
				s.alpha[i] = s.c
				s.alpha[j] = s.c - diff
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = -diff
			}
			if s.alpha[j] > s.c {
				s.alpha[j] = s.c
				s.alpha[i] = s.c + diff
			}
		}
	} else {
		delta := (s.grad[i] - s.grad[j]) / quad
		sum := s.alpha[i] + s.alpha[j]
		s.alpha[i] -= delta
		s.alpha[j] += delta
		// Box clipping preserving alpha_i + alpha_j = sum (LIBSVM order).
		if sum > s.c {
			if s.alpha[i] > s.c {
				s.alpha[i] = s.c
				s.alpha[j] = sum - s.c
			}
		} else {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = sum
			}
		}
		if sum > s.c {
			if s.alpha[j] > s.c {
				s.alpha[j] = s.c
				s.alpha[i] = sum - s.c
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = sum
			}
		}
	}

	dAi := s.alpha[i] - oldAi
	dAj := s.alpha[j] - oldAj
	if dAi == 0 && dAj == 0 {
		return
	}
	// Gradient update over active bases: G_a += Q_ai dAi + Q_aj dAj,
	// exploiting the block structure Q_ab = z_a z_b K_(a%n)(b%n). Both
	// entries of a base share one kernel term, so updating the pair costs
	// the same as updating either half.
	n := s.n
	grad := s.grad
	for _, base := range s.activeBases {
		ki := rowI[base]
		kj := rowJ[base]
		v := zi*ki*dAi + zj*kj*dAj
		grad[base] += v   // z_a = +1
		grad[base+n] -= v // z_a = -1
	}
}

// shrink removes bound variables that can no longer be selected from the
// active set (LIBSVM do_shrinking): with m = max I_up and M = min I_low of
// the violation values −z·G, an I_up-only variable below M or an
// I_low-only variable above m cannot form a violating pair until the
// gradient landscape shifts, so it is parked until unshrink. Free
// variables always stay active. Near convergence (gap ≤ 10·tol) the full
// gradient is reconstructed once first, so the final rounds shrink from
// exact values.
func (s *solver) shrink() {
	n := s.n
	m := math.Inf(-1)
	M := math.Inf(1)
	for _, a := range s.activePos {
		v := -s.grad[a]
		if s.alpha[a] < s.c && v > m {
			m = v
		}
		if s.alpha[a] > 0 && v < M {
			M = v
		}
	}
	for _, a := range s.activeNeg {
		v := s.grad[a]
		if s.alpha[a] > 0 && v > m {
			m = v
		}
		if s.alpha[a] < s.c && v < M {
			M = v
		}
	}

	if !s.unshrunk && m-M <= 10*s.tol {
		s.unshrunk = true
		s.unshrink()
	}

	keptPos := s.activePos[:0]
	for _, a := range s.activePos {
		if s.keepActive(a, m, M) {
			keptPos = append(keptPos, a)
		}
	}
	s.activePos = keptPos
	keptNeg := s.activeNeg[:0]
	for _, a := range s.activeNeg {
		if s.keepActive(a, m, M) {
			keptNeg = append(keptNeg, a)
		}
	}
	s.activeNeg = keptNeg
	s.fullActive = len(s.activePos)+len(s.activeNeg) == 2*n

	// Rebuild the active base list as the sorted union of the two block
	// lists (both already ascending).
	for b := range s.baseActive {
		s.baseActive[b] = false
	}
	bases := s.activeBases[:0]
	i, j := 0, 0
	for i < len(s.activePos) || j < len(s.activeNeg) {
		var b int
		switch {
		case i >= len(s.activePos):
			b = s.activeNeg[j] - n
			j++
		case j >= len(s.activeNeg) || s.activePos[i] < s.activeNeg[j]-n:
			b = s.activePos[i]
			i++
		case s.activePos[i] == s.activeNeg[j]-n:
			b = s.activePos[i]
			i++
			j++
		default:
			b = s.activeNeg[j] - n
			j++
		}
		bases = append(bases, b)
		s.baseActive[b] = true
	}
	s.activeBases = bases
}

// keepActive reports whether variable a must stay active given the current
// maximal violation bounds m (max over I_up) and M (min over I_low).
func (s *solver) keepActive(a int, m, M float64) bool {
	atLower := s.alpha[a] == 0
	atUpper := s.alpha[a] == s.c
	if !atLower && !atUpper {
		return true // free variables always participate
	}
	var v float64 // −z·G, the violation value
	if a < s.n {
		v = -s.grad[a]
	} else {
		v = s.grad[a]
	}
	// A bound variable sits in exactly one of I_up / I_low.
	inUp := (a < s.n && !atUpper) || (a >= s.n && !atLower)
	if inUp {
		return v >= M
	}
	return v <= m
}

// unshrink reconstructs the stale gradient entries of every fully shrunk
// base and restores the full active set. Reconstruction exploits the block
// structure: G_a = p_a + z_a f_(a%n) with f_i = Σ_j β_j K_ij, accumulated
// column-wise with one cached kernel row per nonzero β.
func (s *solver) unshrink() {
	n := s.n
	if len(s.activeBases) < n {
		stale := make([]int, 0, n-len(s.activeBases))
		for b := 0; b < n; b++ {
			if !s.baseActive[b] {
				stale = append(stale, b)
			}
		}
		f := make([]float64, n)
		for j := 0; j < n; j++ {
			beta := s.alpha[j] - s.alpha[j+n]
			if beta == 0 {
				continue
			}
			row := s.cache.row(j)
			for _, b := range stale {
				f[b] += beta * row[b]
			}
		}
		for _, b := range stale {
			s.grad[b] = s.p(b) + f[b]
			s.grad[b+n] = s.p(b+n) - f[b]
		}
	}
	s.activateAll()
}

// offset derives the bias term b of f(x) = Σβ K + b from the KKT
// conditions: for interior variables z_a G_a is the equality multiplier; b
// is its negation. Falls back to the feasible-interval midpoint when no
// variable is strictly inside the box.
func (s *solver) offset() float64 {
	n2 := 2 * s.n
	sum, cnt := 0.0, 0
	lo, hi := math.Inf(-1), math.Inf(1)
	for a := 0; a < n2; a++ {
		v := s.z(a) * s.grad[a]
		switch {
		case s.alpha[a] > 0 && s.alpha[a] < s.c:
			sum += v
			cnt++
		case s.alpha[a] == 0:
			// G - b' z >= 0 where b' is the multiplier: z G >= b' if z>0...
			if s.z(a) > 0 {
				hi = math.Min(hi, v)
			} else {
				lo = math.Max(lo, v)
			}
		default: // alpha == C
			if s.z(a) > 0 {
				lo = math.Max(lo, v)
			} else {
				hi = math.Min(hi, v)
			}
		}
	}
	var mult float64
	if cnt > 0 {
		mult = sum / float64(cnt)
	} else {
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			mult = 0
		case math.IsInf(lo, -1):
			mult = hi
		case math.IsInf(hi, 1):
			mult = lo
		default:
			mult = (lo + hi) / 2
		}
	}
	return -mult
}
