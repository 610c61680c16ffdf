// Package svm implements ε-support-vector regression with the linear and
// RBF kernels the paper selects for its speedup and normalized-energy
// models (Section 3.4). Linear fits are solved exactly in the primal by an
// interior-point method; every other kernel, RBF or any user-supplied
// Kernel, is trained by a LIBSVM-style SMO solver on the dual. Stdlib only.
package svm

import (
	"fmt"
	"math"
)

// Kernel evaluates a Mercer kernel on two feature vectors.
type Kernel interface {
	// Eval returns K(a, b). Vectors must have equal length.
	Eval(a, b []float64) float64
	// String describes the kernel and its parameters.
	String() string
}

// Linear is the inner-product kernel K(a,b) = a·b, used by the paper for
// speedup modeling (speedup grows linearly with core frequency).
type Linear struct{}

// Eval returns the dot product of a and b.
func (Linear) Eval(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// String names the kernel in logs and reports.
func (Linear) String() string { return "linear" }

// RBF is the Gaussian kernel K(a,b) = exp(-γ‖a−b‖²), used by the paper for
// normalized-energy modeling with γ = 0.1.
type RBF struct {
	Gamma float64
}

// Eval returns exp(-γ‖a−b‖²).
func (k RBF) Eval(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Exp(-k.Gamma * d)
}

// String names the kernel and its bandwidth in logs and reports.
func (k RBF) String() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// rowKernel computes whole kernel-matrix rows over a flat design matrix.
// The solver's row fills go through these specializations instead of
// per-element Kernel.Eval interface dispatch: each row is one tight loop
// over contiguous memory, bit-identical to the per-element kernel so the
// SMO trajectory is unchanged.
type rowKernel interface {
	// fillRow writes K(x_i, x_j) into dst[j] for every j in [lo, hi).
	fillRow(d *designMatrix, i, lo, hi int, dst []float64)
}

// rowKernelFor returns the specialized row filler for the SMO-trained
// built-in kernels and a generic per-element fallback for anything else.
func rowKernelFor(k Kernel) rowKernel {
	switch k := k.(type) {
	case RBF:
		return rbfRows{gamma: k.Gamma}
	default:
		return genericRows{k}
	}
}

type rbfRows struct{ gamma float64 }

func (r rbfRows) fillRow(d *designMatrix, i, lo, hi int, dst []float64) {
	// ‖xi−xj‖² is summed in difference form, bit-identical to RBF.Eval,
	// rather than via precomputed norms (‖xi‖² + ‖xj‖² − 2 xi·xj): the
	// norm form perturbs kernel entries by one ulp, which flips SMO
	// working-pair selections and breaks numerical equivalence with
	// per-element evaluation. The exp dominates the entry cost either
	// way; the win here is the contiguous whole-row loop without
	// interface dispatch. Prediction, whose accumulation order is its
	// own, does use the norm form (Model.predictRBF).
	xi := d.row(i)
	for j := lo; j < hi; j++ {
		xj := d.row(j)
		q := 0.0
		for t, v := range xi {
			diff := v - xj[t]
			q += diff * diff
		}
		dst[j] = math.Exp(-r.gamma * q)
	}
}

// genericRows preserves the old per-element path for user-supplied kernels.
type genericRows struct{ k Kernel }

func (g genericRows) fillRow(d *designMatrix, i, lo, hi int, dst []float64) {
	xi := d.row(i)
	for j := lo; j < hi; j++ {
		dst[j] = g.k.Eval(xi, d.row(j))
	}
}
