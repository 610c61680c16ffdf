// Package features builds the paper's feature representation: a ten-element
// static code feature vector extracted from an OpenCL kernel, each component
// normalized over the total instruction count, optionally extended with a
// normalized (core, memory) frequency pair to form the 12-dimensional vector
// the models are trained on (Section 3.2 of the paper).
package features

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/clkernel"
	"repro/internal/freq"
)

// StaticDim is the number of static code features (the paper's k vector).
const StaticDim = clkernel.NumFeatureClasses

// Dim is the full model feature dimension: static features plus the
// normalized core and memory frequencies.
const Dim = StaticDim + 2

// Names lists the static feature names in vector order, matching the
// paper's definition: (int_add, int_mul, int_div, int_bw, float_add,
// float_mul, float_div, sf, gl_access, loc_access).
var Names = []string{
	"int_add", "int_mul", "int_div", "int_bw",
	"float_add", "float_mul", "float_div", "sf",
	"gl_access", "loc_access",
}

// Static is the per-kernel static feature vector: instruction-class shares
// of the total static instruction count. Components sum to at most 1 (the
// remainder is the "other" class excluded from the features but included in
// the normalization denominator).
type Static [StaticDim]float64

// FromCounts converts instruction-class counts to the normalized static
// feature vector. The denominator is the total instruction count including
// the non-feature "other" class, so two codes with the same arithmetic
// intensity but different total sizes map to the same features.
func FromCounts(c clkernel.Counts) Static {
	var s Static
	total := c.Total()
	if total <= 0 {
		return s
	}
	for i := 0; i < StaticDim; i++ {
		s[i] = c.Ops[i] / total
	}
	return s
}

// Extract parses nothing: it counts the given kernel function statically
// (each source instruction once, like the paper's LLVM pass) and normalizes.
func Extract(fn *clkernel.Function, prog *clkernel.Program) Static {
	return FromCounts(clkernel.Count(fn, prog, clkernel.Static))
}

// ExtractSource parses src and extracts static features of its first kernel
// (or the named kernel if name is non-empty).
func ExtractSource(src, name string) (Static, error) {
	prog, err := clkernel.Parse(src)
	if err != nil {
		return Static{}, err
	}
	k := prog.Kernels[0]
	if name != "" {
		k = prog.Kernel(name)
		if k == nil {
			return Static{}, fmt.Errorf("features: kernel %q not found", name)
		}
	}
	return Extract(k, prog), nil
}

// Sum returns the sum of the feature components (the share of counted
// instructions that fall into the ten feature classes).
func (s Static) Sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// Valid reports whether every component is finite and within [0, 1] and the
// component sum does not exceed 1 (modulo rounding).
func (s Static) Valid() bool {
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			return false
		}
	}
	return s.Sum() <= 1+1e-9
}

// String formats the vector with feature names for diagnostics.
func (s Static) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%.3f", Names[i], v)
	}
	b.WriteByte('}')
	return b.String()
}

// Vector is the full 12-dimensional model input: static features followed
// by normalized core and memory frequency.
type Vector [Dim]float64

// Combine appends the normalized frequency configuration to the static
// features, producing the model input vector w = (k, f).
func Combine(s Static, cfg freq.Config) Vector {
	var v Vector
	copy(v[:StaticDim], s[:])
	core, mem := cfg.Normalized()
	v[StaticDim] = core
	v[StaticDim+1] = mem
	return v
}

// Slice returns the vector as a []float64 (a copy).
func (v Vector) Slice() []float64 { return append([]float64(nil), v[:]...) }
