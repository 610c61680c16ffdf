package svm

import (
	"fmt"
	"math"
)

// Sweep is a model prepared to predict many rows that share a leading
// segment: the row head ++ tails[j] for every tail j. The prediction
// phase's ladder sweep has this shape — one kernel's static features
// followed by each configuration's normalized (core, mem) pair — and the
// built-in kernels split over it:
//
//   - Linear: w·x = w[:split]·head + w[split:]·tail, so the head's dot
//     product is taken once and each tail adds its own terms. The terms
//     are summed in Predict's order, so a linear sweep is bit-identical
//     to Predict.
//   - RBF: exp(-γ‖x−sv‖²) = exp(-γ‖head−sv[:split]‖²)·exp(-γ‖tail−sv[split:]‖²).
//     The tail factor, times the support vector's coefficient, is tabled
//     for every (support vector, tail) pair when the sweep is built, so a
//     sweep costs one exp per support vector instead of one per
//     (support vector, tail) pair.
//   - Any other Kernel: Predict on the concatenated row.
//
// A Sweep is immutable once built and safe for concurrent use. It matches
// Predict on the concatenated row up to floating-point rounding.
type Sweep struct {
	m     *Model
	split int
	ntail int
	tdim  int
	tails []float64 // flat row-major copy of the tails, ntail × tdim
	// tab is the RBF table, row-major nsv × ntail:
	// c_i·exp(-γ‖tail_j−sv_i[split:]‖²); nil for other kernels.
	tab []float64
}

// NewSweep prepares m to predict at head ++ tails[j] for every j, where
// head has split entries. It panics when split and the tails do not add up
// to the model's input dimension.
func (m *Model) NewSweep(split int, tails [][]float64) *Sweep {
	s := &Sweep{m: m, split: split, ntail: len(tails), tdim: m.svDim - split}
	if m.NumSV() == 0 {
		s.tdim = 0 // no support vectors to pin the dimension: the tails agree
		if len(tails) > 0 {
			s.tdim = len(tails[0])
		}
	}
	if split < 0 || s.tdim < 0 {
		panic(fmt.Sprintf("svm: NewSweep: split %d outside [0, %d]", split, m.svDim))
	}
	s.tails = make([]float64, 0, len(tails)*s.tdim)
	for j, t := range tails {
		if len(t) != s.tdim {
			panic(fmt.Sprintf("svm: NewSweep: tail %d has %d entries, want %d", j, len(t), s.tdim))
		}
		s.tails = append(s.tails, t...)
	}
	if k, ok := m.kernel.(RBF); ok {
		s.tab = make([]float64, m.NumSV()*s.ntail)
		for i, c := range m.Coefs {
			svTail := m.sv(i)[split:]
			for j := 0; j < s.ntail; j++ {
				q := 0.0
				for d, v := range s.tail(j) {
					diff := v - svTail[d]
					q += diff * diff
				}
				s.tab[i*s.ntail+j] = c * math.Exp(-k.Gamma*q)
			}
		}
	}
	return s
}

// tail returns tail j as a capacity-clipped view of the flat copy.
func (s *Sweep) tail(j int) []float64 {
	return s.tails[j*s.tdim : (j+1)*s.tdim : (j+1)*s.tdim]
}

// Into writes the model's prediction at head ++ tails[j] into out[j] for
// every tail. out must have one entry per tail and head split entries, or
// Into panics. It allocates nothing for the built-in kernels; other
// kernels build one concatenated row per call.
func (s *Sweep) Into(out, head []float64) {
	if len(out) != s.ntail || len(head) != s.split {
		panic(fmt.Sprintf("svm: Sweep.Into: %d outputs and a %d-entry head for %d tails split at %d",
			len(out), len(head), s.ntail, s.split))
	}
	m := s.m
	if m.NumSV() == 0 {
		for j := range out {
			out[j] = m.B
		}
		return
	}
	switch k := m.kernel.(type) {
	case Linear:
		w := m.linWeights
		h := m.B
		for d, v := range head {
			h += w[d] * v
		}
		wt := w[s.split:]
		for j := range out {
			v := h
			for d, x := range s.tail(j) {
				v += wt[d] * x
			}
			out[j] = v
		}
	case RBF:
		for j := range out {
			out[j] = m.B
		}
		// Support vectors go four to a pass over out, so out is loaded and
		// stored once per four table rows; that traffic, not the
		// multiply-adds, bounds the loop. A zero weight pads the last pass.
		var f [4]float64
		var rows [4][]float64
		nsv := len(m.Coefs)
		for i0 := 0; i0 < nsv; i0 += len(f) {
			for u := range f {
				f[u], rows[u] = 0, s.tab[:s.ntail]
				if i := i0 + u; i < nsv {
					svHead := m.sv(i)[:s.split]
					q := 0.0
					for d, v := range head {
						diff := v - svHead[d]
						q += diff * diff
					}
					f[u], rows[u] = math.Exp(-k.Gamma*q), s.tab[i*s.ntail:(i+1)*s.ntail]
				}
			}
			o := out[:s.ntail]
			r0, r1, r2, r3 := rows[0][:len(o)], rows[1][:len(o)], rows[2][:len(o)], rows[3][:len(o)]
			for j := range o {
				o[j] += f[0]*r0[j] + f[1]*r1[j] + f[2]*r2[j] + f[3]*r3[j]
			}
		}
	default:
		x := make([]float64, s.split+s.tdim)
		copy(x, head)
		for j := range out {
			copy(x[s.split:], s.tail(j))
			out[j] = m.Predict(x)
		}
	}
}
