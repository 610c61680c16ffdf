// Package pareto implements the multi-objective machinery of the paper
// (Sections 3.4 and 4.5) for the bi-objective (speedup, normalized energy)
// problem: Pareto dominance (maximize speedup, minimize energy), the paper's
// simple Pareto-set algorithm (Algorithm 1) as the reference, the in-place
// O(n log n) front rule every caller uses (FrontInPlace), the 2-D
// hypervolume indicator, the binary coverage-difference metric D(P*, P')
// used in Table 2, and extreme-point distances.
package pareto

import (
	"math"
	"slices"
	"sort"
)

// Point is one kernel execution in objective space: Speedup is maximized,
// Energy (normalized energy) is minimized. ID optionally tags the point
// (e.g. the frequency configuration index) through set operations.
type Point struct {
	Speedup float64
	Energy  float64
	ID      int
}

// Dominates reports whether a ≺ b under the paper's definition:
// (s_a ≥ s_b ∧ e_a < e_b) ∨ (s_a > s_b ∧ e_a ≤ e_b).
func Dominates(a, b Point) bool {
	if a.Speedup >= b.Speedup && a.Energy < b.Energy {
		return true
	}
	if a.Speedup > b.Speedup && a.Energy <= b.Energy {
		return true
	}
	return false
}

// Simple computes the Pareto set with the paper's Algorithm 1: repeatedly
// pop a candidate and compare against the remaining points. O(n²) worst
// case but straightforward; kept verbatim as the reference implementation.
func Simple(points []Point) []Point {
	pending := append([]Point(nil), points...)
	var front []Point
	for len(pending) > 0 {
		candidate := pending[0]
		pending = pending[1:]
		dominated := false
		var rest []Point
		for _, p := range pending {
			if Dominates(p, candidate) {
				dominated = true
			}
			if !Dominates(candidate, p) {
				rest = append(rest, p)
			}
		}
		pending = rest
		if !dominated {
			// Not dominated by any remaining point; check against the
			// front built so far (handles duplicates and earlier winners).
			ok := true
			for _, f := range front {
				if Dominates(f, candidate) {
					ok = false
					break
				}
			}
			if ok {
				front = append(front, candidate)
			}
		}
	}
	sortFront(front)
	return front
}

// FrontInPlace compacts ps to its Pareto set and returns the set's length
// n: afterwards ps[:n] holds the front in ascending-speedup order and the
// rest of ps is unspecified. It is the one front rule every caller uses,
// and it returns the same set as Algorithm 1 (Simple) in O(n log n)
// without allocating: sort descending by speedup (ascending energy breaks
// ties), keep each equal-speedup group's minimal-energy members when they
// improve on the running energy minimum, then reverse into ascending
// order. Exact ties in both objectives are all front members, per the
// paper's non-strict dominance. A caller that needs its input afterwards
// passes a copy.
func FrontInPlace(ps []Point) int {
	slices.SortFunc(ps, func(a, b Point) int {
		switch {
		case a.Speedup > b.Speedup:
			return -1
		case a.Speedup < b.Speedup:
			return 1
		case a.Energy < b.Energy:
			return -1
		case a.Energy > b.Energy:
			return 1
		}
		return 0
	})
	bestE := math.Inf(1)
	m := 0
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].Speedup == ps[i].Speedup {
			j++
		}
		if ps[i].Energy < bestE {
			bestE = ps[i].Energy
			for k := i; k < j && ps[k].Energy == bestE; k++ {
				ps[m] = ps[k]
				m++
			}
		}
		i = j
	}
	for a, b := 0, m-1; a < b; a, b = a+1, b-1 {
		ps[a], ps[b] = ps[b], ps[a]
	}
	return m
}

func sortFront(front []Point) {
	sort.Slice(front, func(i, j int) bool {
		if front[i].Speedup != front[j].Speedup {
			return front[i].Speedup < front[j].Speedup
		}
		return front[i].Energy < front[j].Energy
	})
}

// RefPoint is the hypervolume reference point the paper uses for Table 2:
// speedup 0.0 (worst) and normalized energy 2.0 (worst).
var RefPoint = Point{Speedup: 0, Energy: 2}

// Hypervolume computes the 2-D dominated hypervolume of the point set with
// respect to ref (speedup maximized, energy minimized): the area of the
// union of rectangles [0→s_i] × [e_i→e_ref]. Points outside the reference
// box contribute only their clipped part.
func Hypervolume(points []Point, ref Point) float64 {
	front := slices.Clone(points)
	front = front[:FrontInPlace(front)]
	// Sweep from the highest-speedup point down. Along the front, energy
	// strictly improves as speedup drops, so each point contributes the
	// rectangle between the next point's speedup (or the reference) and
	// its own speedup, at its own energy level.
	hv := 0.0
	for i := len(front) - 1; i >= 0; i-- {
		p := front[i]
		if p.Speedup <= ref.Speedup || p.Energy >= ref.Energy {
			continue
		}
		nextS := ref.Speedup
		if i > 0 {
			nextS = math.Max(front[i-1].Speedup, ref.Speedup)
		}
		if p.Speedup > nextS {
			hv += (p.Speedup - nextS) * (ref.Energy - p.Energy)
		}
	}
	return hv
}

// CoverageDifference is the binary hypervolume metric of Table 2:
// D(P*, P') = HV(P* ∪ P') − HV(P'), the volume dominated by the reference
// set but missed by the approximation. 0 means the approximation covers
// everything the reference front covers.
func CoverageDifference(ref, approx []Point) float64 {
	union := append(append([]Point(nil), ref...), approx...)
	d := Hypervolume(union, RefPoint) - Hypervolume(approx, RefPoint)
	if d < 0 {
		return 0 // numerical guard: union can never dominate less
	}
	return d
}

// Extremes returns the maximum-speedup point and the minimum-energy point
// of the set (the paper's two "extreme configurations"). Ties break toward
// the better other objective. ok is false for an empty set.
func Extremes(points []Point) (maxSpeedup, minEnergy Point, ok bool) {
	if len(points) == 0 {
		return Point{}, Point{}, false
	}
	maxSpeedup, minEnergy = points[0], points[0]
	for _, p := range points[1:] {
		if p.Speedup > maxSpeedup.Speedup ||
			(p.Speedup == maxSpeedup.Speedup && p.Energy < maxSpeedup.Energy) {
			maxSpeedup = p
		}
		if p.Energy < minEnergy.Energy ||
			(p.Energy == minEnergy.Energy && p.Speedup > minEnergy.Speedup) {
			minEnergy = p
		}
	}
	return maxSpeedup, minEnergy, true
}

// ExtremeDistance reports the per-objective absolute distances between the
// corresponding extreme points of the reference and approximation sets, as
// the (Δspeedup, Δenergy) pairs of Table 2.
type ExtremeDistance struct {
	MaxSpeedupDS, MaxSpeedupDE float64
	MinEnergyDS, MinEnergyDE   float64
}

// ExtremesDistance computes the extreme-point distances between the true
// set and the approximation. ok is false if either set is empty.
func ExtremesDistance(ref, approx []Point) (ExtremeDistance, bool) {
	rMax, rMin, ok1 := Extremes(ref)
	aMax, aMin, ok2 := Extremes(approx)
	if !ok1 || !ok2 {
		return ExtremeDistance{}, false
	}
	return ExtremeDistance{
		MaxSpeedupDS: math.Abs(rMax.Speedup - aMax.Speedup),
		MaxSpeedupDE: math.Abs(rMax.Energy - aMax.Energy),
		MinEnergyDS:  math.Abs(rMin.Speedup - aMin.Speedup),
		MinEnergyDE:  math.Abs(rMin.Energy - aMin.Energy),
	}, true
}
