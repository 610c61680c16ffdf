package budget

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/freq"
)

// solveUniformScan is the reference uniform-cap arm: it re-costs the whole
// fleet at every candidate cap and keeps the last affordable one, O(P²) in
// total front points. SolveUniform must reproduce its plans exactly.
func solveUniformScan(items []Item, b Budget) (Plan, error) {
	prep, err := prepare(items, b)
	if err != nil {
		return Plan{}, err
	}
	var caps []float64
	for i := range prep {
		for _, p := range prep[i].front {
			caps = append(caps, b.unitCost(p))
		}
	}
	sort.Float64s(caps)
	best := -1.0
	for _, c := range caps {
		if uniformCost(prep, b, c) <= b.Total {
			best = c
		}
	}
	for i := range prep {
		prep[i].chosen = uniformChoice(&prep[i], b, best)
	}
	return planFrom(prep, b, StrategyUniform), nil
}

// solveScan is Solve with the reference uniform arm: the same best-of-three
// selection over greedy, the scanned uniform cap, and per-device greedy.
func solveScan(items []Item, b Budget) (Plan, error) {
	best, err := SolveGreedy(items, b)
	if err != nil {
		return Plan{}, err
	}
	for _, arm := range []func([]Item, Budget) (Plan, error){solveUniformScan, SolvePerDevice} {
		cand, err := arm(items, b)
		if err != nil {
			return Plan{}, err
		}
		if cand.FleetSpeedup > best.FleetSpeedup ||
			(cand.FleetSpeedup == best.FleetSpeedup && cand.Cost < best.Cost) {
			best = cand
		}
	}
	return best, nil
}

// assertMatchesScan fails unless SolveUniform and Solve return plans
// deep-equal to their reference counterparts.
func assertMatchesScan(t *testing.T, label string, items []Item, b Budget) {
	t.Helper()
	for _, pair := range []struct {
		name      string
		got, want func([]Item, Budget) (Plan, error)
	}{
		{"uniform", SolveUniform, solveUniformScan},
		{"solve", Solve, solveScan},
	} {
		got, err := pair.got(items, b)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, pair.name, err)
		}
		want, err := pair.want(items, b)
		if err != nil {
			t.Fatalf("%s: %s reference: %v", label, pair.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			dump(t, items, b)
			t.Fatalf("%s: %s plan differs from the linear-scan reference:\n got %+v\nwant %+v", label, pair.name, got, want)
		}
	}
}

// TestSolveUniformMatchesLinearScan: the binary-searched cap yields the
// same plans as the linear scan across the randomized battery.
func TestSolveUniformMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < trials; i++ {
		items := randFleet(rng)
		assertMatchesScan(t, "trial", items, randBudget(rng, items))
	}
}

// TestSolveUniformEdgeCases pins the binary search at its boundaries.
func TestSolveUniformEdgeCases(t *testing.T) {
	point := func(s, e float64, c freq.MHz) core.Prediction {
		return core.Prediction{Config: freq.Config{Mem: 3505, Core: c}, Speedup: s, NormEnergy: e}
	}
	twoStep := []core.Prediction{point(0.5, 0.6, 600), point(0.8, 0.8, 900), point(1, 1, 1001)}

	t.Run("budget equals a cap's total cost", func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 20; trial++ {
			items := randFleet(rng)
			for _, unit := range []string{UnitPower, UnitEnergy} {
				b := Budget{Unit: unit}
				prep, err := prepare(items, b)
				if err != nil {
					t.Fatal(err)
				}
				for i := range prep {
					for _, p := range prep[i].front {
						b.Total = uniformCost(prep, b, b.unitCost(p))
						assertMatchesScan(t, "exact budget", items, b)
						got, _ := SolveUniform(items, b)
						if !got.Feasible || got.Cost > b.Total {
							t.Fatalf("budget %g at a cap's exact cost: cost %g, feasible %v", b.Total, got.Cost, got.Feasible)
						}
					}
				}
			}
		}
	})
	t.Run("infeasible budget", func(t *testing.T) {
		items := []Item{{Node: "n", Kernel: "k", Weight: 1, Front: twoStep}}
		b := Budget{Total: 0.1}
		assertMatchesScan(t, "infeasible", items, b)
		got, _ := SolveUniform(items, b)
		if got.Feasible || got.Allocations[0].Chosen != twoStep[0] {
			t.Fatalf("below-floor budget: %+v", got)
		}
	})
	t.Run("equal unit costs on different items", func(t *testing.T) {
		items := []Item{
			{Node: "a", Kernel: "k", Weight: 0.5, Front: twoStep},
			{Node: "b", Kernel: "k", Weight: 0.5, Front: twoStep},
			{Node: "b", Kernel: "j", Weight: 0.5, Front: twoStep},
		}
		for _, total := range []float64{0.3, 0.64, 0.74, 0.96, 1.2, 1.5, 2} {
			assertMatchesScan(t, "equal costs", items, Budget{Total: total})
		}
	})
	t.Run("single-point fronts", func(t *testing.T) {
		items := []Item{
			{Node: "a", Kernel: "k", Weight: 1, Front: []core.Prediction{point(1, 1, 1001)}},
			{Node: "b", Kernel: "k", Weight: 1, Front: []core.Prediction{point(0.7, 0.5, 700)}},
		}
		for _, total := range []float64{0, 0.35, 1.35, 5} {
			assertMatchesScan(t, "single point", items, Budget{Total: total})
		}
	})
	t.Run("empty fleet", func(t *testing.T) {
		assertMatchesScan(t, "empty", nil, Budget{Total: 2})
	})
}
