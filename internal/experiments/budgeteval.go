package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
)

// The budget experiment evaluates the fleet energy-budget governor
// (internal/budget) end to end on both GPU profiles: a synthetic fleet of
// nodes with distinct kernel mixes, per-kernel Pareto fronts predicted by
// a freshly trained engine, and a sweep of budget totals from tight to
// unconstrained. At every budget point the governor (best-of-three) is
// compared against its two baselines — uniform-cap and per-device-greedy —
// on the allocator's own objective (predicted fleet speedup) and on the
// *measured* objectives of the chosen configurations, the same
// predicted-vs-measured discipline as the policy evaluation.

// budgetEvalNodes is how many synthetic nodes the fleet holds; each node
// runs a disjoint slice of the twelve test benchmarks with a skewed mix.
const budgetEvalNodes = 4

// budgetEvalFractions are the evaluated budget totals as fractions of the
// fleet's default-clock cost (= node count, since one default-clock node
// costs 1.0 in either unit). The low end is deliberately below typical
// floor costs to exercise the infeasible path.
var budgetEvalFractions = []float64{0.6, 0.75, 0.9, 1.0}

// budgetEvalUnits are the budget units the sweep covers.
var budgetEvalUnits = []string{budget.UnitPower, budget.UnitEnergy}

// BudgetEvalArm is one solver's result at one budget point.
type BudgetEvalArm struct {
	// Name is the arm label: "governor", "uniform-cap" or
	// "per-device-greedy". Strategy is the internal strategy that produced
	// the allocation — for the governor, whichever of its three arms won.
	Name     string
	Strategy string
	Feasible bool
	// PredictedSpeedup and Cost are the plan's objective and budgeted
	// total (predicted, what the allocator optimizes).
	PredictedSpeedup float64
	Cost             float64
	// MeasuredSpeedup and MeasuredCost re-score the chosen configurations
	// at their measured objectives.
	MeasuredSpeedup float64
	MeasuredCost    float64
}

// BudgetEvalPoint is one (unit, budget total) evaluation: the three arms
// side by side.
type BudgetEvalPoint struct {
	Unit     string
	Fraction float64
	Budget   float64
	Arms     []BudgetEvalArm
}

// BudgetEvalTable is one device's full budget sweep.
type BudgetEvalTable struct {
	Device string
	// Model records which model version produced the fronts.
	Model Provenance
	// Nodes and Kernels describe the synthetic fleet; DefaultCost is the
	// fleet's cost at default clocks (the fraction denominator).
	Nodes       int
	Kernels     int
	DefaultCost float64
	Points      []BudgetEvalPoint
}

// budgetEvalFleet builds the synthetic fleet: each node gets three
// consecutive test benchmarks with a 0.5/0.3/0.2 mix, so mixes are
// skewed, disjoint across nodes, and each node's weights sum to 1.
func budgetEvalFleet(fronts map[string][]core.Prediction) []budget.Item {
	benches := bench.All()
	weights := []float64{0.5, 0.3, 0.2}
	var items []budget.Item
	for n := 0; n < budgetEvalNodes; n++ {
		node := fmt.Sprintf("node-%c", 'a'+n)
		for j, w := range weights {
			b := benches[(n*len(weights)+j)%len(benches)]
			items = append(items, budget.Item{
				Node:   node,
				Kernel: b.Name,
				Weight: w,
				Front:  fronts[b.Name],
			})
		}
	}
	return items
}

// BudgetEval runs the budget-governor evaluation on both GPU profiles,
// training a fresh engine per device with the given options.
func BudgetEval(opts engine.Options) ([]BudgetEvalTable, error) {
	var out []BudgetEvalTable
	for _, dev := range []*gpu.Device{gpu.TitanX(), gpu.P100()} {
		tbl, err := BudgetEvalForDevice(dev, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	return out, nil
}

// BudgetEvalForDevice trains on the given device, predicts every test
// benchmark's Pareto front over the paper's 40-setting evaluation sample,
// and sweeps the budget grid with all three solvers.
func BudgetEvalForDevice(dev *gpu.Device, opts engine.Options) (BudgetEvalTable, error) {
	h := measure.NewHarness(nvml.NewDevice(dev))
	eng := engine.New(h, opts)
	if _, err := eng.Train(context.Background(), engine.TrainingKernels()); err != nil {
		return BudgetEvalTable{}, fmt.Errorf("experiments: budget eval training on %s: %w", dev.Name, err)
	}
	pred, err := eng.Predictor()
	if err != nil {
		return BudgetEvalTable{}, err
	}
	prov, err := ProvenanceFor(dev.Name, eng.Models(), "")
	if err != nil {
		return BudgetEvalTable{}, err
	}
	sampled := dev.Ladder.TrainingSample(40)

	// Predicted fronts and measured ground truth per benchmark. Chosen
	// configurations always come from the sampled sweep, so measuring the
	// sample once per benchmark covers every lookup below.
	fronts := make(map[string][]core.Prediction, len(bench.All()))
	measured := make(map[string]map[freq.Config]measure.Relative, len(bench.All()))
	for _, b := range bench.All() {
		fronts[b.Name] = pred.ParetoSetOver(b.Features(), sampled)
		base, err := h.Baseline(b.Profile())
		if err != nil {
			return BudgetEvalTable{}, err
		}
		m := make(map[freq.Config]measure.Relative, len(sampled))
		for _, cfg := range sampled {
			rel, err := h.MeasureRelative(b.Profile(), cfg, base)
			if err != nil {
				return BudgetEvalTable{}, err
			}
			m[cfg] = rel
		}
		measured[b.Name] = m
	}

	items := budgetEvalFleet(fronts)
	kernels := make(map[string]bool)
	defaultCost := 0.0
	for _, it := range items {
		kernels[it.Kernel] = true
		defaultCost += it.Weight // default clocks: speedup = energy = 1
	}

	tbl := BudgetEvalTable{
		Device:      dev.Name,
		Model:       prov,
		Nodes:       budgetEvalNodes,
		Kernels:     len(kernels),
		DefaultCost: defaultCost,
	}
	arms := []struct {
		name  string
		solve func([]budget.Item, budget.Budget) (budget.Plan, error)
	}{
		{"governor", budget.Solve},
		{"uniform-cap", budget.SolveUniform},
		{"per-device-greedy", budget.SolvePerDevice},
	}
	for _, unit := range budgetEvalUnits {
		for _, frac := range budgetEvalFractions {
			b := budget.Budget{Total: frac * defaultCost, Unit: unit}
			pt := BudgetEvalPoint{Unit: unit, Fraction: frac, Budget: b.Total}
			for _, arm := range arms {
				plan, err := arm.solve(items, b)
				if err != nil {
					return BudgetEvalTable{}, fmt.Errorf("experiments: %s budget %s %.3g %s: %w",
						dev.Name, unit, b.Total, arm.name, err)
				}
				a := BudgetEvalArm{
					Name:             arm.name,
					Strategy:         plan.Strategy,
					Feasible:         plan.Feasible,
					PredictedSpeedup: plan.FleetSpeedup,
					Cost:             plan.Cost,
				}
				for _, alloc := range plan.Allocations {
					rel, ok := measured[alloc.Kernel][alloc.Chosen.Config]
					if !ok {
						return BudgetEvalTable{}, fmt.Errorf("experiments: chosen config %v for %s not in sampled sweep",
							alloc.Chosen.Config, alloc.Kernel)
					}
					a.MeasuredSpeedup += alloc.Weight * rel.Speedup
					cost := rel.NormEnergy
					if unit == budget.UnitPower {
						cost *= rel.Speedup
					}
					a.MeasuredCost += alloc.Weight * cost
				}
				pt.Arms = append(pt.Arms, a)
			}
			tbl.Points = append(tbl.Points, pt)
		}
	}
	return tbl, nil
}

// GovernorDominates reports whether the governor's predicted fleet speedup
// is at least both baselines' at every budget point of the table — the
// allocator's best-of-three guarantee, checked empirically end to end.
func (t BudgetEvalTable) GovernorDominates() bool {
	for _, pt := range t.Points {
		var gov float64
		for _, a := range pt.Arms {
			if a.Name == "governor" {
				gov = a.PredictedSpeedup
			}
		}
		for _, a := range pt.Arms {
			if a.Name != "governor" && a.PredictedSpeedup > gov+1e-9 {
				return false
			}
		}
	}
	return true
}

// RenderBudgetEval prints the budget sweep for every evaluated device.
func RenderBudgetEval(w io.Writer, tables []BudgetEvalTable) {
	fmt.Fprintln(w, "Fleet budget governor: predicted and measured fleet speedup vs baselines")
	for _, tbl := range tables {
		fmt.Fprintf(w, "  %s — %d nodes, %d kernels, default-clock cost %.2f\n",
			tbl.Device, tbl.Nodes, tbl.Kernels, tbl.DefaultCost)
		fmt.Fprintf(w, "  model: %s\n", tbl.Model)
		fmt.Fprintf(w, "  %-7s %8s  %-18s %9s %9s %9s %9s  %s\n",
			"unit", "budget", "arm", "pred spd", "cost", "meas spd", "meas cost", "")
		for _, pt := range tbl.Points {
			for i, a := range pt.Arms {
				unit, bud := "", ""
				if i == 0 {
					unit = pt.Unit
					bud = fmt.Sprintf("%.3f", pt.Budget)
				}
				note := ""
				if !a.Feasible {
					note = "[infeasible: floor]"
				} else if a.Name == "governor" {
					note = "via " + a.Strategy
				}
				fmt.Fprintf(w, "  %-7s %8s  %-18s %9.4f %9.4f %9.4f %9.4f  %s\n",
					unit, bud, a.Name, a.PredictedSpeedup, a.Cost, a.MeasuredSpeedup, a.MeasuredCost, note)
			}
		}
		verdict := "yes"
		if !tbl.GovernorDominates() {
			verdict = "NO — best-of-three violated"
		}
		fmt.Fprintf(w, "  governor ≥ both baselines at every budget point (%s): %s\n", tbl.Device, verdict)
	}
}
