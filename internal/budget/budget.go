// Package budget turns the per-kernel (speedup, energy) Pareto fronts the
// registry publishes into a fleet-level allocation: given a total power (or
// energy) budget for the whole fleet and every node's observed kernel mix,
// it picks one concrete frequency configuration per (node, kernel) that
// maximizes predicted fleet throughput without exceeding the budget.
//
// The paper's artifact is a per-kernel trade-off curve; a datacenter
// optimizes a global objective over many devices at once. This package is
// the bridge: each (node, kernel) pair contributes a weighted copy of its
// kernel's Pareto front, and the allocator solves a multiple-choice
// knapsack over those fronts.
//
// Three strategies are implemented, and Solve returns the best of them so
// the governor never loses to its own baselines:
//
//   - greedy (the governor's core): start every pair at its cheapest front
//     point, convexify each front into upgrade moves, order all moves by
//     marginal utility Δspeedup/Δcost, and spend the budget down the list
//     (skipping moves that no longer fit). Because each front's move
//     ratios strictly decrease and the scan order is budget-independent,
//     raising the budget can only grow the selected move set — the
//     monotonicity the property tests pin.
//   - uniform-cap: one global per-unit cost cap for every pair, the
//     largest cap the budget affords — the "set every device to the same
//     frequency ceiling" baseline operators use today.
//   - per-device-greedy: each node gets its floor cost plus an equal share
//     of the remaining headroom and runs the greedy allocator alone — the
//     "every device optimizes itself" baseline.
//
// All three respect the budget, select only Pareto-optimal points, and are
// deterministic with stable tie-breaking; Solve's best-of-three therefore
// is too, and its predicted fleet speedup is ≥ both baselines by
// construction and monotone in the budget (a maximum of monotone
// functions). A budget below the fleet's floor cost — the cost of running
// everything at the cheapest front points — is infeasible: the plan
// reports Feasible=false and allocates the floor, mirroring the graceful
// constraint fallbacks of internal/policy.
//
// Costs are normalized to one default-clock node: a node running its whole
// mix at default clocks draws exactly 1.0 power units (speedup 1, energy
// 1), so a fleet of N nodes at default clocks draws N. UnitPower budgets
// cap Σ weight·energy·speedup (energy per unit work × work rate = draw);
// UnitEnergy budgets cap Σ weight·energy (joules per interval at fixed
// delivered work).
package budget

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/policy"
)

// Budget units, accepted by Budget.Unit.
const (
	// UnitPower caps normalized fleet power draw: Σ weight·energy·speedup,
	// in units of one default-clock node. The default.
	UnitPower = "power"
	// UnitEnergy caps normalized energy per fixed work interval:
	// Σ weight·energy, in units of one default-clock node's interval energy.
	UnitEnergy = "energy"
)

// Typed validation errors. Every rejection the package produces wraps one
// of these, so callers (and the fuzz harness) can distinguish bad input
// from bugs.
var (
	// ErrBadBudget rejects a non-finite, negative, or unknown-unit budget.
	ErrBadBudget = errors.New("budget: invalid budget")
	// ErrBadItem rejects an allocation item with a non-finite or
	// non-positive weight, a missing node, or an unusable front.
	ErrBadItem = errors.New("budget: invalid item")
	// ErrBadTable rejects a decision-table document that fails validation
	// (see wire.go).
	ErrBadTable = errors.New("budget: invalid decision table")
)

// Budget is the fleet-wide cap the allocator solves under.
type Budget struct {
	// Total is the cap in normalized units (one default-clock node = 1.0;
	// see the unit constants).
	Total float64 `json:"total"`
	// Unit selects what Total caps: "power" (default for "") or "energy".
	Unit string `json:"unit,omitempty"`
}

// WithDefaults resolves an empty unit to UnitPower.
func (b Budget) WithDefaults() Budget {
	if b.Unit == "" {
		b.Unit = UnitPower
	}
	return b
}

// Validate rejects budgets the allocator cannot solve under: NaN or ±Inf
// totals, negative totals, and unknown units. All rejections wrap
// ErrBadBudget.
func (b Budget) Validate() error {
	if math.IsNaN(b.Total) || math.IsInf(b.Total, 0) {
		return fmt.Errorf("%w: total is not finite", ErrBadBudget)
	}
	if b.Total < 0 {
		return fmt.Errorf("%w: total %g is negative", ErrBadBudget, b.Total)
	}
	switch b.WithDefaults().Unit {
	case UnitPower, UnitEnergy:
		return nil
	}
	return fmt.Errorf("%w: unknown unit %q (valid: %s, %s)", ErrBadBudget, b.Unit, UnitPower, UnitEnergy)
}

// unitCost is a point's per-unit-weight cost under the budget's unit.
// Along a Pareto front (speedup and energy both ascending) it is strictly
// increasing for either unit, which the allocator's floor/upgrade
// structure relies on.
func (b Budget) unitCost(p core.Prediction) float64 {
	if b.WithDefaults().Unit == UnitEnergy {
		return p.NormEnergy
	}
	return p.NormEnergy * p.Speedup
}

// Item is one (node, kernel) allocation problem: how much of the node's
// time the kernel accounts for, and the kernel's published Pareto front.
type Item struct {
	// Node identifies the device the kernel runs on; Kernel labels the
	// kernel (diagnostics and stable ordering — two items of one node must
	// have distinct kernel labels).
	Node   string `json:"node"`
	Kernel string `json:"kernel"`
	// Weight is the fraction of the node's time spent in this kernel. A
	// node's weights conventionally sum to 1 so the node draws 1.0
	// normalized power units at default clocks; the allocator only
	// requires each weight to be finite and positive.
	Weight float64 `json:"weight"`
	// Front is the kernel's predicted Pareto set (registry publish-time
	// fronts or a live sweep). Dominated points, non-finite points,
	// non-positive objectives, and mem-L heuristic points (model
	// extrapolations, excluded exactly as internal/policy excludes them by
	// default) are filtered before solving; an item whose front has no
	// usable point is rejected.
	Front []core.Prediction `json:"front"`
}

// validate rejects items the solver cannot price.
func (it Item) validate() error {
	if it.Node == "" {
		return fmt.Errorf("%w: item %q/%q has no node", ErrBadItem, it.Node, it.Kernel)
	}
	if math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) || it.Weight <= 0 {
		return fmt.Errorf("%w: item %s/%s weight %g (want finite and positive)", ErrBadItem, it.Node, it.Kernel, it.Weight)
	}
	if len(it.Front) == 0 {
		return fmt.Errorf("%w: item %s/%s has an empty front", ErrBadItem, it.Node, it.Kernel)
	}
	return nil
}

// usable reports whether a front point may be allocated: finite, positive
// objectives, and not the mem-L heuristic extrapolation.
func usable(p core.Prediction) bool {
	for _, v := range [...]float64{p.Speedup, p.NormEnergy} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return false
		}
	}
	return !p.MemLHeuristic
}

// canonFront filters an item's front to its usable, Pareto-optimal points
// in ascending speedup (and therefore ascending energy and unit cost)
// order, deduplicating exact objective ties through the policy package's
// deterministic tie order.
func canonFront(front []core.Prediction) []core.Prediction {
	pts := make([]core.Prediction, 0, len(front))
	for _, p := range front {
		if usable(p) {
			pts = append(pts, p)
		}
	}
	// Sort ascending by speedup, then ascending energy, then the stable
	// config order, so domination is a single linear scan.
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.Speedup != b.Speedup {
			return a.Speedup < b.Speedup
		}
		if a.NormEnergy != b.NormEnergy {
			return a.NormEnergy < b.NormEnergy
		}
		if a.Config.Mem != b.Config.Mem {
			return a.Config.Mem < b.Config.Mem
		}
		return a.Config.Core < b.Config.Core
	})
	// Keep the non-dominated staircase: scanning from the highest speedup
	// down, a point survives only if its energy is strictly below every
	// survivor with higher speedup, and only the first point of an
	// equal-speedup run (lowest energy, then the stable config order)
	// survives — the rest are dominated or exact duplicates.
	out := make([]core.Prediction, 0, len(pts))
	minEnergy := math.Inf(1)
	for i := len(pts) - 1; i >= 0; i-- {
		p := pts[i]
		if p.NormEnergy >= minEnergy {
			continue
		}
		if i > 0 && pts[i-1].Speedup == p.Speedup {
			continue // an equal-speedup predecessor has ≤ energy: dominated
		}
		minEnergy = p.NormEnergy
		out = append(out, p)
	}
	// Reverse into ascending order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Allocation is one (node, kernel) slot of a plan: the front point the
// fleet governor assigned, with its weighted cost and throughput
// contribution.
type Allocation struct {
	// Node and Kernel identify the slot; Weight echoes the item.
	Node   string  `json:"node"`
	Kernel string  `json:"kernel"`
	Weight float64 `json:"weight"`
	// Chosen is the assigned Pareto point; Chosen.Config is the frequency
	// configuration the node should apply while running this kernel.
	Chosen core.Prediction `json:"chosen"`
	// Cost is the slot's contribution to the budgeted total
	// (weight × unit cost); Throughput its contribution to fleet speedup
	// (weight × speedup).
	Cost       float64 `json:"cost"`
	Throughput float64 `json:"throughput"`
}

// Decision renders the allocation as the policy layer's decision shape, so
// downstream consumers (agents, operators) see the same contract /select
// produces. The pseudo-policy name "budget" marks fleet-governed choices.
func (a Allocation) Decision(feasible bool) policy.Decision {
	d := policy.Decision{
		Policy:     policy.Spec{Name: PolicyName},
		Chosen:     a.Chosen,
		Feasible:   feasible,
		Candidates: 1,
	}
	if !feasible {
		d.Fallback = "fleet budget below floor cost; allocated the cheapest front point"
	}
	return d
}

// PolicyName is the pseudo-policy name stamped on decisions emitted by the
// fleet budget governor (it is not a policy.Builtins entry: the choice is
// made fleet-wide, not per kernel).
const PolicyName = "budget"

// Strategy names, recorded on Plan.Strategy.
const (
	StrategyGreedy    = "greedy"
	StrategyUniform   = "uniform-cap"
	StrategyPerDevice = "per-device-greedy"
)

// Plan is a solved fleet allocation.
type Plan struct {
	// Budget echoes the solved-under budget (defaults resolved).
	Budget Budget `json:"budget"`
	// Strategy names the arm that produced the winning allocation
	// (Solve) or the single arm that ran (the baseline solvers).
	Strategy string `json:"strategy"`
	// Feasible is false when even the floor allocation — every pair at its
	// cheapest usable front point — exceeds the budget; the floor is
	// allocated anyway so nodes always have a concrete table.
	Feasible bool `json:"feasible"`
	// FleetSpeedup is the predicted fleet throughput Σ weight·speedup —
	// the allocator's objective. DefaultSpeedup is the same sum at default
	// clocks (= Σ weight), the "no capping" reference.
	FleetSpeedup   float64 `json:"fleet_speedup"`
	DefaultSpeedup float64 `json:"default_speedup"`
	// Cost is the plan's budgeted total (Σ allocation cost) in the
	// budget's unit; FloorCost the cheapest possible total.
	Cost      float64 `json:"cost"`
	FloorCost float64 `json:"floor_cost"`
	// FleetPower and FleetEnergy report both normalized totals regardless
	// of which one the budget capped: Σ w·e·s and Σ w·e.
	FleetPower  float64 `json:"fleet_power"`
	FleetEnergy float64 `json:"fleet_energy"`
	// Allocations lists every (node, kernel) slot, sorted by node then
	// kernel for deterministic output.
	Allocations []Allocation `json:"allocations"`
}

// item is the solver's internal, canonicalized form of one Item.
type item struct {
	node, kernel string
	weight       float64
	front        []core.Prediction // canonical: usable, Pareto, ascending
	costs        []float64         // weighted cost per front point
	chosen       int               // index into front
	frozen       bool              // greedy: a skipped move freezes the item
}

// move is one convex-hull upgrade step of one item: jump from front point
// `from` to `to`, paying cost for gain.
type move struct {
	item     int
	from, to int
	cost     float64 // weighted Δcost
	gain     float64 // weighted Δspeedup
	ratio    float64 // Δspeedup/Δcost (weight cancels)
}

// prepare validates and canonicalizes the items, sorted by (node, kernel)
// so every downstream result is independent of input order. Duplicate
// (node, kernel) labels are rejected: the caller's mix must merge weights
// first, or the plan would carry two conflicting decisions for one slot.
func prepare(items []Item, b Budget) ([]item, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	out := make([]item, 0, len(items))
	for _, it := range items {
		if err := it.validate(); err != nil {
			return nil, err
		}
		front := canonFront(it.Front)
		if len(front) == 0 {
			return nil, fmt.Errorf("%w: item %s/%s has no usable front point (all dominated, non-finite, or heuristic)",
				ErrBadItem, it.Node, it.Kernel)
		}
		costs := make([]float64, len(front))
		for i, p := range front {
			costs[i] = it.Weight * b.unitCost(p)
		}
		out = append(out, item{
			node: it.Node, kernel: it.Kernel, weight: it.Weight,
			front: front, costs: costs,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].node != out[j].node {
			return out[i].node < out[j].node
		}
		return out[i].kernel < out[j].kernel
	})
	for i := 1; i < len(out); i++ {
		if out[i].node == out[i-1].node && out[i].kernel == out[i-1].kernel {
			return nil, fmt.Errorf("%w: duplicate item %s/%s (merge mix weights before solving)",
				ErrBadItem, out[i].node, out[i].kernel)
		}
	}
	return out, nil
}

// hullMoves builds the item's upgrade sequence as the concave majorant of
// its (cost, speedup) staircase: from each point, the next move jumps to
// the later point with the highest Δspeedup/Δcost (ties to the farthest),
// so ratios strictly decrease along the sequence.
func hullMoves(idx int, it *item) []move {
	var out []move
	i := 0
	for i < len(it.front)-1 {
		bestJ, bestRatio := -1, math.Inf(-1)
		for j := i + 1; j < len(it.front); j++ {
			dc := it.costs[j] - it.costs[i]
			ds := it.weight * (it.front[j].Speedup - it.front[i].Speedup)
			// Canonical fronts have strictly increasing cost, so dc > 0
			// mathematically; if both deltas underflow to 0 the move is
			// treated as free so the 0/0 NaN cannot poison the sort order.
			r := ds / dc
			if math.IsNaN(r) {
				r = math.Inf(1)
			}
			if r > bestRatio || (r == bestRatio && j > bestJ) {
				bestJ, bestRatio = j, r
			}
		}
		out = append(out, move{
			item: idx, from: i, to: bestJ,
			cost:  it.costs[bestJ] - it.costs[i],
			gain:  it.weight * (it.front[bestJ].Speedup - it.front[i].Speedup),
			ratio: bestRatio,
		})
		i = bestJ
	}
	return out
}

// solveGreedyOn runs the greedy knapsack on prepared items (mutating their
// chosen indices): floor first, then the budget-independent move sequence,
// taking every move that still fits. Items are at their floor on entry.
func solveGreedyOn(items []item, total float64) []item {
	var moves []move
	for i := range items {
		moves = append(moves, hullMoves(i, &items[i])...)
	}
	// The scan order is fixed for every budget: ratio descending, ties by
	// the items' canonical order then move position. Per-item ratios
	// strictly decrease, so sorting keeps each item's moves in sequence.
	sort.Slice(moves, func(a, b int) bool {
		if moves[a].ratio != moves[b].ratio {
			return moves[a].ratio > moves[b].ratio
		}
		if moves[a].item != moves[b].item {
			return moves[a].item < moves[b].item
		}
		return moves[a].from < moves[b].from
	})
	remaining := total
	for i := range items {
		remaining -= items[i].costs[items[i].chosen]
	}
	for _, m := range moves {
		it := &items[m.item]
		if it.frozen || it.chosen != m.from {
			continue
		}
		if m.cost > remaining {
			// A skipped move freezes the item: taking a later move of the
			// same front without its predecessor would be incoherent.
			it.frozen = true
			continue
		}
		remaining -= m.cost
		it.chosen = m.to
	}
	return items
}

// planFrom assembles the Plan for solved items.
func planFrom(items []item, b Budget, strategy string) Plan {
	p := Plan{Budget: b.WithDefaults(), Strategy: strategy, Feasible: true}
	for i := range items {
		it := &items[i]
		chosen := it.front[it.chosen]
		cost := it.costs[it.chosen]
		p.Allocations = append(p.Allocations, Allocation{
			Node: it.node, Kernel: it.kernel, Weight: it.weight,
			Chosen:     chosen,
			Cost:       cost,
			Throughput: it.weight * chosen.Speedup,
		})
		p.FleetSpeedup += it.weight * chosen.Speedup
		p.DefaultSpeedup += it.weight
		p.Cost += cost
		p.FloorCost += it.costs[0]
		p.FleetPower += it.weight * chosen.NormEnergy * chosen.Speedup
		p.FleetEnergy += it.weight * chosen.NormEnergy
	}
	if p.FloorCost > b.Total {
		p.Feasible = false
	}
	return p
}

// SolveGreedy runs the governor's greedy marginal-utility knapsack alone:
// every pair starts at its cheapest front point and upgrade moves are taken
// in global Δspeedup/Δcost order while they fit. Solve wraps this (and the
// two baselines); use the standalone form for experiments that compare the
// arms.
func SolveGreedy(items []Item, b Budget) (Plan, error) {
	prep, err := prepare(items, b)
	if err != nil {
		return Plan{}, err
	}
	return planFrom(solveGreedyOn(prep, b.Total), b, StrategyGreedy), nil
}

// SolveUniform runs the uniform-cap baseline: one global per-unit cost cap
// applies to every (node, kernel) pair — each picks its fastest front
// point at or under the cap (or its floor point when none is) — and the
// cap is the largest value the budget affords. This is "set the whole
// fleet to one frequency ceiling": it cannot trade a cheap kernel's
// headroom for an expensive kernel's speedup.
func SolveUniform(items []Item, b Budget) (Plan, error) {
	prep, err := prepare(items, b)
	if err != nil {
		return Plan{}, err
	}
	// Candidate caps: every unit cost in any front, ascending; the answer is
	// the last affordable one. uniformCost is nondecreasing in the cap even
	// in floating point — each item's choice only moves up a front whose
	// weighted costs are nondecreasing (rounding is monotone), the sum runs
	// in the fixed item order, and IEEE addition is monotone — so "over
	// budget" is a monotone predicate over the sorted caps and a binary
	// search finds exactly the cap a linear scan would: O(P log P) for P
	// front points instead of O(P²).
	var caps []float64
	for i := range prep {
		for _, p := range prep[i].front {
			caps = append(caps, b.unitCost(p))
		}
	}
	sort.Float64s(caps)
	best := -1.0 // below every unit cost: everything at its floor
	if k := sort.Search(len(caps), func(i int) bool {
		return uniformCost(prep, b, caps[i]) > b.Total
	}); k > 0 {
		best = caps[k-1]
	}
	for i := range prep {
		prep[i].chosen = uniformChoice(&prep[i], b, best)
	}
	return planFrom(prep, b, StrategyUniform), nil
}

// uniformChoice is the item's selection under cap c: the highest-speedup
// front point whose unit cost is ≤ c, or the floor point when none is.
func uniformChoice(it *item, b Budget, c float64) int {
	choice := 0
	for j, p := range it.front {
		if b.unitCost(p) <= c {
			choice = j
		}
	}
	return choice
}

// uniformCost totals the fleet cost under cap c.
func uniformCost(items []item, b Budget, c float64) float64 {
	var total float64
	for i := range items {
		total += items[i].costs[uniformChoice(&items[i], b, c)]
	}
	return total
}

// SolvePerDevice runs the per-device-greedy baseline: every node receives
// its own floor cost plus an equal share of the fleet's remaining headroom
// and solves its kernels greedily in isolation. Equal headroom split keeps
// the baseline budget-respecting; what it cannot do is move headroom
// between nodes with unequal marginal utility — exactly the gap the fleet
// governor closes.
func SolvePerDevice(items []Item, b Budget) (Plan, error) {
	prep, err := prepare(items, b)
	if err != nil {
		return Plan{}, err
	}
	// Group the (already canonically sorted) items into per-node runs.
	type span struct{ lo, hi int }
	var nodes []span
	for i := 0; i < len(prep); {
		j := i
		for j < len(prep) && prep[j].node == prep[i].node {
			j++
		}
		nodes = append(nodes, span{i, j})
		i = j
	}
	var floor float64
	for i := range prep {
		floor += prep[i].costs[0]
	}
	headroom := 0.0
	if len(nodes) > 0 && b.Total > floor {
		headroom = (b.Total - floor) / float64(len(nodes))
	}
	for _, sp := range nodes {
		nodeItems := prep[sp.lo:sp.hi]
		nodeBudget := headroom
		for i := range nodeItems {
			nodeBudget += nodeItems[i].costs[0]
		}
		solveGreedyOn(nodeItems, nodeBudget)
	}
	return planFrom(prep, b, StrategyPerDevice), nil
}

// Solve is the fleet budget governor: it runs the greedy knapsack and both
// baselines and returns the best plan by predicted fleet speedup (ties to
// the lower cost, then the fixed greedy → uniform → per-device order). The
// result is therefore never worse than either baseline, deterministic, and
// monotone in the budget; it allocates only Pareto-optimal points and
// respects the budget whenever the budget covers the fleet's floor cost
// (otherwise Feasible=false and the floor is allocated).
func Solve(items []Item, b Budget) (Plan, error) {
	greedy, err := SolveGreedy(items, b)
	if err != nil {
		return Plan{}, err
	}
	uniform, err := SolveUniform(items, b)
	if err != nil {
		return Plan{}, err
	}
	perDev, err := SolvePerDevice(items, b)
	if err != nil {
		return Plan{}, err
	}
	best := greedy
	for _, cand := range []Plan{uniform, perDev} {
		if cand.FleetSpeedup > best.FleetSpeedup ||
			(cand.FleetSpeedup == best.FleetSpeedup && cand.Cost < best.Cost) {
			best = cand
		}
	}
	return best, nil
}
