// Characterize: exhaustively measure one of the paper's test benchmarks
// over every supported frequency configuration of the simulated Titan X
// (the Fig. 5 procedure), print the per-memory-clock objective ranges, the
// measured Pareto front, and how the default configuration compares —
// reproducing the paper's observation that the default is good but not
// always Pareto-optimal.
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/pareto"
)

func main() {
	name := flag.String("bench", "Convolution", "benchmark name (see -list)")
	list := flag.Bool("list", false, "list available benchmarks")
	flag.Parse()
	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}

	b, err := bench.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	harness := engine.NewDefault(engine.Options{}).Harness()
	ladder := harness.Device().Sim().Ladder

	rels, err := harness.Sweep(b.Profile())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d configurations measured (paper: ~70 min on hardware, instant here)\n\n",
		b.Name, len(rels))

	// Objective ranges per memory clock (the Fig. 5 clusters).
	for _, m := range ladder.MemClocks() {
		minS, maxS := 1e9, -1e9
		minE, maxE := 1e9, -1e9
		for _, r := range rels {
			if r.Config.Mem != m {
				continue
			}
			minS, maxS = min(minS, r.Speedup), max(maxS, r.Speedup)
			minE, maxE = min(minE, r.NormEnergy), max(maxE, r.NormEnergy)
		}
		fmt.Printf("mem %4d MHz: speedup [%5.2f, %5.2f]  energy [%5.2f, %5.2f]\n",
			m, minS, maxS, minE, maxE)
	}

	// Measured Pareto front.
	pts := make([]pareto.Point, len(rels))
	for i, r := range rels {
		pts[i] = pareto.Point{Speedup: r.Speedup, Energy: r.NormEnergy, ID: i}
	}
	front := slices.Clone(pts)
	front = front[:pareto.FrontInPlace(front)]
	fmt.Printf("\nmeasured Pareto front (%d of %d configurations):\n", len(front), len(rels))
	fmt.Printf("%-12s %10s %12s\n", "mem@core", "speedup", "norm.energy")
	for _, p := range front {
		fmt.Printf("%-12s %10.3f %12.3f\n", rels[p.ID].Config, p.Speedup, p.Energy)
	}

	// Is the default configuration Pareto-optimal?
	def := ladder.Default()
	var defPt pareto.Point
	for i, r := range rels {
		if r.Config == def {
			defPt = pts[i]
		}
	}
	dominated := false
	for _, p := range front {
		if pareto.Dominates(p, defPt) {
			dominated = true
			fmt.Printf("\ndefault %v (speedup %.3f, energy %.3f) is dominated by %v (%.3f, %.3f)\n",
				def, defPt.Speedup, defPt.Energy, rels[p.ID].Config, p.Speedup, p.Energy)
			break
		}
	}
	if !dominated {
		fmt.Printf("\ndefault %v is Pareto-optimal for this kernel\n", def)
	}
}
