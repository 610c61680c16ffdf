package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/freq"
	"repro/internal/measure"
	"repro/internal/pareto"
)

// Fig8Data is the Pareto evaluation of one benchmark: the measured sweep,
// the real Pareto front over it, and the predicted Pareto set with each
// predicted configuration evaluated at its *measured* objectives (the
// paper's red crosses, which "are not necessarily dominant each other").
type Fig8Data struct {
	Benchmark string
	// Model records which model version produced the prediction.
	Model Provenance
	// Measured is the full measured sweep (all actual configurations).
	Measured []measure.Relative
	// RealFront is the measured Pareto-optimal set P*.
	RealFront []pareto.Point
	// Predicted is the predicted set P' at measured objective values,
	// in predicted-set order; IDs index into Measured.
	Predicted []pareto.Point
	// PredictedCfgs are the corresponding configurations (parallel to
	// Predicted), with the mem-L heuristic point last.
	PredictedCfgs []core.Prediction
}

// Fig8 reproduces Fig. 8 for all twelve test benchmarks.
func (s *Suite) Fig8() ([]Fig8Data, error) {
	pred, err := s.Predictor()
	if err != nil {
		return nil, err
	}
	prov, err := s.Provenance()
	if err != nil {
		return nil, err
	}
	var out []Fig8Data
	for _, b := range bench.All() {
		d, err := s.fig8One(pred, b)
		if err != nil {
			return nil, err
		}
		d.Model = prov
		out = append(out, d)
	}
	return out, nil
}

func (s *Suite) fig8One(pred *engine.Predictor, b *bench.Benchmark) (Fig8Data, error) {
	// The paper evaluates predictions and the real front on the sampled
	// configuration subset, not the exhaustive space (Section 4.5); this
	// is what bounds |P*| to 6–14 and |P'| to 9–12 in Table 2.
	ladder := s.Harness().Device().Sim().Ladder
	sampled := ladder.TrainingSample(40)
	sampledSet := map[freq.Config]bool{}
	for _, c := range sampled {
		sampledSet[c] = true
	}

	all, err := s.Sweep(b.Name)
	if err != nil {
		return Fig8Data{}, err
	}
	var rels []measure.Relative
	for _, r := range all {
		if sampledSet[r.Config] {
			rels = append(rels, r)
		}
	}
	byCfg := map[freq.Config]int{}
	pts := make([]pareto.Point, len(rels))
	for i, r := range rels {
		byCfg[r.Config] = i
		pts[i] = pareto.Point{Speedup: r.Speedup, Energy: r.NormEnergy, ID: i}
	}
	real := pts[:pareto.FrontInPlace(pts)]

	set := pred.ParetoSetOver(b.Features(), sampled)
	var predicted []pareto.Point
	var cfgs []core.Prediction
	for _, p := range set {
		idx, ok := byCfg[p.Config]
		if !ok {
			// The predictor only emits ladder configurations; a miss
			// would be a programming error worth surfacing.
			return Fig8Data{}, fmt.Errorf("experiments: predicted config %v not in sweep of %s",
				p.Config, b.Name)
		}
		m := rels[idx]
		predicted = append(predicted, pareto.Point{
			Speedup: m.Speedup, Energy: m.NormEnergy, ID: idx,
		})
		cfgs = append(cfgs, p)
	}
	return Fig8Data{
		Benchmark:     b.Name,
		Measured:      rels,
		RealFront:     real,
		Predicted:     predicted,
		PredictedCfgs: cfgs,
	}, nil
}

// RenderFig8 prints, per benchmark, the real front and the predicted set.
func RenderFig8(w io.Writer, data []Fig8Data) {
	fmt.Fprintln(w, "Figure 8: accuracy of the predicted Pareto front")
	if len(data) > 0 {
		fmt.Fprintf(w, "  model: %s\n", data[0].Model)
	}
	for _, d := range data {
		fmt.Fprintf(w, "  %s: real front %d points, predicted set %d points\n",
			d.Benchmark, len(d.RealFront), len(d.Predicted))
		fmt.Fprintf(w, "    real Pareto front P*:\n")
		for _, p := range d.RealFront {
			fmt.Fprintf(w, "      %-11s speedup %6.3f  energy %6.3f\n",
				d.Measured[p.ID].Config, p.Speedup, p.Energy)
		}
		fmt.Fprintf(w, "    predicted set P' (measured objectives):\n")
		for i, p := range d.Predicted {
			tag := ""
			if d.PredictedCfgs[i].MemLHeuristic {
				tag = "  [mem-L heuristic]"
			}
			fmt.Fprintf(w, "      %-11s speedup %6.3f  energy %6.3f%s\n",
				d.PredictedCfgs[i].Config, p.Speedup, p.Energy, tag)
		}
	}
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Benchmark string
	// D is the binary-hypervolume coverage difference D(P*, P').
	D float64
	// NPred and NReal are |P'| and |P*|.
	NPred, NReal int
	// Extreme-point distances (Δspeedup, Δenergy) for the max-speedup and
	// min-energy points.
	MaxSpeedupDS, MaxSpeedupDE float64
	MinEnergyDS, MinEnergyDE   float64
}

// Table2Report is the whole of Table 2: its rows plus the provenance of
// the model version that produced them.
type Table2Report struct {
	// Model records which model version produced the table.
	Model Provenance
	Rows  []Table2Row
}

// Table2 reproduces Table 2 from the Fig. 8 data, sorted by ascending
// coverage difference as in the paper.
func (s *Suite) Table2() (Table2Report, error) {
	data, err := s.Fig8()
	if err != nil {
		return Table2Report{}, err
	}
	return Table2From(data), nil
}

// Table2From derives the Table 2 report from precomputed Fig. 8 data.
func Table2From(data []Fig8Data) Table2Report {
	rep := Table2Report{}
	if len(data) > 0 {
		rep.Model = data[0].Model
	}
	for _, d := range data {
		row := Table2Row{
			Benchmark: d.Benchmark,
			D:         pareto.CoverageDifference(d.RealFront, d.Predicted),
			NPred:     len(d.Predicted),
			NReal:     len(d.RealFront),
		}
		if ed, ok := pareto.ExtremesDistance(d.RealFront, d.Predicted); ok {
			row.MaxSpeedupDS, row.MaxSpeedupDE = ed.MaxSpeedupDS, ed.MaxSpeedupDE
			row.MinEnergyDS, row.MinEnergyDE = ed.MinEnergyDS, ed.MinEnergyDE
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].D < rep.Rows[j].D })
	return rep
}

// RenderTable2 prints Table 2 in the paper's layout.
func RenderTable2(w io.Writer, rep Table2Report) {
	fmt.Fprintln(w, "Table 2: evaluation of predicted Pareto fronts")
	fmt.Fprintf(w, "  model: %s\n", rep.Model)
	fmt.Fprintf(w, "  %-15s %9s %5s %5s %18s %18s\n",
		"benchmark", "D(P*,P')", "|P'|", "|P*|", "max-speedup dist", "min-energy dist")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "  %-15s %9.4f %5d %5d   (%5.3f, %5.3f)   (%5.3f, %5.3f)\n",
			r.Benchmark, r.D, r.NPred, r.NReal,
			r.MaxSpeedupDS, r.MaxSpeedupDE, r.MinEnergyDS, r.MinEnergyDE)
	}
}
