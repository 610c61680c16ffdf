package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/pareto"
	"repro/internal/policy"
)

// PolicyEvalRow evaluates one (policy, benchmark) pair on one device: the
// governor's chosen configuration scored at its *measured* objectives,
// against the oracle — the configuration the same policy would pick given
// perfect knowledge of the measured sweep. The gap between the two is the
// price of deciding from static features alone.
type PolicyEvalRow struct {
	Policy    string
	Benchmark string
	// Chosen is the governor's pick (from predicted objectives only) and
	// its measured speedup/normalized energy.
	Chosen        freq.Config
	ChosenSpeedup float64
	ChosenEnergy  float64
	// Feasible reports the governor's constraint feasibility claim.
	Feasible bool
	// Oracle is the policy resolved over measured objectives, with its
	// measured speedup/normalized energy.
	Oracle        freq.Config
	OracleSpeedup float64
	OracleEnergy  float64
}

// PolicyEvalTable is the policy evaluation of one device across the twelve
// test benchmarks and every built-in policy.
type PolicyEvalTable struct {
	Device string
	// Model records which model version produced the governor's decisions.
	Model Provenance
	Rows  []PolicyEvalRow
}

// policyEvalSpecs are the specs the evaluation sweeps: every built-in at
// its documented defaults.
func policyEvalSpecs() []policy.Spec {
	infos := policy.Builtins()
	specs := make([]policy.Spec, len(infos))
	for i, info := range infos {
		specs[i] = policy.Spec{Name: info.Name}
	}
	return specs
}

// PolicyEval runs the policy evaluation on both GPU profiles (Titan X and
// P100), training a fresh engine per device with the given options. Both
// the governor and the oracle choose over the paper's 40-setting
// evaluation sample, matching the Fig. 8 / Table 2 methodology.
func PolicyEval(opts engine.Options) ([]PolicyEvalTable, error) {
	var out []PolicyEvalTable
	for _, dev := range []*gpu.Device{gpu.TitanX(), gpu.P100()} {
		tbl, err := PolicyEvalForDevice(dev, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	return out, nil
}

// PolicyEvalForDevice trains on the given device and evaluates every
// built-in policy across the twelve test benchmarks.
func PolicyEvalForDevice(dev *gpu.Device, opts engine.Options) (PolicyEvalTable, error) {
	eng := engine.New(measure.NewHarness(nvml.NewDevice(dev)), opts)
	if _, err := eng.Train(context.Background(), engine.TrainingKernels()); err != nil {
		return PolicyEvalTable{}, fmt.Errorf("experiments: policy eval training on %s: %w", dev.Name, err)
	}
	return policyEvalOn(eng)
}

// policyEvalOn evaluates every built-in policy across the twelve test
// benchmarks with an already trained engine.
func policyEvalOn(eng *engine.Engine) (PolicyEvalTable, error) {
	h := eng.Harness()
	dev := h.Device().Sim()
	pred, err := eng.Predictor()
	if err != nil {
		return PolicyEvalTable{}, err
	}
	gov := policy.NewGovernor(pred, 0)
	sampled := dev.Ladder.TrainingSample(40)
	specs := policyEvalSpecs()

	prov, err := ProvenanceFor(dev.Name, eng.Models(), "")
	if err != nil {
		return PolicyEvalTable{}, err
	}
	tbl := PolicyEvalTable{Device: dev.Name, Model: prov}
	for _, b := range bench.All() {
		st := b.Features()
		base, err := h.Baseline(b.Profile())
		if err != nil {
			return PolicyEvalTable{}, err
		}
		// Measure the sampled settings once per benchmark; the governor's
		// choice is looked up here, and the oracle chooses over the Pareto
		// set of exactly this measured set.
		measured := make(map[freq.Config]measure.Relative, len(sampled))
		pts := make([]pareto.Point, len(sampled))
		for i, cfg := range sampled {
			rel, err := h.MeasureRelative(b.Profile(), cfg, base)
			if err != nil {
				return PolicyEvalTable{}, err
			}
			measured[cfg] = rel
			pts[i] = pareto.Point{Speedup: rel.Speedup, Energy: rel.NormEnergy, ID: i}
		}
		// Choose's contract takes a Pareto set; feeding it the raw sweep
		// would skew the balanced policy's knee normalization with
		// dominated points.
		pts = pts[:pareto.FrontInPlace(pts)]
		oracleSet := make([]core.Prediction, len(pts))
		for i, pt := range pts {
			oracleSet[i] = core.Prediction{Config: sampled[pt.ID], Speedup: pt.Speedup, NormEnergy: pt.Energy}
		}
		for _, spec := range specs {
			d, err := gov.DecideOver(st, sampled, spec)
			if err != nil {
				return PolicyEvalTable{}, fmt.Errorf("experiments: %s/%s/%s: %w", dev.Name, b.Name, spec.Name, err)
			}
			oracle, err := policy.Choose(oracleSet, spec)
			if err != nil {
				return PolicyEvalTable{}, fmt.Errorf("experiments: %s/%s/%s oracle: %w", dev.Name, b.Name, spec.Name, err)
			}
			chosenRel, ok := measured[d.Chosen.Config]
			if !ok {
				// The governor picks from the sampled candidates, so a miss
				// is a programming error worth surfacing.
				return PolicyEvalTable{}, fmt.Errorf("experiments: chosen config %v not in sampled sweep of %s",
					d.Chosen.Config, b.Name)
			}
			oracleRel := measured[oracle.Chosen.Config]
			tbl.Rows = append(tbl.Rows, PolicyEvalRow{
				Policy:        spec.Name,
				Benchmark:     b.Name,
				Chosen:        d.Chosen.Config,
				ChosenSpeedup: chosenRel.Speedup,
				ChosenEnergy:  chosenRel.NormEnergy,
				Feasible:      d.Feasible,
				Oracle:        oracle.Chosen.Config,
				OracleSpeedup: oracleRel.Speedup,
				OracleEnergy:  oracleRel.NormEnergy,
			})
		}
	}
	return tbl, nil
}

// PolicyEvalSummary aggregates one device's rows per policy: how often the
// governor picked the oracle's exact configuration, and the mean measured
// objective gaps to the oracle.
type PolicyEvalSummary struct {
	Policy string
	// ExactMatches counts benchmarks where chosen == oracle configuration.
	ExactMatches int
	Benchmarks   int
	// MeanSpeedupGap and MeanEnergyGap average (chosen − oracle) measured
	// objectives; for energy, positive means the governor spent more than
	// the oracle.
	MeanSpeedupGap float64
	MeanEnergyGap  float64
}

// Summarize reduces a device table to per-policy summaries, in Builtins
// order.
func (t PolicyEvalTable) Summarize() []PolicyEvalSummary {
	byPolicy := map[string]*PolicyEvalSummary{}
	var order []string
	for _, r := range t.Rows {
		s, ok := byPolicy[r.Policy]
		if !ok {
			s = &PolicyEvalSummary{Policy: r.Policy}
			byPolicy[r.Policy] = s
			order = append(order, r.Policy)
		}
		s.Benchmarks++
		if r.Chosen == r.Oracle {
			s.ExactMatches++
		}
		s.MeanSpeedupGap += r.ChosenSpeedup - r.OracleSpeedup
		s.MeanEnergyGap += r.ChosenEnergy - r.OracleEnergy
	}
	out := make([]PolicyEvalSummary, 0, len(order))
	for _, name := range order {
		s := byPolicy[name]
		if s.Benchmarks > 0 {
			s.MeanSpeedupGap /= float64(s.Benchmarks)
			s.MeanEnergyGap /= float64(s.Benchmarks)
		}
		out = append(out, *s)
	}
	return out
}

// RenderPolicyEval prints the per-benchmark decisions and the per-policy
// summary for every evaluated device.
func RenderPolicyEval(w io.Writer, tables []PolicyEvalTable) {
	fmt.Fprintln(w, "Policy evaluation: governor decisions vs measured oracle")
	for _, tbl := range tables {
		fmt.Fprintf(w, "  %s\n", tbl.Device)
		fmt.Fprintf(w, "  model: %s\n", tbl.Model)
		fmt.Fprintf(w, "  %-11s %-15s %-11s %7s %7s   %-11s %7s %7s\n",
			"policy", "benchmark", "chosen", "spd", "energy", "oracle", "spd", "energy")
		for _, r := range tbl.Rows {
			note := ""
			if !r.Feasible {
				note = "  [infeasible: fallback]"
			}
			fmt.Fprintf(w, "  %-11s %-15s %-11s %7.3f %7.3f   %-11s %7.3f %7.3f%s\n",
				r.Policy, r.Benchmark, r.Chosen, r.ChosenSpeedup, r.ChosenEnergy,
				r.Oracle, r.OracleSpeedup, r.OracleEnergy, note)
		}
		fmt.Fprintf(w, "  per-policy summary (%s):\n", tbl.Device)
		fmt.Fprintf(w, "    %-11s %12s %14s %14s\n", "policy", "exact match", "Δspeedup", "Δenergy")
		for _, s := range tbl.Summarize() {
			fmt.Fprintf(w, "    %-11s %7d/%-4d %+14.4f %+14.4f\n",
				s.Policy, s.ExactMatches, s.Benchmarks, s.MeanSpeedupGap, s.MeanEnergyGap)
		}
	}
}
