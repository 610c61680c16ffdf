package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/bench"
	"repro/internal/freq"
)

// BoxStats summarizes an error distribution the way the paper's box plots
// do: minimum, 25th percentile, median, 75th percentile and maximum, in
// percentage points of the predicted quantity.
type BoxStats struct {
	Min, Q25, Median, Q75, Max float64
	N                          int
}

func boxStats(errs []float64) BoxStats {
	if len(errs) == 0 {
		return BoxStats{}
	}
	s := append([]float64(nil), errs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		idx := p * float64(len(s)-1)
		lo := int(idx)
		hi := lo + 1
		if hi >= len(s) {
			return s[len(s)-1]
		}
		frac := idx - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	return BoxStats{
		Min: s[0], Q25: q(0.25), Median: q(0.5), Q75: q(0.75), Max: s[len(s)-1],
		N: len(s),
	}
}

// ErrorReport is the per-memory-frequency prediction-error analysis used by
// Fig. 6 (speedup) and Fig. 7 (normalized energy).
type ErrorReport struct {
	// Objective is "speedup" or "energy".
	Objective string
	// Model records which model version produced the table.
	Model Provenance
	// Mems holds the device's memory clocks in ladder order, highest first
	// (H, h, l, L on the Titan X; the P100 has one).
	Mems []freq.MHz
	// RMSE maps memory clock to the root-mean-square error in percentage
	// points over all benchmarks and sampled configurations.
	RMSE map[freq.MHz]float64
	// PerBenchmark maps memory clock -> benchmark name -> box stats of
	// the per-configuration errors (percentage points).
	PerBenchmark map[freq.MHz]map[string]BoxStats
}

// predictionErrors measures every test benchmark at the sampled settings
// and collects prediction errors in percentage points, grouped by memory
// clock and benchmark.
func (s *Suite) predictionErrors() (speedupErrs, energyErrs map[freq.MHz]map[string][]float64, err error) {
	pred, err := s.Predictor()
	if err != nil {
		return nil, nil, err
	}
	ladder := s.Harness().Device().Sim().Ladder
	settings := ladder.TrainingSample(40)
	speedupErrs = map[freq.MHz]map[string][]float64{}
	energyErrs = map[freq.MHz]map[string][]float64{}
	for _, b := range bench.All() {
		st := b.Features()
		base, err := s.Harness().Baseline(b.Profile())
		if err != nil {
			return nil, nil, err
		}
		for _, cfg := range settings {
			rel, err := s.Harness().MeasureRelative(b.Profile(), cfg, base)
			if err != nil {
				return nil, nil, err
			}
			p := pred.PredictConfig(st, cfg)
			addErr(speedupErrs, cfg.Mem, b.Name, 100*(p.Speedup-rel.Speedup))
			addErr(energyErrs, cfg.Mem, b.Name, 100*(p.NormEnergy-rel.NormEnergy))
		}
	}
	return speedupErrs, energyErrs, nil
}

func addErr(m map[freq.MHz]map[string][]float64, mem freq.MHz, name string, e float64) {
	if m[mem] == nil {
		m[mem] = map[string][]float64{}
	}
	m[mem][name] = append(m[mem][name], e)
}

// buildReport summarizes the errors per memory clock of mems, the device
// ladder's clocks in figure order.
func buildReport(objective string, mems []freq.MHz, errs map[freq.MHz]map[string][]float64) ErrorReport {
	rep := ErrorReport{
		Objective:    objective,
		RMSE:         map[freq.MHz]float64{},
		PerBenchmark: map[freq.MHz]map[string]BoxStats{},
	}
	for _, m := range mems {
		if errs[m] == nil {
			continue
		}
		rep.Mems = append(rep.Mems, m)
		rep.PerBenchmark[m] = map[string]BoxStats{}
		sum, n := 0.0, 0
		for name, es := range errs[m] {
			rep.PerBenchmark[m][name] = boxStats(es)
			for _, e := range es {
				sum += e * e
				n++
			}
		}
		rep.RMSE[m] = math.Sqrt(sum / float64(n))
	}
	return rep
}

// fig67 computes both error reports with a single measurement pass.
func (s *Suite) fig67() (speedup, energy ErrorReport, err error) {
	se, ee, err := s.predictionErrors()
	if err != nil {
		return ErrorReport{}, ErrorReport{}, err
	}
	prov, err := s.Provenance()
	if err != nil {
		return ErrorReport{}, ErrorReport{}, err
	}
	mems := s.Harness().Device().Sim().Ladder.MemClocks()
	sp, en := buildReport("speedup", mems, se), buildReport("energy", mems, ee)
	sp.Model, en.Model = prov, prov
	return sp, en, nil
}

// Fig6 reproduces Fig. 6: speedup prediction error by memory frequency.
func (s *Suite) Fig6() (ErrorReport, error) {
	sp, _, err := s.fig67()
	return sp, err
}

// Fig7 reproduces Fig. 7: normalized-energy prediction error by memory
// frequency.
func (s *Suite) Fig7() (ErrorReport, error) {
	_, en, err := s.fig67()
	return en, err
}

// RenderErrorReport prints an error report in the paper's Fig. 6/7 layout:
// one block per memory frequency with its RMSE and per-benchmark box stats.
func RenderErrorReport(w io.Writer, figure string, rep ErrorReport) {
	fmt.Fprintf(w, "%s: prediction error of %s\n", figure, rep.Objective)
	fmt.Fprintf(w, "  model: %s\n", rep.Model)
	for _, m := range rep.Mems {
		fmt.Fprintf(w, "  Memory Frequency: %d MHz (%s)   RMSE = %.2f%%\n",
			m, freq.MemLabel(m), rep.RMSE[m])
		fmt.Fprintf(w, "    %-15s %8s %8s %8s %8s %8s\n",
			"benchmark", "min", "q25", "median", "q75", "max")
		for _, name := range bench.Names() {
			bs, ok := rep.PerBenchmark[m][name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "    %-15s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				name, bs.Min, bs.Q25, bs.Median, bs.Q75, bs.Max)
		}
	}
}
