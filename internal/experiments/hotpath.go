package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/policy"
	"repro/internal/registry"
)

// HotPathRow is one serving layer's measured per-kernel decision cost.
type HotPathRow struct {
	// Layer names the serving path the row measures.
	Layer string `json:"layer"`
	// NsPerKernel is the mean wall-clock cost of one kernel's decision or
	// front derivation through this layer.
	NsPerKernel float64 `json:"ns_per_kernel"`
	// KernelsPerSec is the single-threaded throughput ceiling implied by
	// NsPerKernel.
	KernelsPerSec float64 `json:"kernels_per_sec"`
	// Note explains what the layer does per kernel.
	Note string `json:"note"`
}

// HotPathReport is the serve-hot-path throughput table: the per-decision
// cost of each layer between a /select or /predict request and the SVRs —
// publish-time front lookup, memoized sweep, live ladder sweep, and the
// columnar batch plane.
type HotPathReport struct {
	Provenance Provenance `json:"provenance"`
	// Kernels is how many training kernels each pass decides or derives.
	Kernels int `json:"kernels"`
	// Configs is the modeled ladder size: the number of (mem, core)
	// configurations a live sweep evaluates per kernel.
	Configs int          `json:"configs"`
	Rows    []HotPathRow `json:"rows"`
}

// timePerKernel runs f (which processes kernels kernels per call) until it
// has spent a minimum wall-clock budget, returning the mean ns per kernel.
func timePerKernel(kernels int, f func()) float64 {
	const budget = 250 * time.Millisecond
	f() // warm caches and pools outside the timed window
	var (
		elapsed time.Duration
		calls   int
	)
	for elapsed < budget {
		start := time.Now()
		f()
		elapsed += time.Since(start)
		calls++
	}
	return float64(elapsed.Nanoseconds()) / float64(calls*kernels)
}

// HotPath measures the serving layers over the trained models and every
// training kernel. It is an in-process measurement of the same code paths
// gpufreqd's read plane serves, without HTTP decode/encode.
func (s *Suite) HotPath() (HotPathReport, error) {
	pred, err := s.Predictor()
	if err != nil {
		return HotPathReport{}, err
	}
	prov, err := s.Provenance()
	if err != nil {
		return HotPathReport{}, err
	}
	kernels := engine.TrainingKernels()
	sts := make([]features.Static, len(kernels))
	for i := range kernels {
		sts[i] = kernels[i].Features
	}
	spec := policy.Spec{Name: policy.MinEnergy}
	rep := HotPathReport{
		Provenance: prov,
		Kernels:    len(kernels),
		Configs:    len(pred.PredictAll(sts[0], nil)),
	}
	decideAll := func(g *policy.Governor) func() {
		return func() {
			for _, st := range sts {
				if _, err := g.Decide(st, spec); err != nil {
					panic(err)
				}
			}
		}
	}

	// Publish-time front table: every decision is a map hit.
	fronts := registry.ComputeFronts(pred, kernels)
	front := policy.NewGovernorWithFronts(pred, -1, fronts.Map())
	rep.Rows = append(rep.Rows, HotPathRow{
		Layer:       "front table",
		NsPerKernel: timePerKernel(len(kernels), decideAll(front)),
		Note:        "publish-time Pareto front lookup, zero SVR evaluations",
	})

	// Sweep LRU: decision cache missed (spec varies), sweep memoized.
	sweepGov := policy.NewGovernor(pred, len(kernels)+1)
	eps := 0.0
	sweepAll := func() {
		eps += 1e-12 // a new spec every pass: decision miss, sweep hit
		varied := spec
		varied.MaxSlowdown = policy.DefaultMaxSlowdown + eps
		for _, st := range sts {
			if _, err := sweepGov.Decide(st, varied); err != nil {
				panic(err)
			}
		}
	}
	rep.Rows = append(rep.Rows, HotPathRow{
		Layer:       "sweep LRU",
		NsPerKernel: timePerKernel(len(kernels), sweepAll),
		Note:        "memoized ladder sweep shared across specs",
	})

	// The last two rows compare row-at-a-time against columnar SVR
	// evaluation: both run the real math for every (kernel, configuration)
	// pair.
	rep.Rows = append(rep.Rows, HotPathRow{
		Layer: "per-kernel sweep",
		NsPerKernel: timePerKernel(len(kernels), func() {
			for _, st := range sts {
				pred.ParetoSet(st)
			}
		}),
		Note: "row-at-a-time SVR evaluation (sweep-LRU miss)",
	})

	// Columnar batch plane: whole-matrix PredictFrontsInto, the
	// /predict/batch engine path.
	scratch := engine.GetBatchScratch()
	defer engine.PutBatchScratch(scratch)
	rep.Rows = append(rep.Rows, HotPathRow{
		Layer: "columnar batch",
		NsPerKernel: timePerKernel(len(kernels), func() {
			pred.PredictFrontsInto(scratch, sts)
		}),
		Note: "one flat design matrix per model, in-place fronts",
	})

	for i := range rep.Rows {
		rep.Rows[i].KernelsPerSec = 1e9 / rep.Rows[i].NsPerKernel
	}
	return rep, nil
}

// RenderHotPath prints the serve-hot-path table as an aligned text report.
func RenderHotPath(w io.Writer, r HotPathReport) {
	fmt.Fprintf(w, "Serve hot path — per-kernel decision cost by layer (models %s)\n", r.Provenance)
	fmt.Fprintf(w, "%d training kernels, %d modeled configurations per ladder sweep\n\n", r.Kernels, r.Configs)
	fmt.Fprintf(w, "%-18s %14s %16s  %s\n", "layer", "ns/kernel", "kernels/s", "note")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-18s %14.0f %16.0f  %s\n",
			row.Layer, row.NsPerKernel, row.KernelsPerSec, row.Note)
	}
}
