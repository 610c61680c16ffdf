// Package core implements the paper's contribution: a two-phase predictive
// framework for GPU frequency scaling (Sections 3.1–3.4).
//
// Training phase: the 106 synthetic micro-benchmarks are executed on the
// (simulated) device at ~40 sampled frequency settings each; their static
// code features combined with the normalized frequency configuration form
// the 12-dimensional inputs of two ε-SVR models — a linear-kernel model for
// speedup and an RBF-kernel model for normalized energy (C=1000, ε=0.1,
// γ=0.1).
//
// Prediction phase: for a new kernel, only its static features are needed —
// the kernel is never executed. Both models are evaluated at every supported
// frequency configuration of the three highest memory clocks, the paper's
// Algorithm 1 derives the Pareto set, and the mem-L heuristic appends the
// highest-core configuration of the lowest memory clock (Section 4.5). This
// package holds the per-kernel sampling unit (SampleKernel), the solver
// layout of a training set (TrainingMatrix) and the prediction rules as
// pure functions (ExcludeMemL, MemLHeuristicConfig). internal/engine runs
// both phases on them: it shards SampleKernel across a worker pool, fits
// the two SVRs, and derives each Pareto set with internal/pareto's one
// front rule.
package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/svm"
)

// Options configures training. Zero values select the paper's setup.
type Options struct {
	// SettingsPerKernel is the number of sampled frequency settings per
	// micro-benchmark (paper: 40).
	SettingsPerKernel int
	// SpeedupKernel and EnergyKernel override the SVR kernels (paper:
	// linear for speedup, RBF γ=0.1 for energy).
	SpeedupKernel svm.Kernel
	EnergyKernel  svm.Kernel
	// Params are the shared SVR hyper-parameters (paper: C=1000, ε=0.1).
	Params svm.Params
}

// WithDefaults resolves zero values to the paper's setup.
func (o Options) WithDefaults() Options {
	if o.SettingsPerKernel <= 0 {
		o.SettingsPerKernel = 40
	}
	if o.SpeedupKernel == nil {
		o.SpeedupKernel = svm.Linear{}
	}
	if o.EnergyKernel == nil {
		// The paper states γ=0.1 for its feature scaling; on this
		// substrate's feature distribution the equivalent smoothness is
		// γ=4 (see the Ablation benchmarks, which sweep γ including the
		// paper's value).
		o.EnergyKernel = svm.RBF{Gamma: 4}
	}
	if o.Params.C == 0 {
		o.Params = svm.Params{C: 1000, Epsilon: 0.1}
	}
	return o
}

// Sample is one training observation: a kernel execution at a frequency
// setting with its measured objectives.
type Sample struct {
	Kernel     string
	Config     freq.Config
	Vector     features.Vector
	Speedup    float64
	NormEnergy float64
}

// TrainingKernel couples a kernel's static features with its execution
// profile; internal/synth benchmarks satisfy it via Adapt.
type TrainingKernel struct {
	Name     string
	Features features.Static
	Profile  gpu.KernelProfile
}

// SampleKernel executes one training kernel at the given frequency settings
// and returns its supervised samples (the per-kernel unit of training-phase
// steps 1–4 of Fig. 2), which the engine's worker pool shards: each call
// measures a baseline first, then every setting, on whatever harness it is
// handed.
func SampleKernel(h *measure.Harness, k TrainingKernel, settings []freq.Config) ([]Sample, error) {
	base, err := h.Baseline(k.Profile)
	if err != nil {
		return nil, fmt.Errorf("core: baseline for %s: %w", k.Name, err)
	}
	out := make([]Sample, 0, len(settings))
	for _, cfg := range settings {
		rel, err := h.MeasureRelative(k.Profile, cfg, base)
		if err != nil {
			return nil, fmt.Errorf("core: measuring %s at %v: %w", k.Name, cfg, err)
		}
		out = append(out, Sample{
			Kernel:     k.Name,
			Config:     rel.Config,
			Vector:     features.Combine(k.Features, rel.Config),
			Speedup:    rel.Speedup,
			NormEnergy: rel.NormEnergy,
		})
	}
	return out, nil
}

// TrainingSettings returns the sampled frequency settings used per
// micro-benchmark for the harness's device.
func TrainingSettings(h *measure.Harness, opt Options) []freq.Config {
	opt = opt.WithDefaults()
	return h.Device().Sim().Ladder.TrainingSample(opt.SettingsPerKernel)
}

// DesignRows lays the samples' input vectors out as rows backed by one
// contiguous allocation — the shape the SVR solver's flat design matrix
// copies from, and a single allocation instead of one per sample.
func DesignRows(samples []Sample) [][]float64 {
	flat := make([]float64, len(samples)*features.Dim)
	xs := make([][]float64, len(samples))
	for i := range samples {
		row := flat[i*features.Dim : (i+1)*features.Dim : (i+1)*features.Dim]
		copy(row, samples[i].Vector[:])
		xs[i] = row
	}
	return xs
}

// TrainingMatrix is a training set laid out for the SVR solver: the design
// rows (flat-backed, as DesignRows produces) plus the two target columns.
// Building it is the per-retrain layout cost; callers that refit on a mostly
// unchanged corpus build the base matrix once and extend it per retrain with
// WithExtra, so only the new rows pay for layout.
type TrainingMatrix struct {
	Rows    [][]float64
	Speedup []float64
	Energy  []float64
}

// NewTrainingMatrix lays the samples out as a solver-ready matrix.
func NewTrainingMatrix(samples []Sample) *TrainingMatrix {
	m := &TrainingMatrix{
		Rows:    DesignRows(samples),
		Speedup: make([]float64, len(samples)),
		Energy:  make([]float64, len(samples)),
	}
	for i, s := range samples {
		m.Speedup[i] = s.Speedup
		m.Energy[i] = s.NormEnergy
	}
	return m
}

// WithExtra returns the matrix extended with additional samples. The
// receiver's rows are shared, not copied (they are read-only to the solver),
// and the receiver itself is never modified — full slice expressions pin the
// appends to fresh backing arrays, so a cached base matrix can be extended
// concurrently by independent retrains.
func (m *TrainingMatrix) WithExtra(extra []Sample) *TrainingMatrix {
	if len(extra) == 0 {
		return m
	}
	ex := NewTrainingMatrix(extra)
	return &TrainingMatrix{
		Rows:    append(m.Rows[:len(m.Rows):len(m.Rows)], ex.Rows...),
		Speedup: append(m.Speedup[:len(m.Speedup):len(m.Speedup)], ex.Speedup...),
		Energy:  append(m.Energy[:len(m.Energy):len(m.Energy)], ex.Energy...),
	}
}

// Len reports the number of training rows.
func (m *TrainingMatrix) Len() int { return len(m.Rows) }

// Models holds the two trained single-objective models.
type Models struct {
	Speedup *svm.Model
	Energy  *svm.Model
}

// ResidualRMSE evaluates trained models back on a supervised sample set
// and returns the fractional root-mean-square residual per objective
// (0.05 = 5 percentage points). Recorded in snapshot manifests at training
// time, it is the baseline the adaptation loop's drift detector compares
// live prediction error against. Empty input returns zeros.
func ResidualRMSE(m *Models, samples []Sample) (speedup, energy float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var ss, se float64
	for _, s := range samples {
		v := s.Vector.Slice()
		ds := m.Speedup.Predict(v) - s.Speedup
		de := m.Energy.Predict(v) - s.NormEnergy
		ss += ds * ds
		se += de * de
	}
	n := float64(len(samples))
	return math.Sqrt(ss / n), math.Sqrt(se / n)
}

// ResidualRMSEOn is ResidualRMSE over a prebuilt matrix: the same
// fractional RMS residual per objective, without materializing a combined
// sample slice. Empty input returns zeros.
func ResidualRMSEOn(m *Models, tm *TrainingMatrix) (speedup, energy float64) {
	if tm.Len() == 0 {
		return 0, 0
	}
	var ss, se float64
	for i, row := range tm.Rows {
		ds := m.Speedup.Predict(row) - tm.Speedup[i]
		de := m.Energy.Predict(row) - tm.Energy[i]
		ss += ds * ds
		se += de * de
	}
	n := float64(tm.Len())
	return math.Sqrt(ss / n), math.Sqrt(se / n)
}

// Prediction is one predicted kernel execution: a frequency configuration
// with its predicted objectives.
type Prediction struct {
	Config     freq.Config `json:"config"`
	Speedup    float64     `json:"speedup"`
	NormEnergy float64     `json:"norm_energy"`
	// MemLHeuristic marks the configuration appended by the mem-L rule
	// rather than predicted by the models.
	MemLHeuristic bool `json:"mem_l_heuristic,omitempty"`
}

// Predictor pairs trained models with the frequency ladder they predict
// over. It has no behaviour of its own: the prediction phase (the ladder
// sweep, the Pareto set and the mem-L point) is engine.Predictor, built on
// the rules below.
type Predictor struct {
	Models *Models
	Ladder *freq.Ladder
}

// ExcludeMemL drops lowest-memory-clock candidates when the ladder has more
// than one memory clock — those configurations are handled by the mem-L
// heuristic rather than the models (Section 4.5).
func ExcludeMemL(ladder *freq.Ladder, cfgs []freq.Config) []freq.Config {
	mems := ladder.MemClocks()
	if len(mems) <= 1 {
		return cfgs
	}
	low := mems[len(mems)-1]
	out := make([]freq.Config, 0, len(cfgs))
	for _, cfg := range cfgs {
		if cfg.Mem == low {
			continue
		}
		out = append(out, cfg)
	}
	return out
}

// MemLHeuristicConfig returns the configuration the mem-L rule appends: the
// highest-core configuration of the lowest memory clock. ok is false when
// the ladder has a single memory clock (e.g. the P100).
func MemLHeuristicConfig(ladder *freq.Ladder) (freq.Config, bool) {
	mems := ladder.MemClocks()
	if len(mems) <= 1 {
		return freq.Config{}, false
	}
	low := mems[len(mems)-1]
	cores := ladder.CoreClocks(low)
	if len(cores) == 0 {
		return freq.Config{}, false
	}
	return freq.Config{Mem: low, Core: cores[len(cores)-1]}, true
}

// modelsJSON is the serialized form of Models.
type modelsJSON struct {
	Speedup json.RawMessage `json:"speedup"`
	Energy  json.RawMessage `json:"energy"`
}

// Save writes both models as a single JSON document.
func (m *Models) Save(w io.Writer) error {
	var sb, eb bytes.Buffer
	if err := m.Speedup.Save(&sb); err != nil {
		return err
	}
	if err := m.Energy.Save(&eb); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(modelsJSON{Speedup: sb.Bytes(), Energy: eb.Bytes()})
}

// ErrDim marks a model whose support vectors are not features.Dim wide:
// it was fitted to another feature layout and cannot predict this one.
var ErrDim = errors.New("core: model input dimension differs from features.Dim")

// Load reads models saved by Save. A model whose support vectors are not
// features.Dim wide is rejected with an error wrapping ErrDim.
func Load(r io.Reader) (*Models, error) {
	var mj modelsJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: decode models: %w", err)
	}
	sm, err := svm.Load(bytes.NewReader(mj.Speedup))
	if err != nil {
		return nil, fmt.Errorf("core: speedup model: %w", err)
	}
	em, err := svm.Load(bytes.NewReader(mj.Energy))
	if err != nil {
		return nil, fmt.Errorf("core: energy model: %w", err)
	}
	for _, m := range []*svm.Model{sm, em} {
		if svs := m.SupportVectors; len(svs) > 0 && len(svs[0]) != features.Dim {
			return nil, fmt.Errorf("%w: support vectors have %d entries, want %d", ErrDim, len(svs[0]), features.Dim)
		}
	}
	return &Models{Speedup: sm, Energy: em}, nil
}

// SaveFile writes the models to a file path.
func (m *Models) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads models from a file path.
func LoadFile(path string) (*Models, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
