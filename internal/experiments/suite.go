// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4): the motivational frequency sweeps (Fig. 1), the
// supported-configuration maps (Fig. 4), the application characterization
// scatter (Fig. 5), the per-memory-frequency prediction-error analyses for
// speedup (Fig. 6) and normalized energy (Fig. 7), the predicted-vs-real
// Pareto fronts (Fig. 8), and the coverage-difference table (Table 2).
//
// Each experiment returns structured rows/series and has a Render function
// that prints the same content as an aligned text report, so the cmd
// binaries and the root benchmarks share one implementation.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/registry"
)

// Provenance identifies the trained model set an experiment's tables were
// produced from, so regenerated paper artifacts are attributable to a
// registry snapshot. Version is the registry version id, or "in-memory"
// for models trained ad hoc for the run.
type Provenance struct {
	// Version is the model version id ("in-memory" when untracked).
	Version string `json:"version"`
	// Device names the GPU profile the models were trained for.
	Device string `json:"device"`
	// Hash is the model set's content hash (registry.HashModels).
	Hash string `json:"hash"`
}

// String renders the provenance the way reports print it.
func (p Provenance) String() string {
	if p.Hash == "" {
		return fmt.Sprintf("%s/%s", p.Device, p.Version)
	}
	return fmt.Sprintf("%s/%s (hash %.8s…)", p.Device, p.Version, p.Hash)
}

// ProvenanceFor builds the provenance of a model set. An empty version is
// recorded as "in-memory".
func ProvenanceFor(device string, m *core.Models, version string) (Provenance, error) {
	hash, err := registry.HashModels(m)
	if err != nil {
		return Provenance{}, err
	}
	if version == "" {
		version = "in-memory"
	}
	return Provenance{Version: version, Device: device, Hash: hash}, nil
}

// Suite owns the concurrent engine (device, harness, lazily trained models,
// cached predictor) that the experiments share. All training and prediction
// flows through internal/engine, the same path the commands use.
type Suite struct {
	eng *engine.Engine

	// modelVersion labels the models' registry version in report
	// provenance; empty means trained in-memory for this run.
	modelVersion string

	trainOnce sync.Once
	trainErr  error

	sweepMu sync.Mutex
	sweeps  map[string][]measure.Relative
}

// NewSuite builds a suite over an engine: a fresh one such as
// engine.NewDefault trains on first use, and an already trained one is
// reused as is.
func NewSuite(e *engine.Engine) *Suite {
	return &Suite{eng: e, sweeps: map[string][]measure.Relative{}}
}

// Harness exposes the measurement harness.
func (s *Suite) Harness() *measure.Harness { return s.eng.Harness() }

// Engine exposes the suite's engine.
func (s *Suite) Engine() *engine.Engine { return s.eng }

// Models trains (once) the speedup and energy models on the full synthetic
// training set via the engine's worker pool.
func (s *Suite) Models() (*core.Models, error) {
	s.trainOnce.Do(func() {
		if s.eng.Trained() {
			return // engine arrived pre-trained
		}
		if _, err := s.eng.TrainDefault(context.Background()); err != nil {
			s.trainErr = fmt.Errorf("experiments: training: %w", err)
		}
	})
	if s.trainErr != nil {
		return nil, s.trainErr
	}
	return s.eng.Models(), nil
}

// Predictor returns the engine's cached concurrent predictor.
func (s *Suite) Predictor() (*engine.Predictor, error) {
	if _, err := s.Models(); err != nil {
		return nil, err
	}
	return s.eng.Predictor()
}

// SetModelVersion labels the suite's models with their registry version
// id, recorded in every table's provenance. Call it when the engine was
// loaded from a registry snapshot rather than trained in-process.
func (s *Suite) SetModelVersion(version string) { s.modelVersion = version }

// Provenance returns the provenance of the suite's models (training them
// first if needed): the version label, the device profile, and the model
// content hash that every generated table records.
func (s *Suite) Provenance() (Provenance, error) {
	models, err := s.Models()
	if err != nil {
		return Provenance{}, err
	}
	return ProvenanceFor(s.Harness().Device().Name(), models, s.modelVersion)
}

// Sweep measures (once) the full configuration sweep of a test benchmark.
func (s *Suite) Sweep(name string) ([]measure.Relative, error) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if rels, ok := s.sweeps[name]; ok {
		return rels, nil
	}
	b, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	rels, err := s.Harness().Sweep(b.Profile())
	if err != nil {
		return nil, fmt.Errorf("experiments: sweeping %s: %w", name, err)
	}
	s.sweeps[name] = rels
	return rels, nil
}
