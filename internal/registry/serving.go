package registry

import (
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
)

// VersionStats is the serving-side accounting of one model version: the
// policy governor's decision-cache and front-memo counters accumulated
// while the version was (or is) active. Stats for retired versions are
// frozen at swap time, so a retrain no longer discards the in-flight
// counters of the model it replaces.
type VersionStats struct {
	// Decisions is the policy governor's cache accounting: decision cache,
	// front table and sweep LRU.
	Decisions policy.Stats `json:"decisions"`
	// Live marks the currently serving version; retired versions report
	// their final counters.
	Live bool `json:"live"`
	// RetiredAt is when a retired version stopped serving (zero while Live).
	RetiredAt time.Time `json:"retired_at"`
}

// Serving is the in-process half of the registry: it holds the active
// (version, predictor, governor) triple behind an RWMutex and swaps it
// atomically when a new version is installed, so /predict and /select
// readers never block on a retrain — they either see the old triple or
// the new one, both complete. It also archives the final cache counters
// of every retired version, keyed by version id.
type Serving struct {
	mu      sync.RWMutex
	version string
	pred    *engine.Predictor
	gov     *policy.Governor
	retired map[string]VersionStats
	swaps   int
}

// NewServing returns an empty serving holder; Install publishes the first
// version.
func NewServing() *Serving {
	return &Serving{retired: map[string]VersionStats{}}
}

// Install atomically swaps the active version: the outgoing governor's
// counters are frozen into the retired-stats archive, and the new
// predictor is published together with a fresh governor built over it
// (decisions cached against the old models must not outlive them).
// In-flight requests holding the previous triple finish against it safely;
// new requests see the new one. The governor carries no front table; the
// serving path uses InstallWithFronts.
func (s *Serving) Install(version string, pred *engine.Predictor) {
	s.InstallWithFronts(version, pred, nil)
}

// InstallWithFronts is Install with the snapshot's publish-time front
// table: the fresh governor resolves kernels in the table with zero SVR
// evaluations and falls back to live sweeps for the rest. A nil table
// behaves exactly like Install.
func (s *Serving) InstallWithFronts(version string, pred *engine.Predictor, fronts *Fronts) {
	gov := policy.NewGovernorWithFronts(pred, 0, fronts.Map())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retire()
	s.version = version
	s.pred = pred
	s.gov = gov
	s.swaps++
}

// retire freezes the current version's counters. Caller holds mu.
func (s *Serving) retire() {
	if s.pred == nil {
		return
	}
	s.retired[s.version] = VersionStats{Decisions: s.gov.Stats(), RetiredAt: time.Now().UTC()}
}

// Current returns the active version id, predictor, and governor as one
// consistent snapshot. ok is false before the first Install.
func (s *Serving) Current() (version string, pred *engine.Predictor, gov *policy.Governor, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version, s.pred, s.gov, s.pred != nil
}

// Version returns the active version id ("" before the first Install).
func (s *Serving) Version() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Swaps returns how many times Install has published a version.
func (s *Serving) Swaps() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.swaps
}

// StatsFor returns the serving stats recorded for a version: live counters
// for the active version, frozen ones for a retired version. ok is false
// for versions that never served.
func (s *Serving) StatsFor(version string) (VersionStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if version != "" && version == s.version && s.pred != nil {
		return VersionStats{Decisions: s.gov.Stats(), Live: true}, true
	}
	vs, ok := s.retired[version]
	return vs, ok
}

// AllStats returns the stats of every version that has served in this
// process, live and retired, keyed by version id.
func (s *Serving) AllStats() map[string]VersionStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]VersionStats, len(s.retired)+1)
	for v, vs := range s.retired {
		out[v] = vs
	}
	if s.pred != nil {
		out[s.version] = VersionStats{Decisions: s.gov.Stats(), Live: true}
	}
	return out
}
