package registry

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
)

// FrontEntry is one kernel's precomputed prediction data: the full
// (speedup, energy) grid over the modeled frequency ladder and the Pareto
// set derived from it (modeled front points plus, when the device has one,
// the trailing mem-L heuristic point) — exactly what a live
// engine.Predictor.ParetoSet sweep would produce for the same features.
type FrontEntry struct {
	// Name labels the kernel the entry was computed for (diagnostic only;
	// lookups key on Features).
	Name string `json:"name"`
	// Features is the static feature vector the entry is keyed by.
	Features features.Static `json:"features"`
	// Grid is the model prediction at every modeled ladder configuration,
	// in ladder order.
	Grid []core.Prediction `json:"grid"`
	// Pareto is the derived Pareto set, ascending by speedup, with the
	// mem-L heuristic point appended when the device defines one.
	Pareto []core.Prediction `json:"pareto"`
}

// Fronts is the publish-time prediction table of a snapshot: one entry per
// training kernel, computed by sweeping the full frequency ladder with the
// snapshot's own models at publish time. A governor holding the table
// resolves policies for known kernels with a map lookup — zero SVR
// evaluations — and falls back to the live sweep for unknown kernels.
//
// A table returned by Store.LoadFronts or Store.LoadFull is immutable: the
// Store shares one decoded table among every caller that reads the same
// document, so callers must not mutate it or the slices it holds.
type Fronts struct {
	// Kernels lists the per-kernel entries in publication order.
	Kernels []FrontEntry `json:"kernels"`
}

// FrontsInfo is the manifest's summary of a snapshot's precomputed fronts:
// the kernel count and a SHA-256 hash of the serialized table, verified on
// load exactly like the model hash. Nil on snapshots published without
// fronts (pre-fronts binaries), which still load and serve.
type FrontsInfo struct {
	// Kernels is the number of per-kernel entries.
	Kernels int `json:"kernels"`
	// Hash is the SHA-256 hex digest of the canonical serialized table.
	Hash string `json:"hash"`
}

// ComputeFronts sweeps the full modeled frequency ladder for every kernel
// with the predictor's models and derives each kernel's Pareto set — the
// publish-time half of the front-backed serving path. The entries are
// bit-identical to what a live ParetoSet sweep over the same models
// produces, so serving from the table is indistinguishable from serving
// the sweep (pinned by the registry tests).
func ComputeFronts(pred *engine.Predictor, kernels []core.TrainingKernel) *Fronts {
	f := &Fronts{Kernels: make([]FrontEntry, 0, len(kernels))}
	seen := make(map[features.Static]bool, len(kernels))
	for _, k := range kernels {
		if seen[k.Features] {
			continue // identical feature vectors share one entry
		}
		seen[k.Features] = true
		grid := pred.PredictAll(k.Features)
		f.Kernels = append(f.Kernels, FrontEntry{
			Name:     k.Name,
			Features: k.Features,
			Grid:     grid,
			Pareto:   pred.FrontOf(k.Features, grid),
		})
	}
	return f
}

// Map returns the lookup table the policy governor consumes: static
// features to Pareto set. The returned slices alias the table; callers
// must not mutate them.
func (f *Fronts) Map() map[features.Static][]core.Prediction {
	if f == nil {
		return nil
	}
	out := make(map[features.Static][]core.Prediction, len(f.Kernels))
	for i := range f.Kernels {
		out[f.Kernels[i].Features] = f.Kernels[i].Pareto
	}
	return out
}

// Len returns the number of per-kernel entries (0 for a nil table).
func (f *Fronts) Len() int {
	if f == nil {
		return 0
	}
	return len(f.Kernels)
}

// encodeFronts serializes a fronts table and returns the document plus its
// content hash (the value recorded in — and verified against — the
// manifest's FrontsInfo).
func encodeFronts(f *Fronts) (doc []byte, hash string, err error) {
	doc, err = json.Marshal(f)
	if err != nil {
		return nil, "", fmt.Errorf("registry: encoding fronts: %w", err)
	}
	hash, err = hashRaw(doc)
	if err != nil {
		return nil, "", err
	}
	return doc, hash, nil
}

// decodeFronts parses and integrity-checks a snapshot's fronts section
// against its manifest summary. Both absent is the pre-fronts format and
// returns (nil, nil); one present without the other, a hash mismatch, or
// a kernel-count mismatch is corruption.
func decodeFronts(device, version string, raw json.RawMessage, info *FrontsInfo) (*Fronts, error) {
	if len(raw) == 0 && info == nil {
		return nil, nil
	}
	if len(raw) == 0 || info == nil {
		return nil, fmt.Errorf("%w: %s/%s: fronts section and manifest fronts summary disagree",
			ErrCorrupt, device, version)
	}
	hash, err := hashRaw(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, device, version, err)
	}
	if hash != info.Hash {
		return nil, fmt.Errorf("%w: %s/%s: fronts hash mismatch (manifest %.8s…, computed %.8s…)",
			ErrCorrupt, device, version, info.Hash, hash)
	}
	var f Fronts
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%w: %s/%s: fronts: %v", ErrCorrupt, device, version, err)
	}
	if len(f.Kernels) != info.Kernels {
		return nil, fmt.Errorf("%w: %s/%s: fronts carry %d kernels, manifest claims %d",
			ErrCorrupt, device, version, len(f.Kernels), info.Kernels)
	}
	return &f, nil
}
