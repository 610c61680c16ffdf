package policy

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
)

// defaultCacheSize bounds the governor's decision cache when the caller
// passes 0 to NewGovernor.
const defaultCacheSize = 4096

// Governor resolves policy specs against a trained predictor and memoizes
// whole decisions: one (kernel features, resolved spec) pair costs a full
// ladder sweep plus Pareto derivation the first time and a map lookup
// afterwards. It is the shared policy layer under cmd/gpufreqd's /select
// endpoint, the gpufreq select subcommand, and examples/scheduler. All
// methods are safe for concurrent use.
//
// Below the decision cache sits the per-kernel front memo, the only cache
// between a kernel and its Pareto set (ParetoSet, which /predict uses
// too). A governor built with NewGovernorWithFronts pre-populates it with
// the snapshot's publish-time front table: kernels in the table resolve
// with a map lookup and zero SVR evaluations. Kernels outside the table
// fall back to the live ladder sweep, whose result is memoized in a sweep
// LRU keyed on the static features alone — so differing specs, and
// /predict, over the same unknown kernel share one sweep instead of
// re-running it per request.
//
// A Governor is bound to the Predictor it was built with; after retraining
// (which installs a new Predictor on the engine) build a new Governor so
// stale decisions cannot outlive their models.
type Governor struct {
	pred   *engine.Predictor
	fronts map[features.Static][]core.Prediction // publish-time fronts (nil = none)

	mu  sync.Mutex
	cap int
	m   map[decisionKey]*list.Element
	l   *list.List // front = most recently used

	// sweep LRU: live ladder-sweep results keyed on static features alone,
	// shared across specs. Same capacity and lock discipline as the
	// decision cache.
	sweepM map[features.Static]*list.Element
	sweepL *list.List

	hits        atomic.Uint64
	misses      atomic.Uint64
	frontHits   atomic.Uint64
	sweepHits   atomic.Uint64
	sweepMisses atomic.Uint64
}

// decisionKey identifies one cacheable decision: the kernel's static
// features plus the resolved spec (both comparable value types).
type decisionKey struct {
	st   features.Static
	spec Spec
}

type governorEntry struct {
	k decisionKey
	d Decision
}

type sweepEntry struct {
	st  features.Static
	set []core.Prediction
}

// NewGovernor builds a governor over a trained predictor. cacheSize bounds
// the decision cache and the sweep LRU in entries each: 0 selects the
// default (4096), negative disables both.
func NewGovernor(p *engine.Predictor, cacheSize int) *Governor {
	return NewGovernorWithFronts(p, cacheSize, nil)
}

// NewGovernorWithFronts builds a governor holding a publish-time front
// table: static features to precomputed Pareto set (registry
// Fronts.Map()). Kernels in the table decide with zero SVR evaluations;
// kernels outside it fall back to the live sweep. The governor keeps a
// reference to the map and its slices — callers must not mutate them. A
// nil or empty table behaves exactly like NewGovernor.
func NewGovernorWithFronts(p *engine.Predictor, cacheSize int, fronts map[features.Static][]core.Prediction) *Governor {
	g := &Governor{pred: p, cap: cacheSize}
	if len(fronts) > 0 {
		g.fronts = fronts
	}
	if cacheSize == 0 {
		g.cap = defaultCacheSize
	}
	if g.cap > 0 {
		g.m = make(map[decisionKey]*list.Element)
		g.l = list.New()
		g.sweepM = make(map[features.Static]*list.Element)
		g.sweepL = list.New()
	}
	return g
}

// Predictor returns the predictor the governor resolves policies over.
func (g *Governor) Predictor() *engine.Predictor { return g.pred }

// Decide predicts the kernel's Pareto set and resolves the spec over it,
// consulting the decision cache first.
func (g *Governor) Decide(st features.Static, spec Spec) (Decision, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return Decision{}, err
	}
	key := decisionKey{st: st, spec: spec}
	if d, ok := g.lookup(key); ok {
		g.hits.Add(1)
		return d, nil
	}
	g.misses.Add(1)
	d, err := Choose(g.ParetoSet(st), spec)
	if err != nil {
		return Decision{}, err
	}
	g.store(key, d)
	return d, nil
}

// ParetoSet resolves a kernel's Pareto set through the front memo: the
// publish-time front table (zero SVR evaluations), then the sweep LRU (one
// sweep shared across specs and endpoints), then the predictor's live
// parallel ladder sweep. Every call advances exactly one of FrontHits,
// SweepHits or SweepMisses. The result is bit-identical to
// Predictor().ParetoSet(st) and may be shared with other callers; callers
// must not mutate it.
func (g *Governor) ParetoSet(st features.Static) []core.Prediction {
	if set, ok := g.fronts[st]; ok {
		g.frontHits.Add(1)
		return set
	}
	if set, ok := g.sweepLookup(st); ok {
		g.sweepHits.Add(1)
		return set
	}
	g.sweepMisses.Add(1)
	set := g.pred.ParetoSet(st)
	g.sweepStore(st, set)
	return set
}

func (g *Governor) sweepLookup(st features.Static) ([]core.Prediction, bool) {
	if g.sweepL == nil {
		return nil, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	el, ok := g.sweepM[st]
	if !ok {
		return nil, false
	}
	g.sweepL.MoveToFront(el)
	return el.Value.(*sweepEntry).set, true
}

func (g *Governor) sweepStore(st features.Static, set []core.Prediction) {
	if g.sweepL == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if el, ok := g.sweepM[st]; ok {
		el.Value.(*sweepEntry).set = set
		g.sweepL.MoveToFront(el)
		return
	}
	if g.sweepL.Len() >= g.cap {
		if oldest := g.sweepL.Back(); oldest != nil {
			g.sweepL.Remove(oldest)
			delete(g.sweepM, oldest.Value.(*sweepEntry).st)
		}
	}
	g.sweepM[st] = g.sweepL.PushFront(&sweepEntry{st: st, set: set})
}

// DecideSource is the end-to-end governor entry point: parse OpenCL
// source, extract static features, and decide.
func (g *Governor) DecideSource(src, kernelName string, spec Spec) (Decision, error) {
	st, err := features.ExtractSource(src, kernelName)
	if err != nil {
		return Decision{}, err
	}
	return g.Decide(st, spec)
}

// DecideOver resolves the spec over the kernel's Pareto set restricted to
// the given candidate configurations (e.g. the paper's 40-setting
// evaluation sample). Uncached: the decision depends on the candidate
// list, which is not part of the cache key; callers supplying explicit
// candidates control their own reuse.
func (g *Governor) DecideOver(st features.Static, cfgs []freq.Config, spec Spec) (Decision, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return Decision{}, err
	}
	return Choose(g.pred.ParetoSetOver(st, cfgs), spec)
}

// Stats is a snapshot of the governor's cache counters: the decision
// cache (Hits/Misses/Entries/Capacity), the publish-time front table
// (FrontKernels/FrontHits), and the live-sweep LRU that backs kernels
// outside the table (SweepHits/SweepMisses). Each front resolution
// (ParetoSet) — a decision-cache miss on /select, or a kernel on
// /predict — advances exactly one of FrontHits, SweepHits, or
// SweepMisses; only SweepMisses cost SVR evaluations. FrontHits can
// therefore exceed Misses.
type Stats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	// FrontKernels is the number of kernels in the publish-time front table
	// (0 when the governor serves a snapshot without fronts).
	FrontKernels int `json:"front_kernels"`
	// FrontHits counts front resolutions served from the front table with
	// zero SVR evaluations.
	FrontHits uint64 `json:"front_hits"`
	// SweepHits counts front resolutions that reused a memoized live
	// sweep; SweepMisses counts the sweeps actually run.
	SweepHits   uint64 `json:"sweep_hits"`
	SweepMisses uint64 `json:"sweep_misses"`
}

// Stats returns the governor's cache accounting since construction.
func (g *Governor) Stats() Stats {
	s := Stats{
		Hits:         g.hits.Load(),
		Misses:       g.misses.Load(),
		FrontKernels: len(g.fronts),
		FrontHits:    g.frontHits.Load(),
		SweepHits:    g.sweepHits.Load(),
		SweepMisses:  g.sweepMisses.Load(),
	}
	if g.l != nil {
		g.mu.Lock()
		s.Entries = g.l.Len()
		s.Capacity = g.cap
		g.mu.Unlock()
	}
	return s
}

// FrontKernels returns the number of kernels covered by the governor's
// publish-time front table (0 without fronts).
func (g *Governor) FrontKernels() int { return len(g.fronts) }

func (g *Governor) lookup(k decisionKey) (Decision, bool) {
	if g.l == nil {
		return Decision{}, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	el, ok := g.m[k]
	if !ok {
		return Decision{}, false
	}
	g.l.MoveToFront(el)
	return el.Value.(*governorEntry).d, true
}

func (g *Governor) store(k decisionKey, d Decision) {
	if g.l == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if el, ok := g.m[k]; ok {
		el.Value.(*governorEntry).d = d
		g.l.MoveToFront(el)
		return
	}
	if g.l.Len() >= g.cap {
		if oldest := g.l.Back(); oldest != nil {
			g.l.Remove(oldest)
			delete(g.m, oldest.Value.(*governorEntry).k)
		}
	}
	g.m[k] = g.l.PushFront(&governorEntry{k: k, d: d})
}
