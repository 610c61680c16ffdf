package adapt

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
)

// Observation is one measured production sample reported back to the
// serving stack: a kernel's static features, the frequency configuration it
// actually ran at, and the measured objectives relative to default clocks —
// the same (input, label) shape as a training sample, but observed live
// instead of sampled offline.
type Observation struct {
	// Kernel optionally names the kernel the sample came from (diagnostics
	// only; the features identify it to the models).
	Kernel string `json:"kernel,omitempty"`
	// Node names the fleet node that reported the observation ("" for
	// observations ingested locally). The control plane stamps it from the
	// forwarding agent's registration, so fleet-wide aggregation can be
	// broken down per node (StoreStats.Nodes) without trusting the body.
	Node string `json:"node,omitempty"`
	// Features is the kernel's static feature vector.
	Features features.Static `json:"features"`
	// Config is the frequency configuration the kernel ran at.
	Config freq.Config `json:"config"`
	// Speedup is the measured speedup relative to default clocks.
	Speedup float64 `json:"speedup"`
	// NormEnergy is the measured energy relative to default clocks.
	NormEnergy float64 `json:"norm_energy"`
	// At is when the observation was ingested (set by the store).
	At time.Time `json:"at"`
}

// Validate rejects observations the models could not learn from: non-finite
// or non-positive objectives, invalid feature vectors, and non-positive
// clocks. NaN/Inf guarding here is what keeps a single corrupt report from
// poisoning the rolling error and every later retrain.
func (o Observation) Validate() error {
	if !o.Features.Valid() {
		return fmt.Errorf("adapt: invalid static features %v", o.Features)
	}
	for name, v := range map[string]float64{"speedup": o.Speedup, "norm_energy": o.NormEnergy} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("adapt: %s is not finite", name)
		}
		if v <= 0 {
			return fmt.Errorf("adapt: %s must be positive, got %g", name, v)
		}
	}
	if o.Config.Mem <= 0 || o.Config.Core <= 0 {
		return fmt.Errorf("adapt: invalid configuration %v", o.Config)
	}
	return nil
}

// Sample converts the observation to a supervised training sample, the
// shape a retrain folds into the training set.
func (o Observation) Sample() core.Sample {
	return core.Sample{
		Kernel:     o.Kernel,
		Config:     o.Config,
		Vector:     features.Combine(o.Features, o.Config),
		Speedup:    o.Speedup,
		NormEnergy: o.NormEnergy,
	}
}

// StoreStats is a snapshot of the observation store's accounting.
type StoreStats struct {
	// Count is the number of observations currently held.
	Count int `json:"count"`
	// Capacity is the store's bound.
	Capacity int `json:"capacity"`
	// Total is how many observations were ever ingested.
	Total int `json:"total"`
	// Dropped is how many old observations the bound evicted.
	Dropped int `json:"dropped"`
	// Nodes breaks the held observations down by reporting fleet node
	// (Observation.Node); locally ingested observations have no node and
	// are not listed. Empty when no fleet node has reported.
	Nodes map[string]int `json:"nodes,omitempty"`
}

// store is a bounded ring buffer of observations: ingestion is O(1), the
// bound evicts the oldest sample, and snapshots copy out in arrival order.
// A parallel ring memoizes each observation's prediction error, so the
// drift window costs one prediction per ingest, not one per window slot.
type store struct {
	mu      sync.Mutex
	buf     []Observation
	errs    []obsErr // errs[i] memoizes buf[i]'s prediction error
	start   int      // index of the oldest observation
	count   int
	total   int
	dropped int
	nodes   map[string]int // held observations per reporting node

	// errPred is the predictor the memoized errors were last computed
	// against and errGen its generation. Only that one predictor is
	// pinned, however many hot-swaps the held observations have seen.
	errPred *engine.Predictor
	errGen  uint64
}

// obsErr is one slot's memoized signed prediction errors, current while gen
// equals the store's errGen (gen 0 = never evaluated, as for a fresh or
// WAL-restored observation).
type obsErr struct {
	gen    uint64
	ds, de float64
}

func newStore(capacity int) *store {
	return &store{
		buf:   make([]Observation, capacity),
		errs:  make([]obsErr, capacity),
		nodes: map[string]int{},
	}
}

// add ingests one observation, evicting the oldest past the bound.
func (s *store) add(o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := (s.start + s.count) % len(s.buf)
	if s.count == len(s.buf) {
		s.nodeDelta(s.buf[i].Node, -1)
		s.start = (s.start + 1) % len(s.buf)
		s.dropped++
	} else {
		s.count++
	}
	s.buf[i] = o
	s.errs[i] = obsErr{}
	s.nodeDelta(o.Node, 1)
	s.total++
}

// nodeDelta adjusts the per-node held count; locally ingested observations
// (no node) are not tracked. Caller holds mu.
func (s *store) nodeDelta(node string, d int) {
	if node == "" {
		return
	}
	if s.nodes[node] += d; s.nodes[node] <= 0 {
		delete(s.nodes, node)
	}
}

// restore seeds the ring from a WAL replay: obs is the recovered window
// (oldest first, at most capacity entries) and total the lifetime ingest
// count the log recorded. The ring invariant dropped = total - count makes
// the full pre-crash accounting reconstructible from just those two —
// replay is bit-identical to having ingested every observation live.
func (s *store) restore(obs []Observation, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(obs); n > len(s.buf) {
		obs = obs[n-len(s.buf):]
	}
	copy(s.buf, obs)
	clear(s.errs)
	s.start = 0
	s.count = len(obs)
	s.total = total
	s.dropped = total - s.count
	s.nodes = map[string]int{}
	for _, o := range obs {
		s.nodeDelta(o.Node, 1)
	}
}

// tail copies out the newest n observations, oldest of them first.
func (s *store) tail(n int) []Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.count {
		n = s.count
	}
	out := make([]Observation, n)
	for i := 0; i < n; i++ {
		out[i] = s.buf[(s.start+s.count-n+i)%len(s.buf)]
	}
	return out
}

// residuals returns the newest n observations' count and per-objective
// RMSE against pred, bit-identical to Residuals(pred, tail(n)): each slot's
// error is computed at most once per predictor (after a hot-swap, each
// window slot is re-evaluated once) and the squares are summed in window
// order, oldest first. Evaluation runs under the lock, so concurrent
// callers never predict the same slot twice.
func (s *store) residuals(pred *engine.Predictor, n int) (samples int, speedup, energy float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.count {
		n = s.count
	}
	if n == 0 {
		return 0, 0, 0
	}
	if pred != s.errPred {
		s.errPred = pred
		s.errGen++
	}
	var ss, se float64
	i := (s.start + s.count - n) % len(s.buf)
	for k := 0; k < n; k++ {
		e := &s.errs[i]
		if e.gen != s.errGen {
			e.ds, e.de = obsError(pred, s.buf[i])
			e.gen = s.errGen
		}
		ss += e.ds * e.ds
		se += e.de * e.de
		if i++; i == len(s.buf) {
			i = 0
		}
	}
	speedup, energy = rmse(ss, se, n)
	return n, speedup, energy
}

// stats snapshots the accounting counters.
func (s *store) stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{Count: s.count, Capacity: len(s.buf), Total: s.total, Dropped: s.dropped}
	if len(s.nodes) > 0 {
		st.Nodes = make(map[string]int, len(s.nodes))
		for n, c := range s.nodes {
			st.Nodes[n] = c
		}
	}
	return st
}
