// Package gen makes the benchmark's inputs from a seed: the known-kernel
// request stream, never-repeated novel OpenCL kernels, simulator-measured
// observation streams before and after a workload shift, fleet kernel
// mixes, and the budget steps. The same seed always yields byte-identical
// inputs; the daemon under test only ever sees what these functions make.
//
// The package imports only input-side packages of the repository (the
// synthetic and test kernel suites, the feature extractor and the
// simulated measurement harness), never the serving layers it measures.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/synth"
)

// Device is the GPU profile every workload serves.
const Device = "titanx"

// DriftSettings is the number of sampled settings per training kernel of
// observe-drift's fresh training deployments: low enough that one trains
// in about two seconds on 2 vCPUs, where the daemon's default (40) takes
// sixteen. The other workloads serve a base trained at the default.
const DriftSettings = 10

// Policies are the daemon's five built-in policy names, sent in rotation.
var Policies = []string{"min-energy", "max-perf", "edp", "ed2p", "balanced"}

// Kernel is one OpenCL kernel as a client sends it, with the static
// features the daemon will extract from it.
type Kernel struct {
	Name     string          `json:"name"`
	Source   string          `json:"source"`
	Features features.Static `json:"features"`
}

// Known returns the 106 synthetic training kernels: the kernels whose
// Pareto fronts every published snapshot carries.
func Known() []Kernel {
	bs := synth.Generate()
	out := make([]Kernel, len(bs))
	for i := range bs {
		out[i] = Kernel{Name: bs[i].KernelName, Source: bs[i].Source, Features: bs[i].Features()}
	}
	return out
}

// knownFeatures is the set of feature vectors in a snapshot's front table.
func knownFeatures() map[features.Static]bool {
	seen := map[features.Static]bool{}
	for _, k := range Known() {
		seen[k.Features] = true
	}
	return seen
}

// Pair is one (kernel, policy) decision request by index into Known and
// Policies.
type Pair struct{ Kernel, Policy int }

// KnownPairs returns every (kernel, policy) pair of the known suite in a
// seeded order.
func KnownPairs(seed int64) []Pair {
	n := len(synth.Generate()) * len(Policies)
	out := make([]Pair, n)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(n) {
		out[i] = Pair{Kernel: j / len(Policies), Policy: j % len(Policies)}
	}
	return out
}

// Novel produces mixed-feature OpenCL kernels that never repeat: each has a
// static feature vector distinct from every earlier one and from every
// known kernel, so no cache keyed on features can hold it.
type Novel struct {
	r    *rand.Rand // kernel stream
	vr   *rand.Rand // feature-vector stream, independent of the kernels taken
	n    int
	seen map[features.Static]bool
}

// NewNovel starts the novel-kernel stream of a seed.
func NewNovel(seed int64) *Novel {
	return &Novel{
		r:    rand.New(rand.NewSource(seed)),
		vr:   rand.New(rand.NewSource(^seed)),
		seen: knownFeatures(),
	}
}

// Next returns the stream's next kernel.
func (g *Novel) Next() Kernel {
	for {
		name := fmt.Sprintf("nv_%d", g.n)
		g.n++
		src := novelSource(g.r, name)
		st, err := features.ExtractSource(src, name)
		if err != nil {
			panic(fmt.Sprintf("gen: novel kernel does not parse: %v\n%s", err, src))
		}
		if g.seen[st] {
			continue
		}
		g.seen[st] = true
		return Kernel{Name: name, Source: src, Features: st}
	}
}

// Take returns the stream's next n kernels.
func (g *Novel) Take(n int) []Kernel {
	out := make([]Kernel, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// novelSource writes one kernel whose instruction mix is drawn at random:
// float and integer arithmetic chains, bitwise operations, special
// functions, and global and local memory traffic in seeded proportions.
func novelSource(r *rand.Rand, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "__kernel void %s(__global float* data, __global int* idx, int n) {\n", name)
	b.WriteString("    __local float tile[64];\n")
	b.WriteString("    int gid = get_global_id(0);\n    int lid = get_local_id(0) & 63;\n")
	b.WriteString("    int mask = n - 1;\n    int a = idx[gid & mask];\n")
	b.WriteString("    float f0 = data[gid & mask];\n    float f1 = 0.5f;\n")
	for k, n := 0, r.Intn(20); k < n; k++ {
		fmt.Fprintf(&b, "    f%d = f%d + %d.25f;\n", k%2, k%2, k+1)
	}
	for k, n := 0, r.Intn(14); k < n; k++ {
		fmt.Fprintf(&b, "    f%d = f%d * 1.0%df;\n", k%2, k%2, k%9+1)
	}
	for k, n := 0, r.Intn(4); k < n; k++ {
		fmt.Fprintf(&b, "    f1 = f1 / (f0 + %d.0f);\n", k+2)
	}
	for k, n := 0, r.Intn(16); k < n; k++ {
		fmt.Fprintf(&b, "    a = a + %d;\n", k+3)
	}
	for k, n := 0, r.Intn(8); k < n; k++ {
		fmt.Fprintf(&b, "    a = a * %d;\n", k%5+3)
	}
	for k, n := 0, r.Intn(3); k < n; k++ {
		fmt.Fprintf(&b, "    a = a / %d;\n", k+2)
	}
	for k, n := 0, r.Intn(10); k < n; k++ {
		fmt.Fprintf(&b, "    a = a ^ %d;\n", 2*k+1)
	}
	sfs := []string{"sqrt", "exp", "sin", "log"}
	for k, n := 0, r.Intn(5); k < n; k++ {
		fmt.Fprintf(&b, "    f1 = %s(f1 + 1.0f);\n", sfs[k%len(sfs)])
	}
	for k, n := 0, r.Intn(7); k < n; k++ {
		fmt.Fprintf(&b, "    f0 += data[(gid + %d) & mask];\n", (k+1)*256)
	}
	if n := r.Intn(5); n > 0 {
		b.WriteString("    tile[lid] = f0;\n    barrier(CLK_LOCAL_MEM_FENCE);\n")
		for k := 0; k < n; k++ {
			fmt.Fprintf(&b, "    f1 += tile[(lid + %d) & 63];\n", 8*(k+1))
		}
	}
	b.WriteString("    data[gid & mask] = f0 + f1 + (float)a;\n}\n")
	return b.String()
}

// Vectors returns n static feature vectors for /predict/batch frames:
// instruction-class shares drawn at random (exponential weights over the
// ten feature classes and the uncounted remainder, normalized), so every
// vector is valid and, being continuous, never repeats one seen before.
func (g *Novel) Vectors(n int) []features.Static {
	out := make([]features.Static, n)
	for i := range out {
		var w [features.StaticDim + 1]float64
		var sum float64
		for j := range w {
			w[j] = g.vr.ExpFloat64()
			sum += w[j]
		}
		for j := range out[i] {
			out[i][j] = w[j] / sum
		}
	}
	return out
}

// Observation is one measured sample in the daemon's /observe and
// /fleet/observe wire shape.
type Observation struct {
	Kernel     string          `json:"kernel,omitempty"`
	Features   features.Static `json:"features"`
	Config     freq.Config     `json:"config"`
	Speedup    float64         `json:"speedup"`
	NormEnergy float64         `json:"norm_energy"`
}

// Drift returns the observe-drift workload's two observation streams:
// the twelve test benchmarks measured by the simulator at every core clock
// of the two highest memory clocks (where production governors apply
// their decisions), first as profiled and then under a workload shift.
// The shift is the one the drift-recovery experiment injects: caches
// collapse and accesses scatter, so measured curves flatten toward
// memory-bound behaviour while the static features the models see stay
// the same. Each stream is in a seeded order.
func Drift(seed int64) (pre, post []Observation, err error) {
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	ladder := h.Device().Sim().Ladder
	var cfgs []freq.Config
	for _, m := range ladder.MemClocks()[:2] {
		for _, c := range ladder.CoreClocks(m) {
			cfgs = append(cfgs, freq.Config{Mem: m, Core: c})
		}
	}
	measureAll := func(shift bool) ([]Observation, error) {
		var out []Observation
		for _, b := range bench.All() {
			prof := b.Profile()
			if shift {
				prof.CacheHitRate = 0
				prof.Coalescing = 0.12
			}
			hc := h.Clone()
			base, err := hc.Baseline(prof)
			if err != nil {
				return nil, err
			}
			st := b.Features()
			for _, cfg := range cfgs {
				rel, err := hc.MeasureRelative(prof, cfg, base)
				if err != nil {
					return nil, err
				}
				out = append(out, Observation{
					Kernel: b.Name, Features: st, Config: rel.Config,
					Speedup: rel.Speedup, NormEnergy: rel.NormEnergy,
				})
			}
		}
		return out, nil
	}
	if pre, err = measureAll(false); err != nil {
		return nil, nil, err
	}
	if post, err = measureAll(true); err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(pre), func(i, j int) { pre[i], pre[j] = pre[j], pre[i] })
	r.Shuffle(len(post), func(i, j int) { post[i], post[j] = post[j], post[i] })
	return pre, post, nil
}

// Mix is one simulated fleet node and the observation batch that sets its
// kernel mix.
type Mix struct {
	Node         string        `json:"node"`
	Observations []Observation `json:"observations"`
}

// Mixes returns nodes simulated fleet nodes, each running a seeded mix of
// perNode distinct known kernels. A kernel's share of the node's time is
// set by how many times it is observed (one to four). Observations are at
// the default clocks, where the ground truth is speedup 1 and normalized
// energy 1 by definition.
func Mixes(seed int64, nodes, perNode int) []Mix {
	r := rand.New(rand.NewSource(seed))
	known := Known()
	def := gpu.TitanX().Ladder.Default()
	out := make([]Mix, nodes)
	for n := range out {
		m := Mix{Node: fmt.Sprintf("n%02d", n)}
		for _, k := range r.Perm(len(known))[:perNode] {
			for c := 1 + r.Intn(4); c > 0; c-- {
				m.Observations = append(m.Observations, Observation{
					Kernel: known[k].Name, Features: known[k].Features, Config: def,
					Speedup: 1, NormEnergy: 1,
				})
			}
		}
		out[n] = m
	}
	return out
}

// Step is one fleet budget request: a cap in normalized units (one node at
// default clocks costs 1.0) on fleet power or energy.
type Step struct {
	Total float64 `json:"total"`
	Unit  string  `json:"unit"`
}

// Steps returns the fleet-budget workload's budget sequence for a fleet of
// the given size: caps of 0.6, 0.7, 0.8 and 0.9 per node on both power
// and energy, in a seeded order, each sent twice in a row so every other
// replan finds its tables already delivered.
func Steps(seed int64, nodes int) []Step {
	var steps []Step
	for _, unit := range []string{"power", "energy"} {
		for _, f := range []float64{0.6, 0.7, 0.8, 0.9} {
			steps = append(steps, Step{Total: f * float64(nodes), Unit: unit})
		}
	}
	out := make([]Step, 0, 2*len(steps))
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(steps)) {
		out = append(out, steps[i], steps[i])
	}
	return out
}
