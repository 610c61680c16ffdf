package policy

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gpu"
)

// TestGovernorFrontZeroSVR pins the publish-time-fronts contract: deciding
// a kernel present in the front table performs zero SVR evaluations — the
// sweep counters (SweepMisses counts every live sweep) stay at zero — and
// every such decision is a front hit.
func TestGovernorFrontZeroSVR(t *testing.T) {
	pred := trainedGovernor(t, gpu.TitanX(), -1).Predictor()
	st := bench.All()[0].Features()
	set := pred.ParetoSet(st) // simulate the publish-time sweep

	// Decision cache disabled (-1): every Decide resolves a Pareto set.
	gov := NewGovernorWithFronts(pred, -1,
		map[features.Static][]core.Prediction{st: set})
	if gov.FrontKernels() != 1 {
		t.Fatalf("FrontKernels = %d, want 1", gov.FrontKernels())
	}
	live := NewGovernor(pred, -1)

	// Front decisions must match live decisions spec for spec.
	specs := []Spec{{Name: MinEnergy}, {Name: MaxPerf}, {Name: EDP}, {Name: MinEnergy}}
	for _, spec := range specs {
		d, err := gov.Decide(st, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := live.Decide(st, spec)
		if err != nil {
			t.Fatal(err)
		}
		if d.Chosen.Config != want.Chosen.Config {
			t.Fatalf("%s: front decision %v != live decision %v",
				spec.Name, d.Chosen.Config, want.Chosen.Config)
		}
	}
	// A second pass of front decisions: still front hits, still no sweep.
	for _, spec := range specs {
		if _, err := gov.Decide(st, spec); err != nil {
			t.Fatal(err)
		}
	}

	s := gov.Stats()
	if s.FrontKernels != 1 || s.FrontHits != uint64(2*len(specs)) {
		t.Fatalf("front accounting: %+v, want front_kernels=1 front_hits=%d", s, 2*len(specs))
	}
	if s.SweepHits != 0 || s.SweepMisses != 0 {
		t.Fatalf("front kernel leaked into the sweep layer: %+v", s)
	}
	if got := gov.ParetoSet(st); !reflect.DeepEqual(got, set) {
		t.Fatalf("ParetoSet(st) = %v; want the published set", got)
	}
}

// TestGovernorSweepSharedAcrossSpecs pins the sweep-LRU contract: differing
// specs over the same unknown kernel (not in the front table) share one
// live ladder sweep.
func TestGovernorSweepSharedAcrossSpecs(t *testing.T) {
	gov := trainedGovernor(t, gpu.TitanX(), 0)
	st := bench.All()[1].Features()

	specs := []Spec{{Name: MinEnergy}, {Name: MaxPerf}, {Name: EDP}}
	for _, spec := range specs {
		if _, err := gov.Decide(st, spec); err != nil {
			t.Fatal(err)
		}
	}
	s := gov.Stats()
	if s.Misses != uint64(len(specs)) {
		t.Fatalf("decision misses = %d, want %d (distinct specs)", s.Misses, len(specs))
	}
	if s.SweepMisses != 1 || s.SweepHits != uint64(len(specs)-1) {
		t.Fatalf("sweep not shared across specs: %+v (want 1 miss, %d hits)", s, len(specs)-1)
	}
	if s.FrontKernels != 0 || s.FrontHits != 0 {
		t.Fatalf("frontless governor reported front activity: %+v", s)
	}

	// A second kernel takes its own sweep.
	if _, err := gov.Decide(bench.All()[2].Features(), Spec{Name: MinEnergy}); err != nil {
		t.Fatal(err)
	}
	if s = gov.Stats(); s.SweepMisses != 2 {
		t.Fatalf("second kernel did not sweep: %+v", s)
	}

	// Repeating a (kernel, spec) pair is a decision-cache hit and must not
	// touch the sweep layer again.
	if _, err := gov.Decide(st, specs[0]); err != nil {
		t.Fatal(err)
	}
	if s2 := gov.Stats(); s2.Hits != s.Hits+1 || s2.SweepHits != s.SweepHits || s2.SweepMisses != s.SweepMisses {
		t.Fatalf("decision-cache hit leaked into sweep layer: %+v -> %+v", s, s2)
	}
}

// TestGovernorParetoSetFrontMemo pins the front memo behind ParetoSet,
// the path /predict shares with Decide: a table kernel resolves to the
// published set with one front hit and no sweep, and an unknown kernel
// costs one live sweep on first touch that a later decision over it
// reuses. Both results are bit-identical to the predictor's live sweep.
func TestGovernorParetoSetFrontMemo(t *testing.T) {
	pred := trainedGovernor(t, gpu.TitanX(), -1).Predictor()
	known, unknown := bench.All()[0].Features(), bench.All()[1].Features()
	gov := NewGovernorWithFronts(pred, 0,
		map[features.Static][]core.Prediction{known: pred.ParetoSet(known)})

	if got := gov.ParetoSet(known); !reflect.DeepEqual(got, pred.ParetoSet(known)) {
		t.Fatalf("front-table set differs from the live sweep:\n%+v\n%+v", got, pred.ParetoSet(known))
	}
	if s := gov.Stats(); s.FrontHits != 1 || s.SweepHits != 0 || s.SweepMisses != 0 || s.Hits+s.Misses != 0 {
		t.Fatalf("table kernel accounting: %+v (want one front hit, no sweep, no decision)", s)
	}

	if got := gov.ParetoSet(unknown); !reflect.DeepEqual(got, pred.ParetoSet(unknown)) {
		t.Fatalf("swept set differs from the live sweep:\n%+v\n%+v", got, pred.ParetoSet(unknown))
	}
	if _, err := gov.Decide(unknown, Spec{Name: MinEnergy}); err != nil {
		t.Fatal(err)
	}
	if s := gov.Stats(); s.SweepMisses != 1 || s.SweepHits != 1 || s.FrontHits != 1 || s.Misses != 1 {
		t.Fatalf("unknown kernel accounting: %+v (want one sweep miss, then one sweep hit)", s)
	}
}

// BenchmarkGovernorDecideFront measures the decision path the publish-time
// front table buys: caches disabled, every Decide is a front-table map hit
// plus policy resolution — zero SVR evaluations.
func BenchmarkGovernorDecideFront(b *testing.B) {
	pred := trainedGovernor(b, gpu.TitanX(), -1).Predictor()
	st := bench.All()[0].Features()
	set := pred.ParetoSet(st)
	gov := NewGovernorWithFronts(pred, -1,
		map[features.Static][]core.Prediction{st: set})
	spec := Spec{Name: MinEnergy}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gov.Decide(st, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGovernorDecideHit is the same front-table kernel with the
// decision cache on: after the first call every Decide is a decision-cache
// hit, skipping policy resolution over the front. The gap to
// BenchmarkGovernorDecideFront is what the decision LRU saves.
func BenchmarkGovernorDecideHit(b *testing.B) {
	pred := trainedGovernor(b, gpu.TitanX(), -1).Predictor()
	st := bench.All()[0].Features()
	gov := NewGovernorWithFronts(pred, 0,
		map[features.Static][]core.Prediction{st: pred.ParetoSet(st)})
	spec := Spec{Name: MinEnergy}
	if _, err := gov.Decide(st, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gov.Decide(st, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGovernorDecideLiveSweep is the same decision without fronts or
// caches: a full ladder sweep through both SVRs per call.
func BenchmarkGovernorDecideLiveSweep(b *testing.B) {
	pred := trainedGovernor(b, gpu.TitanX(), -1).Predictor()
	st := bench.All()[0].Features()
	gov := NewGovernor(pred, -1)
	spec := Spec{Name: MinEnergy}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gov.Decide(st, spec); err != nil {
			b.Fatal(err)
		}
	}
}
