package registry

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/policy"
)

func installVersion(t *testing.T, s *Serving, eng *engine.Engine, version string, m *core.Models) {
	t.Helper()
	eng.SetModels(m)
	pred, err := eng.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	s.Install(version, pred)
}

func TestServingInstallAndStats(t *testing.T) {
	eng, models := trainSmall(t)
	s := NewServing()
	if _, _, _, ok := s.Current(); ok {
		t.Fatal("empty serving reports an active triple")
	}
	if s.Version() != "" {
		t.Fatalf("version before install = %q", s.Version())
	}

	installVersion(t, s, eng, "v0001", models)
	version, pred, gov, ok := s.Current()
	if !ok || version != "v0001" || pred == nil || gov == nil {
		t.Fatalf("Current after install: %q %v %v %v", version, pred, gov, ok)
	}
	if gov.Predictor() != pred {
		t.Fatal("governor not bound to the installed predictor")
	}

	// Generate some traffic so v0001 has non-zero counters.
	st := engine.TrainingKernels()[0].Features
	pred.ParetoSet(st)
	if _, err := gov.Decide(st, policy.Spec{Name: policy.EDP}); err != nil {
		t.Fatal(err)
	}
	vs, ok := s.StatsFor("v0001")
	if !ok || !vs.Live || vs.Decisions.SweepMisses == 0 || vs.Decisions.Misses == 0 {
		t.Fatalf("live stats: %+v, %v", vs, ok)
	}

	// Swap: v0001's counters must be preserved (frozen), not dropped.
	installVersion(t, s, eng, "v0002", models)
	old, ok := s.StatsFor("v0001")
	if !ok || old.Live || old.Decisions.SweepMisses == 0 || old.Decisions.Misses == 0 || old.RetiredAt.IsZero() {
		t.Fatalf("retired stats lost on swap: %+v, %v", old, ok)
	}
	fresh, ok := s.StatsFor("v0002")
	if !ok || !fresh.Live || fresh.Decisions.Misses != 0 {
		t.Fatalf("new version stats not fresh: %+v, %v", fresh, ok)
	}
	if s.Swaps() != 2 {
		t.Fatalf("swaps = %d, want 2", s.Swaps())
	}
	if all := allStats(s); len(all) != 2 || !all["v0002"].Live || all["v0001"].Live {
		t.Fatalf("allStats: %+v", all)
	}
	if _, ok := s.StatsFor("v9999"); ok {
		t.Fatal("stats reported for a version that never served")
	}
}

// TestConcurrentPredictDuringHotSwap is the -race acceptance check:
// prediction and selection traffic runs non-stop while versions hot-swap
// underneath; every reader must see a complete (version, predictor,
// governor) triple and never block on or observe a half-installed swap.
func TestConcurrentPredictDuringHotSwap(t *testing.T) {
	eng, models := trainSmall(t)
	s := NewServing()
	installVersion(t, s, eng, "v0001", models)

	kernels := engine.TrainingKernels()
	sts := make([]features.Static, 8)
	for i := range sts {
		sts[i] = kernels[i*3].Features
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				version, pred, gov, ok := s.Current()
				if !ok || version == "" || pred == nil || gov == nil {
					t.Errorf("incomplete triple under swap: %q %v %v", version, pred, gov)
					return
				}
				st := sts[(w+i)%len(sts)]
				if set := pred.ParetoSet(st); len(set) == 0 {
					t.Error("empty Pareto set under swap")
					return
				}
				if _, err := gov.Decide(st, policy.Spec{Name: policy.EDP}); err != nil {
					t.Errorf("decide under swap: %v", err)
					return
				}
			}
		}(w)
	}

	// Hot-swap repeatedly while traffic flows; the predictor is rebuilt
	// each time, exactly as a background retrain installs a new version.
	ladder := eng.Harness().Device().Sim().Ladder
	for i := 2; i < 30; i++ {
		pred := engine.NewPredictor(models, ladder, eng.Options())
		s.Install(version(i), pred)
	}
	close(stop)
	wg.Wait()

	if s.Swaps() != 29 {
		t.Fatalf("swaps = %d, want 29", s.Swaps())
	}
	// Every retired version kept its stats.
	all := allStats(s)
	if len(all) != 29 {
		t.Fatalf("allStats has %d versions, want 29", len(all))
	}
}

// allStats returns the stats of every version that has served on s, live
// and retired, keyed by version id.
func allStats(s *Serving) map[string]VersionStats {
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

// version formats a test version id the way the store numbers them.
func version(n int) string {
	const digits = "0123456789"
	return "v" + string([]byte{
		digits[n/1000%10], digits[n/100%10], digits[n/10%10], digits[n%10],
	})
}

// TestPredictBatchDuringHotSwap drives the engine's batch path (the
// /predict handler's code path) while versions swap, under -race.
func TestPredictBatchDuringHotSwap(t *testing.T) {
	eng, models := trainSmall(t)
	s := NewServing()
	installVersion(t, s, eng, "v0001", models)

	kernels := engine.TrainingKernels()
	sts := make([]features.Static, 6)
	for i := range sts {
		sts[i] = kernels[i*5].Features
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		ladder := eng.Harness().Device().Sim().Ladder
		for i := 2; i <= 12; i++ {
			s.Install(version(i), engine.NewPredictor(models, ladder, eng.Options()))
		}
	}()
	for i := 0; i < 50; i++ {
		_, pred, _, ok := s.Current()
		if !ok {
			t.Fatal("no predictor mid-swap")
		}
		sets, err := pred.PredictBatch(context.Background(), sts)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets) != len(sts) {
			t.Fatalf("batch returned %d sets, want %d", len(sets), len(sts))
		}
	}
	<-done
}
