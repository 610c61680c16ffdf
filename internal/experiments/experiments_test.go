package experiments

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/freq"
)

// fastSuite trains on a reduced setup so tests stay quick; the full paper
// configuration is exercised by the root benchmarks.
var (
	fastOnce  sync.Once
	fastSuite *Suite
)

func suite(t testing.TB) *Suite {
	t.Helper()
	fastOnce.Do(func() {
		fastSuite = NewSuiteWithOptions(core.Options{SettingsPerKernel: 12})
	})
	return fastSuite
}

// TestProvenanceRecorded: every model-dependent table names the model
// version (and content hash) that produced it.
func TestProvenanceRecorded(t *testing.T) {
	s := suite(t)
	prov, err := s.Provenance()
	if err != nil {
		t.Fatalf("Provenance: %v", err)
	}
	if prov.Version != "in-memory" || prov.Device == "" || prov.Hash == "" {
		t.Fatalf("incomplete provenance: %+v", prov)
	}
	sp, err := s.Fig6()
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if sp.Model != prov {
		t.Fatalf("Fig6 provenance %+v != suite provenance %+v", sp.Model, prov)
	}
	var buf bytes.Buffer
	RenderErrorReport(&buf, "Figure 6", sp)
	if !strings.Contains(buf.String(), "model: "+prov.String()) {
		t.Error("RenderErrorReport does not print the model provenance")
	}

	// A registry-labelled suite reports its version instead of in-memory.
	s2 := NewSuiteWithEngine(s.Engine()) // reuses the trained engine
	s2.SetModelVersion("v0007")
	prov2, err := s2.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if prov2.Version != "v0007" || prov2.Hash != prov.Hash {
		t.Fatalf("labelled provenance: %+v", prov2)
	}
}

func TestFig1Shapes(t *testing.T) {
	s := suite(t)
	data, err := s.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	if len(data) != 2 || data[0].Benchmark != "k-NN" || data[1].Benchmark != "MT" {
		t.Fatalf("Fig1 benchmarks = %v", []string{data[0].Benchmark, data[1].Benchmark})
	}
	knn := data[0]
	if len(knn.Series) != 4 {
		t.Fatalf("k-NN has %d memory series, want 4", len(knn.Series))
	}
	// k-NN speedup at mem-H grows with core frequency (Fig. 1a).
	h := knn.Series[0]
	if h.Mem != freq.MemH {
		t.Fatalf("first series mem %d, want %d", h.Mem, freq.MemH)
	}
	first, last := h.Points[0], h.Points[len(h.Points)-1]
	if last.Speedup <= first.Speedup*1.5 {
		t.Errorf("k-NN mem-H speedup not strongly increasing: %.3f -> %.3f",
			first.Speedup, last.Speedup)
	}
	// k-NN energy at mem-H is parabolic: interior minimum (Fig. 1b).
	minE, minIdx := math.Inf(1), -1
	for i, p := range h.Points {
		if p.NormEnergy < minE {
			minE, minIdx = p.NormEnergy, i
		}
	}
	if minIdx == 0 || minIdx == len(h.Points)-1 {
		t.Errorf("k-NN mem-H energy minimum at boundary index %d", minIdx)
	}
	// MT speedup at mem-H is flat in core frequency (Fig. 1d).
	mt := data[1].Series[0]
	mtFirst, mtLast := mt.Points[0], mt.Points[len(mt.Points)-1]
	if mtLast.Speedup > mtFirst.Speedup*1.3 {
		t.Errorf("MT mem-H speedup too core-sensitive: %.3f -> %.3f",
			mtFirst.Speedup, mtLast.Speedup)
	}
	// ...but drops when the memory clock drops.
	var mtMemL []float64
	for _, ser := range data[1].Series {
		if ser.Mem == freq.Meml {
			for _, p := range ser.Points {
				mtMemL = append(mtMemL, p.Speedup)
			}
		}
	}
	maxMemL := 0.0
	for _, v := range mtMemL {
		maxMemL = math.Max(maxMemL, v)
	}
	if maxMemL > 0.7 {
		t.Errorf("MT at mem-l reaches speedup %.3f, want well below 1", maxMemL)
	}
}

func TestFig4Rows(t *testing.T) {
	s := suite(t)
	rows := s.Fig4()
	if len(rows) != 5 { // 4 Titan X memories + 1 P100
		t.Fatalf("Fig4 rows = %d, want 5", len(rows))
	}
	counts := map[freq.MHz]int{}
	clamped := 0
	for _, r := range rows[:4] {
		counts[r.Mem] = len(r.Actual)
		clamped += len(r.Clamped)
	}
	if counts[3505] != 50 || counts[3304] != 50 || counts[810] != 71 || counts[405] != 6 {
		t.Errorf("Titan X core counts = %v, want 50/50/71/6", counts)
	}
	if clamped == 0 {
		t.Error("no claimed-but-clamped configurations reported")
	}
	var buf bytes.Buffer
	RenderFig4(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Titan X", "P100", "claimed-but-clamped", "default memory clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderFig4 output missing %q", want)
		}
	}
}

func TestFig5Grouping(t *testing.T) {
	s := suite(t)
	data, err := s.Fig5()
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(data) != 8 {
		t.Fatalf("Fig5 has %d benchmarks, want 8", len(data))
	}
	total := 0
	for _, d := range data {
		for _, ser := range d.Series {
			total += len(ser.Points)
		}
		if len(d.Series) != 4 {
			t.Errorf("%s: %d series, want 4", d.Benchmark, len(d.Series))
		}
	}
	ladder := s.Harness().Device().Sim().Ladder
	if total != 8*ladder.NumConfigs() {
		t.Errorf("total points %d, want %d", total, 8*ladder.NumConfigs())
	}
	var buf bytes.Buffer
	RenderFig5(&buf, data)
	if !strings.Contains(buf.String(), "Blackscholes") {
		t.Error("RenderFig5 missing benchmark name")
	}
}

func TestFig67Reports(t *testing.T) {
	s := suite(t)
	sp, en, err := s.fig67()
	if err != nil {
		t.Fatalf("fig67: %v", err)
	}
	for _, rep := range []ErrorReport{sp, en} {
		if len(rep.Mems) != 4 {
			t.Fatalf("%s report covers %d memories, want 4", rep.Objective, len(rep.Mems))
		}
		for _, m := range rep.Mems {
			if rep.RMSE[m] <= 0 || math.IsNaN(rep.RMSE[m]) {
				t.Errorf("%s RMSE at mem %d = %v", rep.Objective, m, rep.RMSE[m])
			}
			if len(rep.PerBenchmark[m]) != 12 {
				t.Errorf("%s at mem %d has %d benchmarks, want 12",
					rep.Objective, m, len(rep.PerBenchmark[m]))
			}
		}
	}
	// Paper shape: high-memory predictions are markedly better than mem-l.
	if sp.RMSE[freq.MemH] >= sp.RMSE[freq.Meml] {
		t.Errorf("speedup RMSE at mem-H (%.1f%%) not below mem-l (%.1f%%)",
			sp.RMSE[freq.MemH], sp.RMSE[freq.Meml])
	}
	if en.RMSE[freq.MemH] >= en.RMSE[freq.Meml] {
		t.Errorf("energy RMSE at mem-H (%.1f%%) not below mem-l (%.1f%%)",
			en.RMSE[freq.MemH], en.RMSE[freq.Meml])
	}
	// Absolute quality at the highest memory clock: paper reports 6.68%
	// (speedup) and 7.82% (energy); the substrate reproduction must stay
	// in the same regime.
	if sp.RMSE[freq.MemH] > 15 {
		t.Errorf("speedup RMSE at mem-H = %.1f%%, want <= 15%%", sp.RMSE[freq.MemH])
	}
	if en.RMSE[freq.MemH] > 15 {
		t.Errorf("energy RMSE at mem-H = %.1f%%, want <= 15%%", en.RMSE[freq.MemH])
	}
	var buf bytes.Buffer
	RenderErrorReport(&buf, "Figure 6", sp)
	if !strings.Contains(buf.String(), "RMSE") || !strings.Contains(buf.String(), "k-NN") {
		t.Error("RenderErrorReport output incomplete")
	}
}

func TestFig8AndTable2(t *testing.T) {
	s := suite(t)
	data, err := s.Fig8()
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if len(data) != 12 {
		t.Fatalf("Fig8 covers %d benchmarks, want 12", len(data))
	}
	for _, d := range data {
		if len(d.RealFront) == 0 {
			t.Errorf("%s: empty real front", d.Benchmark)
		}
		if len(d.Predicted) == 0 {
			t.Errorf("%s: empty predicted set", d.Benchmark)
		}
		if len(d.Predicted) != len(d.PredictedCfgs) {
			t.Errorf("%s: predicted points/configs mismatch", d.Benchmark)
		}
		// The heuristic point must be last and at mem-L.
		last := d.PredictedCfgs[len(d.PredictedCfgs)-1]
		if !last.MemLHeuristic || last.Config.Mem != freq.MemL {
			t.Errorf("%s: last predicted point %+v is not the mem-L heuristic", d.Benchmark, last)
		}
	}

	rep := Table2From(data)
	rows := rep.Rows
	if len(rows) != 12 {
		t.Fatalf("Table2 has %d rows, want 12", len(rows))
	}
	if rep.Model != data[0].Model || rep.Model.Device == "" || rep.Model.Hash == "" {
		t.Fatalf("Table2 provenance not recorded: %+v", rep.Model)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].D < rows[i-1].D {
			t.Error("Table2 rows not sorted by coverage difference")
		}
	}
	// Headline claim: the approach delivers good approximations for most
	// benchmarks (paper: ten of twelve with D <= 0.0362; best 0.0059).
	good := 0
	for _, r := range rows {
		if r.D <= 0.08 {
			good++
		}
		if r.D < 0 {
			t.Errorf("%s: negative coverage difference %v", r.Benchmark, r.D)
		}
	}
	if good < 8 {
		t.Errorf("only %d/12 benchmarks with D <= 0.08; Pareto prediction too weak", good)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rep)
	if !strings.Contains(buf.String(), "D(P*,P')") {
		t.Error("RenderTable2 missing header")
	}
	buf.Reset()
	RenderFig8(&buf, data[:1])
	if !strings.Contains(buf.String(), "mem-L heuristic") {
		t.Error("RenderFig8 missing heuristic tag")
	}
}

func TestRenderFig1(t *testing.T) {
	s := suite(t)
	data, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig1(&buf, data)
	out := buf.String()
	for _, want := range []string{"k-NN", "MT", "Mem-H", "Mem-L", "speedup", "energy"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderFig1 missing %q", want)
		}
	}
}

func TestBoxStats(t *testing.T) {
	bs := boxStats([]float64{1, 2, 3, 4, 5})
	if bs.Min != 1 || bs.Max != 5 || bs.Median != 3 {
		t.Errorf("boxStats = %+v", bs)
	}
	if bs.Q25 != 2 || bs.Q75 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", bs.Q25, bs.Q75)
	}
	if bs.N != 5 {
		t.Errorf("N = %d", bs.N)
	}
	empty := boxStats(nil)
	if empty.N != 0 {
		t.Error("empty boxStats should have N=0")
	}
}

func TestSweepCaching(t *testing.T) {
	s := suite(t)
	a, err := s.Sweep("Flte")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Sweep("Flte")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("Sweep did not cache")
	}
	if _, err := s.Sweep("missing"); err == nil {
		t.Error("Sweep of unknown benchmark should fail")
	}
}

func TestPortabilityP100(t *testing.T) {
	r, err := PortabilityP100(core.Options{SettingsPerKernel: 10})
	if err != nil {
		t.Fatalf("PortabilityP100: %v", err)
	}
	if r.NumConfigs != 60 {
		t.Errorf("P100 configs = %d, want 60", r.NumConfigs)
	}
	// Single memory domain: the problem is easier; errors must stay in the
	// same regime as the Titan X's high-memory results.
	if r.SpeedupRMSE <= 0 || r.SpeedupRMSE > 20 {
		t.Errorf("P100 speedup RMSE = %.2f%%, want (0, 20]", r.SpeedupRMSE)
	}
	if r.EnergyRMSE <= 0 || r.EnergyRMSE > 25 {
		t.Errorf("P100 energy RMSE = %.2f%%, want (0, 25]", r.EnergyRMSE)
	}
	if r.MeanParetoSize < 2 {
		t.Errorf("mean Pareto size = %.1f, want >= 2", r.MeanParetoSize)
	}
	var buf bytes.Buffer
	RenderPortability(&buf, r)
	if !strings.Contains(buf.String(), "P100") {
		t.Error("RenderPortability missing device name")
	}
}
