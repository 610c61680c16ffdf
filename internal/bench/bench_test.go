package bench

import (
	"math"
	"testing"

	"repro/internal/clkernel"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
)

func TestTwelveBenchmarks(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("All() returned %d benchmarks, want 12", len(all))
	}
	want := []string{
		"PerlinNoise", "MD", "K-means", "MedianFilter", "Convolution",
		"Blackscholes", "MT", "Flte", "MatrixMultiply", "BitCompression",
		"AES", "k-NN",
	}
	for i, b := range all {
		if b.Name != want[i] {
			t.Errorf("benchmark %d = %q, want %q (Table 2 order)", i, b.Name, want[i])
		}
	}
}

func TestAllSourcesParse(t *testing.T) {
	for _, b := range All() {
		prog, err := clkernel.Parse(b.Source)
		if err != nil {
			t.Errorf("%s: parse error: %v", b.Name, err)
			continue
		}
		if prog.Kernel(b.KernelName) == nil {
			t.Errorf("%s: kernel %q missing", b.Name, b.KernelName)
		}
	}
}

func TestFeaturesPlausible(t *testing.T) {
	for _, b := range All() {
		f := b.Features()
		if !f.Valid() {
			t.Errorf("%s: invalid features %v", b.Name, f)
		}
		if f.Sum() <= 0 {
			t.Errorf("%s: empty features", b.Name)
		}
	}
	// Characteristic instruction mixes.
	knn, err := ByName("k-NN")
	if err != nil {
		t.Fatal(err)
	}
	f := knn.Features()
	if f[clkernel.OpFloatMul] <= 0 || f[clkernel.OpSpecial] <= 0 {
		t.Errorf("k-NN should contain float muls and sqrt: %v", f)
	}
	aes, err := ByName("AES")
	if err != nil {
		t.Fatal(err)
	}
	fa := aes.Features()
	if fa[clkernel.OpIntBitwise] < 0.2 {
		t.Errorf("AES bitwise share = %.3f, want dominant", fa[clkernel.OpIntBitwise])
	}
	mtb, err := ByName("MT")
	if err != nil {
		t.Fatal(err)
	}
	fm := mtb.Features()
	if fm[clkernel.OpIntBitwise] <= 0 || fm[clkernel.OpGlobalAccess] <= 0 {
		t.Errorf("MT should mix bitwise and global accesses: %v", fm)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("k-NN"); err != nil {
		t.Errorf("ByName(k-NN): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
	if got := len(Names()); got != 12 {
		t.Errorf("Names() has %d entries", got)
	}
}

// coreSensitivity measures the speedup gained by raising the core clock
// from the lowest to the highest setting at the default memory clock.
func coreSensitivity(t *testing.T, b *Benchmark) float64 {
	t.Helper()
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	base, err := h.Baseline(b.Profile())
	if err != nil {
		t.Fatalf("%s: baseline: %v", b.Name, err)
	}
	ladder := h.Device().Sim().Ladder
	cores := ladder.CoreClocks(freq.MemH)
	lo, err := h.MeasureRelative(b.Profile(), freq.Config{Mem: freq.MemH, Core: cores[0]}, base)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := h.MeasureRelative(b.Profile(), freq.Config{Mem: freq.MemH, Core: cores[len(cores)-1]}, base)
	if err != nil {
		t.Fatal(err)
	}
	return hi.Speedup / lo.Speedup
}

func TestComputeVsMemoryGroups(t *testing.T) {
	// Paper, Fig. 5: the twelve benchmarks split into compute-dominated
	// kernels (speedup follows the core clock) and memory-dominated ones
	// (speedup insensitive to it). Verify the canonical representatives.
	computeGroup := []string{"k-NN", "PerlinNoise", "MD", "AES"}
	memoryGroup := []string{"MT", "Blackscholes", "BitCompression"}
	for _, name := range computeGroup {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s := coreSensitivity(t, b); s < 1.5 {
			t.Errorf("%s: core sensitivity %.2f, want > 1.5 (compute-dominated)", name, s)
		}
	}
	for _, name := range memoryGroup {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s := coreSensitivity(t, b); s > 1.4 {
			t.Errorf("%s: core sensitivity %.2f, want < 1.4 (memory-dominated)", name, s)
		}
	}
}

func TestKnnDoublesAcrossCoreRange(t *testing.T) {
	// Paper, Section 4.2: for k-NN at mem-H, speedup goes from 0.62 up to
	// 1.12 — "it can double the performance by only changing the core
	// frequency".
	b, err := ByName("k-NN")
	if err != nil {
		t.Fatal(err)
	}
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	base, err := h.Baseline(b.Profile())
	if err != nil {
		t.Fatal(err)
	}
	ladder := h.Device().Sim().Ladder
	cores := ladder.CoreClocks(freq.MemH)
	lo, err := h.MeasureRelative(b.Profile(), freq.Config{Mem: freq.MemH, Core: cores[0]}, base)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := h.MeasureRelative(b.Profile(), freq.Config{Mem: freq.MemH, Core: cores[len(cores)-1]}, base)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Speedup > 0.75 || lo.Speedup < 0.45 {
		t.Errorf("k-NN low-core speedup = %.3f, want ~0.62", lo.Speedup)
	}
	if hi.Speedup < 1.05 || hi.Speedup > 1.3 {
		t.Errorf("k-NN high-core speedup = %.3f, want ~1.12-1.2", hi.Speedup)
	}
}

func TestMTPrefersHighMemory(t *testing.T) {
	// Paper, Fig. 1d: MT gains nothing from core scaling but loses badly
	// from memory downscaling.
	b, err := ByName("MT")
	if err != nil {
		t.Fatal(err)
	}
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	base, err := h.Baseline(b.Profile())
	if err != nil {
		t.Fatal(err)
	}
	ladder := h.Device().Sim().Ladder
	lCores := ladder.CoreClocks(freq.Meml)
	ml, err := h.MeasureRelative(b.Profile(), freq.Config{Mem: freq.Meml, Core: lCores[len(lCores)-1]}, base)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Speedup > 0.7 {
		t.Errorf("MT at mem-l speedup = %.3f, want well below 1", ml.Speedup)
	}
}

func TestProfilesDeterministic(t *testing.T) {
	for _, b := range All() {
		p1 := b.Profile()
		b2, err := ByName(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		p2 := b2.Profile()
		if p1.Counts != p2.Counts || p1.WorkItems != p2.WorkItems {
			t.Errorf("%s: profile not deterministic", b.Name)
		}
	}
}

func TestRuntimesReasonable(t *testing.T) {
	// Kernel times at default clocks should land in a realistic range
	// (0.05 ms .. 500 ms) so the 62.5 Hz power sampling logic is exercised
	// the same way as on the real board.
	d := gpu.TitanX()
	for _, b := range All() {
		r, err := d.Simulate(b.Profile(), d.Ladder.Default())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		ms := r.TimeSec * 1e3
		if ms < 0.05 || ms > 500 {
			t.Errorf("%s: default runtime %.3f ms outside [0.05, 500]", b.Name, ms)
		}
		if math.IsNaN(r.PowerWatts) || r.PowerWatts < 50 || r.PowerWatts > 300 {
			t.Errorf("%s: default power %.1f W implausible", b.Name, r.PowerWatts)
		}
	}
}
