package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/clkernel"
	"repro/internal/freq"
)

// computeProfile is a heavily compute-bound kernel profile: float FMA chains
// with negligible memory traffic.
func computeProfile() KernelProfile {
	var c clkernel.Counts
	c.Ops[clkernel.OpFloatAdd] = 2000
	c.Ops[clkernel.OpFloatMul] = 2000
	c.Ops[clkernel.OpGlobalAccess] = 2
	c.GlobalBytes = 8
	return KernelProfile{Name: "compute", Counts: c, WorkItems: 1 << 20}
}

// memoryProfile is a memory-bound kernel profile: streaming global traffic
// with minimal arithmetic.
func memoryProfile() KernelProfile {
	var c clkernel.Counts
	c.Ops[clkernel.OpGlobalAccess] = 64
	c.Ops[clkernel.OpIntAdd] = 8
	c.GlobalBytes = 256
	return KernelProfile{Name: "memory", Counts: c, WorkItems: 1 << 20}
}

func mustSim(t *testing.T, d *Device, p KernelProfile, cfg freq.Config) Result {
	t.Helper()
	r, err := d.Simulate(p, cfg)
	if err != nil {
		t.Fatalf("Simulate(%v): %v", cfg, err)
	}
	return r
}

func TestComputeBoundLinearSpeedup(t *testing.T) {
	d := TitanX()
	p := computeProfile()
	def := mustSim(t, d, p, d.Ladder.Default())
	// Speedup at mem-H should track core frequency nearly linearly.
	for _, core := range []freq.MHz{595, 800, 1001, 1202} {
		r := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: core})
		speedup := def.TimeSec / r.TimeSec
		linear := float64(core) / float64(d.Ladder.Default().Core)
		if math.Abs(speedup-linear) > 0.05*linear {
			t.Errorf("core %d: speedup %.3f deviates from linear %.3f by more than 5%%",
				core, speedup, linear)
		}
	}
}

func TestComputeBoundMemInsensitive(t *testing.T) {
	d := TitanX()
	p := computeProfile()
	rH := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: 1001})
	rl := mustSim(t, d, p, freq.Config{Mem: freq.Meml, Core: 1001})
	ratio := rl.TimeSec / rH.TimeSec
	if ratio > 1.10 {
		t.Errorf("compute-bound kernel slowed %.2fx by memory downscale, want < 1.10x", ratio)
	}
	// ...and it should save energy at the lower memory clock (paper: k-NN
	// at mem-l is as fast as the highest setting with less energy).
	if rl.EnergyJ >= rH.EnergyJ {
		t.Errorf("compute-bound kernel energy at mem-l (%.3f J) not below mem-H (%.3f J)",
			rl.EnergyJ, rH.EnergyJ)
	}
}

func TestMemoryBoundCoreInsensitive(t *testing.T) {
	d := TitanX()
	p := memoryProfile()
	lo := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: 700})
	hi := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: 1202})
	ratio := lo.TimeSec / hi.TimeSec
	if ratio > 1.15 {
		t.Errorf("memory-bound kernel sped up %.2fx by core scaling, want < 1.15x", ratio)
	}
	// Memory downscale must hurt it badly.
	rl := mustSim(t, d, p, freq.Config{Mem: freq.Meml, Core: 1001})
	rH := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: 1001})
	if rl.TimeSec < 2*rH.TimeSec {
		t.Errorf("memory-bound kernel at mem-l only %.2fx slower, want > 2x",
			rl.TimeSec/rH.TimeSec)
	}
}

func TestMemoryBoundEnergyRisesWithCore(t *testing.T) {
	// Paper (MT, Fig. 1e): for memory-bound kernels raising the core clock
	// only wastes energy.
	d := TitanX()
	p := memoryProfile()
	lo := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: 700})
	hi := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: 1202})
	if hi.EnergyJ <= lo.EnergyJ {
		t.Errorf("memory-bound energy at 1202 MHz (%.2f J) not above 700 MHz (%.2f J)",
			hi.EnergyJ, lo.EnergyJ)
	}
}

func TestEnergyParabolaMinimum(t *testing.T) {
	// Paper (k-NN, Fig. 1b): normalized energy over core frequency at a
	// high memory clock is parabolic with a minimum in [885, 987] MHz.
	d := TitanX()
	p := computeProfile()
	cores := d.Ladder.CoreClocks(freq.MemH)
	best := cores[0]
	bestE := math.Inf(1)
	for _, c := range cores {
		r := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: c})
		if r.EnergyJ < bestE {
			bestE = r.EnergyJ
			best = c
		}
	}
	if best < 800 || best > 1050 {
		t.Errorf("energy minimum at %d MHz, want within [800, 1050] (paper: [885, 987])", best)
	}
	// The curve must actually bend: both extremes above the minimum.
	first := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: cores[0]})
	last := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: cores[len(cores)-1]})
	if first.EnergyJ <= bestE*1.02 || last.EnergyJ <= bestE*1.02 {
		t.Errorf("energy curve too flat: ends %.3f/%.3f J vs min %.3f J",
			first.EnergyJ, last.EnergyJ, bestE)
	}
}

func TestPowerEnvelope(t *testing.T) {
	d := TitanX()
	p := computeProfile()
	r := mustSim(t, d, p, d.Ladder.Default())
	if r.PowerWatts < 150 || r.PowerWatts > 300 {
		t.Errorf("full-load default power = %.1f W, want within [150, 300] (TDP 250 W)",
			r.PowerWatts)
	}
	// Lowest clocks should draw far less.
	lo := mustSim(t, d, p, freq.Config{Mem: freq.MemL, Core: 135})
	if lo.PowerWatts >= r.PowerWatts/2 {
		t.Errorf("low-clock power %.1f W not well below default %.1f W", lo.PowerWatts, r.PowerWatts)
	}
}

func TestTimeMonotoneInCore(t *testing.T) {
	d := TitanX()
	for _, p := range []KernelProfile{computeProfile(), memoryProfile()} {
		prev := math.Inf(1)
		for _, c := range d.Ladder.CoreClocks(freq.MemH) {
			r := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: c})
			if r.TimeSec > prev*(1+1e-9) {
				t.Errorf("%s: time increased when core rose to %d MHz", p.Name, c)
			}
			prev = r.TimeSec
		}
	}
}

func TestTimeMonotoneInMem(t *testing.T) {
	d := TitanX()
	p := memoryProfile()
	prev := math.Inf(1)
	for _, m := range []freq.MHz{freq.MemL, freq.Meml, freq.Memh, freq.MemH} {
		r := mustSim(t, d, p, freq.Config{Mem: m, Core: 405})
		if r.TimeSec > prev*(1+1e-9) {
			t.Errorf("time increased when mem rose to %d MHz", m)
		}
		prev = r.TimeSec
	}
}

func TestSimulateClampsCore(t *testing.T) {
	d := TitanX()
	p := computeProfile()
	r1392 := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: 1392})
	r1202 := mustSim(t, d, p, freq.Config{Mem: freq.MemH, Core: 1202})
	if r1392.TimeSec != r1202.TimeSec || r1392.Config.Core != 1202 {
		t.Errorf("request above clamp not applied as 1202 MHz: %+v", r1392.Config)
	}
}

func TestSimulateUnsupportedMem(t *testing.T) {
	d := TitanX()
	if _, err := d.Simulate(computeProfile(), freq.Config{Mem: 999, Core: 1001}); err == nil {
		t.Error("expected error for unsupported memory clock")
	}
}

func TestVoltageCurve(t *testing.T) {
	d := TitanX()
	if v := d.Voltage(135); v != d.VIdle {
		t.Errorf("Voltage(135) = %v, want VIdle %v", v, d.VIdle)
	}
	if v := d.Voltage(365); v <= d.VIdle || v >= d.VMin {
		t.Errorf("Voltage(365) = %v, want strictly between VIdle and VMin", v)
	}
	if v := d.Voltage(595); v != d.VMin {
		t.Errorf("Voltage(595) = %v, want VMin %v", v, d.VMin)
	}
	if v := d.Voltage(1202); v != d.VMax {
		t.Errorf("Voltage(1202) = %v, want VMax %v", v, d.VMax)
	}
	if v := d.Voltage(1392); v != d.VMax {
		t.Errorf("Voltage(1392) = %v, want VMax (saturated)", v)
	}
	mid := d.Voltage(900)
	if mid <= d.VMin || mid >= d.VMax {
		t.Errorf("Voltage(900) = %v, want strictly between %v and %v", mid, d.VMin, d.VMax)
	}
}

func TestVoltageMonotoneProperty(t *testing.T) {
	d := TitanX()
	f := func(a, b uint16) bool {
		fa, fb := freq.MHz(a%1500), freq.MHz(b%1500)
		if fa > fb {
			fa, fb = fb, fa
		}
		return d.Voltage(fa) <= d.Voltage(fb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResultsPositiveProperty(t *testing.T) {
	d := TitanX()
	cfgs := d.Ladder.Configs()
	f := func(idx uint16, fadd, gacc uint8) bool {
		cfg := cfgs[int(idx)%len(cfgs)]
		var c clkernel.Counts
		c.Ops[clkernel.OpFloatAdd] = float64(fadd) + 1
		c.Ops[clkernel.OpGlobalAccess] = float64(gacc)
		c.GlobalBytes = float64(gacc) * 4
		p := KernelProfile{Name: "q", Counts: c, WorkItems: 4096}
		r, err := d.Simulate(p, cfg)
		if err != nil {
			return false
		}
		ok := r.TimeSec > 0 && r.PowerWatts > 0 && r.EnergyJ > 0 &&
			!math.IsNaN(r.TimeSec) && !math.IsInf(r.TimeSec, 0) &&
			r.CoreUtil >= 0 && r.CoreUtil <= 1 && r.MemUtil >= 0 && r.MemUtil <= 1
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := TitanX()
	p := KernelProfile{Name: "bare"} // zero profile: defaults kick in
	r, err := d.Simulate(p, d.Ladder.Default())
	if err != nil {
		t.Fatalf("Simulate at default: %v", err)
	}
	if r.TimeSec <= 0 {
		t.Errorf("TimeSec = %v, want > 0 (launch overhead)", r.TimeSec)
	}
}

func TestP100Simulates(t *testing.T) {
	d := P100()
	p := computeProfile()
	r, err := d.Simulate(p, d.Ladder.Default())
	if err != nil {
		t.Fatalf("P100 Simulate at default: %v", err)
	}
	if r.PowerWatts < 100 || r.PowerWatts > 350 {
		t.Errorf("P100 default power = %.1f W, out of plausible envelope", r.PowerWatts)
	}
	// P100 memory clock is fixed: only one ladder entry.
	if got := len(d.Ladder.MemClocks()); got != 1 {
		t.Errorf("P100 has %d memory clocks, want 1", got)
	}
}

func TestIntensityBounds(t *testing.T) {
	d := TitanX()
	var hot clkernel.Counts
	hot.Ops[clkernel.OpSpecial] = 100
	var cold clkernel.Counts
	cold.Ops[clkernel.OpOther] = 100
	ih := d.intensity(hot)
	ic := d.intensity(cold)
	if ih <= ic {
		t.Errorf("special-function intensity %v not above control intensity %v", ih, ic)
	}
	if ih > 1.5 || ic < 0.5 {
		t.Errorf("intensity out of [0.5, 1.5]: %v, %v", ih, ic)
	}
	if d.intensity(clkernel.Counts{}) != 1 {
		t.Error("empty counts intensity != 1")
	}
}
