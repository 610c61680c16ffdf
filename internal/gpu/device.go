// Package gpu implements a deterministic analytical GPU device model used as
// the measurement substrate in place of the paper's physical NVIDIA GPUs.
//
// The model reproduces the empirical laws the paper's predictive models are
// built on (Sections 1.1 and 3.4):
//
//   - Execution time is the (smoothed) maximum of a compute phase, whose
//     duration scales inversely with the core clock, and a memory phase,
//     whose duration scales inversely with the memory clock's bandwidth.
//     Compute-bound kernels therefore speed up linearly with core frequency
//     while memory-bound kernels are insensitive to it.
//   - Board power is the sum of constant power, leakage growing with the
//     core voltage, core dynamic power C·V(f)²·f scaled by utilization and
//     instruction-mix intensity, and memory power growing with the memory
//     clock. The supply voltage V(f) is flat up to a floor frequency and
//     rises linearly to the maximum boost voltage, which produces the
//     paper's parabolic normalized-energy curves with an interior minimum.
//
// All outputs are exactly reproducible: the device model itself is pure;
// measurement noise is added (deterministically) by internal/measure.
package gpu

import (
	"fmt"
	"math"

	"repro/internal/clkernel"
	"repro/internal/freq"
)

// Device is an analytical GPU model bound to a frequency ladder.
type Device struct {
	// Name identifies the modeled board.
	Name string
	// Ladder is the supported frequency configuration space.
	Ladder *freq.Ladder

	// SMs is the number of streaming multiprocessors.
	SMs int
	// Occupancy is the default fraction of peak issue throughput achieved.
	Occupancy float64

	// Throughput holds per-SM per-cycle issue throughput for each
	// instruction class (operations per cycle per SM).
	Throughput [clkernel.NumOpClasses]float64
	// EnergyWeight holds the per-class relative energy cost of one
	// operation, used to derive the instruction-mix intensity factor.
	EnergyWeight [clkernel.NumOpClasses]float64

	// GlobalBytesPerCycle is DRAM bandwidth per memory-clock MHz·1e6
	// (bytes transferred per memory clock cycle at full efficiency).
	GlobalBytesPerCycle float64
	// MemBWExp is the exponent of the delivered-bandwidth power law:
	// BW(f) = BW(fmax) · (f/fmax)^MemBWExp. Real boards deliver
	// sub-linear bandwidth as the memory clock drops (the controller
	// regains efficiency at lower command rates), which is why the
	// paper's mem-l/mem-L measurements retain ~45%/~31% of peak
	// bandwidth rather than 23%/12%. 1 (or 0) selects a linear law.
	MemBWExp float64
	// LocalBytesPerCycle is shared/local memory bandwidth per SM per core
	// clock cycle.
	LocalBytesPerCycle float64

	// The core voltage curve is piecewise linear: VIdle at or below
	// VIdleMHz, rising to VMin at VFloorMHz (the DVFS floor), then to
	// VMax at VMaxMHz, saturating above. VIdle = 0 disables the idle
	// segment (voltage is flat at VMin below the floor).
	VIdle, VMin, VMax            float64
	VIdleMHz, VFloorMHz, VMaxMHz freq.MHz

	// ConstWatts is frequency-independent board power (fans, VRM, I/O).
	ConstWatts float64
	// LeakPerVolt is static leakage power per volt of core voltage.
	LeakPerVolt float64
	// CoreCapWatts is the effective switched-capacitance coefficient:
	// watts per (V² · GHz) at utilization and intensity 1.
	CoreCapWatts float64
	// CoreIdleFrac is the fraction of core dynamic power drawn even when
	// the core pipeline is stalled on memory (clock tree, schedulers).
	CoreIdleFrac float64
	// MemWattsPerGHz is memory-system power per GHz of memory clock at
	// full utilization; MemIdleFrac is the idle fraction.
	MemWattsPerGHz float64
	MemIdleFrac    float64

	// LaunchOverheadSec is fixed per-launch host/driver overhead.
	LaunchOverheadSec float64
	// OverlapExp smooths max(Tcompute, Tmem); higher = harder max.
	OverlapExp float64
}

// Result reports one simulated kernel execution at one configuration.
type Result struct {
	Config freq.Config
	// TimeSec is the kernel wall time in seconds, PowerWatts the average
	// board power during it, EnergyJ their product.
	TimeSec    float64
	PowerWatts float64
	EnergyJ    float64
	// ComputeSec and MemSec are the phase durations before overlap.
	ComputeSec float64
	MemSec     float64
	// CoreUtil and MemUtil are the utilization factors used for power.
	CoreUtil float64
	MemUtil  float64
}

// KernelProfile is the dynamic execution profile of one kernel launch,
// derived from the kernel's weighted instruction counts and launch geometry.
type KernelProfile struct {
	// Name identifies the kernel (used for deterministic noise seeds).
	Name string
	// Counts are per-work-item weighted instruction counts.
	Counts clkernel.Counts
	// WorkItems is the total global work size of one launch.
	WorkItems int
	// Coalescing in (0,1] is DRAM transfer efficiency: 1 = fully
	// coalesced accesses, lower values inflate effective traffic.
	Coalescing float64
	// CacheHitRate in [0,1) is the fraction of global traffic served by
	// on-chip cache (which scales with core clock instead of DRAM).
	CacheHitRate float64
	// OccupancyScale multiplies the device's default occupancy (1 = no
	// change); low-parallelism kernels use values below 1.
	OccupancyScale float64
}

// normalize applies profile defaults.
func (p KernelProfile) normalize() KernelProfile {
	if p.Coalescing <= 0 || p.Coalescing > 1 {
		p.Coalescing = 1
	}
	if p.CacheHitRate < 0 || p.CacheHitRate >= 1 {
		p.CacheHitRate = 0
	}
	if p.OccupancyScale <= 0 {
		p.OccupancyScale = 1
	}
	if p.WorkItems <= 0 {
		p.WorkItems = 1
	}
	return p
}

// Voltage returns the modeled core supply voltage at the given core clock.
func (d *Device) Voltage(core freq.MHz) float64 {
	switch {
	case core >= d.VMaxMHz:
		return d.VMax
	case core >= d.VFloorMHz:
		t := float64(core-d.VFloorMHz) / float64(d.VMaxMHz-d.VFloorMHz)
		return d.VMin + (d.VMax-d.VMin)*t
	case d.VIdle > 0 && d.VIdleMHz < d.VFloorMHz:
		if core <= d.VIdleMHz {
			return d.VIdle
		}
		t := float64(core-d.VIdleMHz) / float64(d.VFloorMHz-d.VIdleMHz)
		return d.VIdle + (d.VMin-d.VIdle)*t
	default:
		return d.VMin
	}
}

// deliveredBandwidth returns DRAM bandwidth in bytes/second at the given
// memory clock, applying the sub-linear power law around the ladder's
// highest clock.
func (d *Device) deliveredBandwidth(mem freq.MHz) float64 {
	peak := d.Ladder.MemClocks()[0]
	peakBW := d.GlobalBytesPerCycle * float64(peak) * 1e6
	exp := d.MemBWExp
	if exp <= 0 {
		exp = 1
	}
	frac := float64(mem) / float64(peak)
	if frac > 1 {
		frac = 1
	}
	return peakBW * math.Pow(frac, exp)
}

// intensity derives the instruction-mix energy-intensity factor in
// [0.5, 1.5] from the per-class energy weights.
func (d *Device) intensity(c clkernel.Counts) float64 {
	total, weighted := 0.0, 0.0
	for i := range c.Ops {
		total += c.Ops[i]
		weighted += c.Ops[i] * d.EnergyWeight[i]
	}
	if total <= 0 {
		return 1
	}
	in := weighted / total
	return math.Min(1.5, math.Max(0.5, in))
}

// computeCyclesPerItem returns the issue cycles one work-item needs.
func (d *Device) computeCyclesPerItem(p KernelProfile) float64 {
	cyc := 0.0
	for i, n := range p.Counts.Ops {
		if thr := d.Throughput[i]; thr > 0 {
			cyc += n / thr
		}
	}
	// Shared/local memory bandwidth cost (beyond issue cost).
	if d.LocalBytesPerCycle > 0 {
		cyc += p.Counts.LocalBytes / d.LocalBytesPerCycle
	}
	// Cache-served global traffic consumes core-clock cycles too.
	if d.GlobalBytesPerCycle > 0 && p.CacheHitRate > 0 {
		cachedBytes := p.Counts.GlobalBytes * p.CacheHitRate
		cyc += cachedBytes / (d.LocalBytesPerCycle * 2) // L2 is ~2x shared BW
	}
	return cyc
}

// Simulate runs the analytical model for one kernel launch at the requested
// configuration. The configuration is clamped by the device ladder (the
// Titan X >1202 MHz quirk) before evaluation; it returns an error if the
// memory clock is not supported at all.
func (d *Device) Simulate(p KernelProfile, cfg freq.Config) (Result, error) {
	p = p.normalize()
	cfg = d.Ladder.Clamp(cfg)
	if len(d.Ladder.CoreClocks(cfg.Mem)) == 0 {
		return Result{}, fmt.Errorf("gpu: %s: unsupported memory clock %d MHz", d.Name, cfg.Mem)
	}

	fCoreHz := float64(cfg.Core) * 1e6
	fMemHz := float64(cfg.Mem) * 1e6

	// --- Time model ---
	occ := d.Occupancy * p.OccupancyScale
	if occ > 1 {
		occ = 1
	}
	cyc := d.computeCyclesPerItem(p)
	computeSec := float64(p.WorkItems) * cyc / (float64(d.SMs) * occ) / fCoreHz

	dramBytes := p.Counts.GlobalBytes * float64(p.WorkItems) * (1 - p.CacheHitRate) / p.Coalescing
	memSec := 0.0
	if d.GlobalBytesPerCycle > 0 {
		memSec = dramBytes / d.deliveredBandwidth(cfg.Mem)
	}

	// Smoothed max: phases overlap, the longer one dominates.
	exp := d.OverlapExp
	if exp <= 0 {
		exp = 4
	}
	var kernelSec float64
	switch {
	case memSec == 0:
		kernelSec = computeSec
	case computeSec == 0:
		kernelSec = memSec
	default:
		kernelSec = math.Pow(math.Pow(computeSec, exp)+math.Pow(memSec, exp), 1/exp)
	}
	timeSec := kernelSec + d.LaunchOverheadSec

	// --- Power model ---
	v := d.Voltage(cfg.Core)
	coreUtil := 1.0
	memUtil := 1.0
	if kernelSec > 0 {
		coreUtil = computeSec / kernelSec
		memUtil = memSec / kernelSec
	}
	if coreUtil > 1 {
		coreUtil = 1
	}
	if memUtil > 1 {
		memUtil = 1
	}
	intens := d.intensity(p.Counts)

	coreDyn := d.CoreCapWatts * v * v * (fCoreHz / 1e9) *
		(d.CoreIdleFrac + (1-d.CoreIdleFrac)*coreUtil*intens)
	memDyn := d.MemWattsPerGHz * (fMemHz / 1e9) *
		(d.MemIdleFrac + (1-d.MemIdleFrac)*memUtil)
	power := d.ConstWatts + d.LeakPerVolt*v + coreDyn + memDyn

	return Result{
		Config:     cfg,
		TimeSec:    timeSec,
		PowerWatts: power,
		EnergyJ:    power * timeSec,
		ComputeSec: computeSec,
		MemSec:     memSec,
		CoreUtil:   coreUtil,
		MemUtil:    memUtil,
	}, nil
}
