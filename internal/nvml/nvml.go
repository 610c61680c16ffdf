// Package nvml simulates the subset of the NVIDIA Management Library the
// paper relies on (Section 4.1): querying supported memory and graphics
// clocks, setting application clocks, reading board power, and disabling
// auto-boost. It reproduces the Titan X quirk the paper documents — some
// configurations are reported as supported but setting them silently applies
// a clamped core clock — and NVML's power-reading quantization (milliwatt
// integers) with a small deterministic sensor noise.
//
// The API mirrors NVML's C naming (DeviceGetSupportedMemoryClocks,
// DeviceSetApplicationsClocks, DeviceGetPowerUsage) so that the measurement
// harness reads like real NVML client code.
package nvml

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/freq"
	"repro/internal/gpu"
)

// ErrNotSupported is returned for configurations the device cannot apply at
// all (unknown memory clock, or core clock absent from the claimed list).
type ErrNotSupported struct {
	Cfg freq.Config
}

// Error names the rejected clock combination.
func (e *ErrNotSupported) Error() string {
	return fmt.Sprintf("nvml: clock combination %v not supported", e.Cfg)
}

// Device is a handle to one simulated GPU.
type Device struct {
	mu        sync.Mutex
	sim       *gpu.Device
	applied   freq.Config
	autoBoost bool
	load      *gpu.Result // current synthetic workload, nil when idle
	readings  uint64      // power-sensor read counter (noise stream)
}

// NewDevice wraps a simulated GPU as an NVML device handle. Auto-boost
// starts enabled, as on real hardware.
func NewDevice(sim *gpu.Device) *Device {
	return &Device{sim: sim, applied: sim.Ladder.Default(), autoBoost: true}
}

// Sim exposes the underlying device model (for the measurement harness).
func (d *Device) Sim() *gpu.Device { return d.sim }

// Name returns the device name string.
func (d *Device) Name() string { return d.sim.Name }

// DeviceGetSupportedMemoryClocks lists supported memory clocks, highest
// first, as NVML does.
func (d *Device) DeviceGetSupportedMemoryClocks() []freq.MHz {
	return d.sim.Ladder.MemClocks()
}

// DeviceGetSupportedGraphicsClocks lists the core clocks NVML *claims* to
// support for a memory clock. On the Titan X this includes clocks above
// 1202 MHz that are silently clamped when applied (the paper's gray
// points in Fig. 4a).
func (d *Device) DeviceGetSupportedGraphicsClocks(mem freq.MHz) ([]freq.MHz, error) {
	cs := d.sim.Ladder.ClaimedCoreClocks(mem)
	if len(cs) == 0 {
		return nil, &ErrNotSupported{Cfg: freq.Config{Mem: mem}}
	}
	return cs, nil
}

// DeviceSetApplicationsClocks requests the given clocks. Requests from the
// claimed list always succeed, but — as on the real board — the clocks
// actually applied may differ (core clamped to 1202 MHz). Callers must read
// back DeviceGetApplicationsClocks to learn the effective setting.
func (d *Device) DeviceSetApplicationsClocks(mem, core freq.MHz) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	claimed := d.sim.Ladder.ClaimedCoreClocks(mem)
	if len(claimed) == 0 {
		return &ErrNotSupported{Cfg: freq.Config{Mem: mem, Core: core}}
	}
	found := false
	for _, c := range claimed {
		if c == core {
			found = true
			break
		}
	}
	if !found {
		return &ErrNotSupported{Cfg: freq.Config{Mem: mem, Core: core}}
	}
	d.applied = d.sim.Ladder.Clamp(freq.Config{Mem: mem, Core: core})
	return nil
}

// DeviceGetApplicationsClocks returns the clocks actually in effect.
func (d *Device) DeviceGetApplicationsClocks() freq.Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied
}

// SetAutoBoostedClocksEnabled enables or disables auto-boost. The paper
// disables it so that all measurements happen at manually-set clocks.
func (d *Device) SetAutoBoostedClocksEnabled(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.autoBoost = on
}

// AutoBoostedClocksEnabled reports the auto-boost state.
func (d *Device) AutoBoostedClocksEnabled() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.autoBoost
}

// BeginWorkload marks the device as executing the given kernel profile at
// the currently applied clocks, so that power readings reflect load. It
// returns the simulation result describing the run.
func (d *Device) BeginWorkload(p gpu.KernelProfile) (gpu.Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, err := d.sim.Simulate(p, d.applied)
	if err != nil {
		return gpu.Result{}, err
	}
	d.load = &r
	return r, nil
}

// EndWorkload marks the device idle again.
func (d *Device) EndWorkload() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.load = nil
}

// idlePowerLocked estimates board power with no kernel resident.
func (d *Device) idlePowerLocked() float64 {
	v := d.sim.Voltage(d.applied.Core)
	return d.sim.ConstWatts + d.sim.LeakPerVolt*v*0.8
}

// DeviceGetPowerUsage returns the current board power draw in milliwatts,
// like nvmlDeviceGetPowerUsage. Readings carry a deterministic ±1% sensor
// noise stream and are quantized to integer milliwatts.
func (d *Device) DeviceGetPowerUsage() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var w float64
	if d.load != nil {
		w = d.load.PowerWatts
	} else {
		w = d.idlePowerLocked()
	}
	d.readings++
	noise := noiseAt(d.sim.Name, d.readings)
	w *= 1 + 0.01*noise
	if w < 0 {
		w = 0
	}
	return uint64(w * 1000)
}

// PowerSampleHz is NVML's power-sensor refresh rate on the modeled boards.
const PowerSampleHz = 62.5

// noiseAt returns a deterministic pseudo-random value in [-1, 1) derived
// from the device name and a counter.
func noiseAt(name string, n uint64) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	for i := range b {
		b[i] = byte(n >> (8 * i))
	}
	h.Write(b[:])
	u := h.Sum64()
	return float64(u%(1<<20))/float64(1<<19) - 1
}
