package nvml

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/clkernel"
	"repro/internal/freq"
	"repro/internal/gpu"
)

func newTitanX() *Device { return NewDevice(gpu.TitanX()) }

func busyProfile() gpu.KernelProfile {
	var c clkernel.Counts
	c.Ops[clkernel.OpFloatAdd] = 1000
	c.Ops[clkernel.OpFloatMul] = 1000
	return gpu.KernelProfile{Name: "busy", Counts: c, WorkItems: 1 << 20}
}

func TestSupportedClockQueries(t *testing.T) {
	d := newTitanX()
	mems := d.DeviceGetSupportedMemoryClocks()
	if len(mems) != 4 || mems[0] != 3505 {
		t.Fatalf("memory clocks = %v", mems)
	}
	cores, err := d.DeviceGetSupportedGraphicsClocks(3505)
	if err != nil {
		t.Fatalf("graphics clocks: %v", err)
	}
	// The claimed list includes clamped gray clocks above 1202.
	if cores[len(cores)-1] != 1392 {
		t.Errorf("top claimed clock = %d, want 1392", cores[len(cores)-1])
	}
	if _, err := d.DeviceGetSupportedGraphicsClocks(1234); err == nil {
		t.Error("expected error for unknown memory clock")
	}
}

func TestSetApplicationsClocks(t *testing.T) {
	d := newTitanX()
	if err := d.DeviceSetApplicationsClocks(3505, 1001); err != nil {
		t.Fatalf("set 3505@1001: %v", err)
	}
	if got := d.DeviceGetApplicationsClocks(); got != (freq.Config{Mem: 3505, Core: 1001}) {
		t.Errorf("applied = %v", got)
	}
}

func TestSetClampQuirk(t *testing.T) {
	// Paper: "some of the configurations marked as supported by NVML are
	// not available, because the setting function does not actually change
	// the frequencies" — setting 1392 succeeds but applies 1202.
	d := newTitanX()
	if err := d.DeviceSetApplicationsClocks(3505, 1392); err != nil {
		t.Fatalf("set 3505@1392 should succeed (claimed): %v", err)
	}
	if got := d.DeviceGetApplicationsClocks().Core; got != 1202 {
		t.Errorf("applied core = %d, want clamped 1202", got)
	}
}

func TestSetRejectsUnknown(t *testing.T) {
	d := newTitanX()
	err := d.DeviceSetApplicationsClocks(3505, 123)
	if err == nil {
		t.Fatal("expected error for unlisted core clock")
	}
	var ns *ErrNotSupported
	if !errors.As(err, &ns) {
		t.Errorf("error type %T, want *ErrNotSupported", err)
	}
	if err := d.DeviceSetApplicationsClocks(101, 135); err == nil {
		t.Error("expected error for unknown memory clock")
	}
}

func TestAutoBoostToggle(t *testing.T) {
	d := newTitanX()
	if !d.AutoBoostedClocksEnabled() {
		t.Error("auto-boost should start enabled")
	}
	d.SetAutoBoostedClocksEnabled(false)
	if d.AutoBoostedClocksEnabled() {
		t.Error("auto-boost still enabled after disable")
	}
}

func TestPowerIdleVsLoad(t *testing.T) {
	d := newTitanX()
	idle := float64(d.DeviceGetPowerUsage()) / 1000
	r, err := d.BeginWorkload(busyProfile())
	if err != nil {
		t.Fatalf("BeginWorkload: %v", err)
	}
	loaded := float64(d.DeviceGetPowerUsage()) / 1000
	d.EndWorkload()
	after := float64(d.DeviceGetPowerUsage()) / 1000
	if loaded <= idle*1.5 {
		t.Errorf("loaded power %.1f W not well above idle %.1f W", loaded, idle)
	}
	if math.Abs(loaded-r.PowerWatts) > 0.05*r.PowerWatts {
		t.Errorf("reading %.1f W deviates >5%% from model %.1f W", loaded, r.PowerWatts)
	}
	if after > idle*1.2 {
		t.Errorf("power after EndWorkload %.1f W still near load", after)
	}
}

func TestPowerNoiseBounded(t *testing.T) {
	d := newTitanX()
	if _, err := d.BeginWorkload(busyProfile()); err != nil {
		t.Fatal(err)
	}
	defer d.EndWorkload()
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	var sum float64
	const n = 500
	for i := 0; i < n; i++ {
		w := float64(d.DeviceGetPowerUsage()) / 1000
		sum += w
		lo = math.Min(lo, w)
		hi = math.Max(hi, w)
	}
	mean := sum / n
	if (hi-lo)/mean > 0.05 {
		t.Errorf("noise spread %.2f%% too large", 100*(hi-lo)/mean)
	}
	if (hi-lo)/mean == 0 {
		t.Error("power readings carry no noise at all; sampling realism lost")
	}
}

func TestPowerDeterministic(t *testing.T) {
	read := func() []uint64 {
		d := newTitanX()
		if _, err := d.BeginWorkload(busyProfile()); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, 10)
		for i := range out {
			out[i] = d.DeviceGetPowerUsage()
		}
		return out
	}
	a, b := read(), read()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reading %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBeginWorkloadBadClocks(t *testing.T) {
	d := NewDevice(gpu.P100())
	// P100 simulates fine at its only memory clock.
	if _, err := d.BeginWorkload(busyProfile()); err != nil {
		t.Errorf("P100 BeginWorkload: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := newTitanX()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				d.DeviceGetPowerUsage()
				_ = d.DeviceGetApplicationsClocks()
				_ = d.DeviceSetApplicationsClocks(3505, 1001)
			}
		}()
	}
	wg.Wait() // race detector verifies safety
}
