package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/registry"
)

// newEngineOn builds a small-training engine for the named device.
func newEngineOn(t *testing.T, name string) *engine.Engine {
	t.Helper()
	d, err := device(name)
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(measure.NewHarness(nvml.NewDevice(d)), engine.Options{
		Workers: 4,
		Core:    core.Options{SettingsPerKernel: 4},
	})
}

func contextForTest() context.Context { return context.Background() }

func TestDeviceSelection(t *testing.T) {
	for _, name := range []string{"", "titanx", "p100"} {
		if _, err := device(name); err != nil {
			t.Errorf("device(%q): %v", name, err)
		}
	}
	if _, err := device("rtx5090"); err == nil {
		t.Error("device(rtx5090) should fail")
	}
}

func TestCmdClocks(t *testing.T) {
	if err := cmdClocks([]string{"-device", "titanx"}); err != nil {
		t.Errorf("cmdClocks titanx: %v", err)
	}
	if err := cmdClocks([]string{"-device", "p100"}); err != nil {
		t.Errorf("cmdClocks p100: %v", err)
	}
	if err := cmdClocks([]string{"-device", "bogus"}); err == nil {
		t.Error("cmdClocks bogus should fail")
	}
}

func TestCmdFeatures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.cl")
	src := `__kernel void k(__global float* o, float x) { o[0] = x * x; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdFeatures([]string{path}); err != nil {
		t.Errorf("cmdFeatures: %v", err)
	}
	if err := cmdFeatures([]string{path, "-kernel", "k"}); err == nil {
		// flag package requires flags before positional args in our setup;
		// the supported order is positional last.
		t.Log("flag-after-positional accepted (ok)")
	}
	if err := cmdFeatures([]string{"-kernel", "k", path}); err != nil {
		t.Errorf("cmdFeatures named: %v", err)
	}
	if err := cmdFeatures([]string{"-kernel", "missing", path}); err == nil {
		t.Error("cmdFeatures with missing kernel name should fail")
	}
	if err := cmdFeatures([]string{filepath.Join(dir, "absent.cl")}); err == nil {
		t.Error("cmdFeatures with absent file should fail")
	}
	if err := cmdFeatures(nil); err == nil {
		t.Error("cmdFeatures without args should fail")
	}
}

func TestCmdSelectList(t *testing.T) {
	if err := cmdSelect([]string{"-list"}); err != nil {
		t.Errorf("select -list: %v", err)
	}
}

func TestCmdSelectValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.cl")
	src := `__kernel void k(__global float* o, float x) { o[0] = x * x; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdSelect(nil); err == nil {
		t.Error("select without args should fail")
	}
	if err := cmdSelect([]string{"-policy", "max-vibes", path}); err == nil {
		t.Error("select with unknown policy should fail")
	}
	if err := cmdSelect([]string{"-device", "rtx5090", path}); err == nil {
		t.Error("select with unknown device should fail")
	}
	if err := cmdSelect([]string{"-model", filepath.Join(dir, "absent.json"), path}); err == nil {
		t.Error("select with absent model file should fail")
	}
}

// TestCmdSelectEndToEnd trains a tiny model once, persists it, then runs
// select against the file for every built-in policy on both devices.
func TestCmdSelectEndToEnd(t *testing.T) {
	dir := t.TempDir()
	kpath := filepath.Join(dir, "k.cl")
	src := `__kernel void k(__global const float* a, __global float* o, int n) {
		int i = get_global_id(0);
		if (i < n) o[i] = a[i] * 2.0f;
	}`
	if err := os.WriteFile(kpath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"titanx", "p100"} {
		mpath := filepath.Join(dir, dev+".json")
		eng := newEngineOn(t, dev)
		if _, err := eng.TrainDefault(contextForTest()); err != nil {
			t.Fatal(err)
		}
		models := eng.Models()
		if err := models.SaveFile(mpath); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"min-energy", "max-perf", "edp", "ed2p", "balanced"} {
			args := []string{"-policy", name, "-device", dev, "-model", mpath, kpath}
			if err := cmdSelect(args); err != nil {
				t.Errorf("select %s on %s: %v", name, dev, err)
			}
		}
	}
	// The no-model branch trains in-process before deciding.
	if err := cmdSelect([]string{"-settings", "4", "-workers", "4", kpath}); err != nil {
		t.Errorf("select with in-process training: %v", err)
	}
}

// TestCmdSaveLoadModels exercises the registry subcommands end to end:
// save publishes and activates a snapshot, models lists it, load verifies
// and exports it, and predict/select serve from the same directory.
func TestCmdSaveLoadModels(t *testing.T) {
	dir := t.TempDir()
	modelDir := filepath.Join(dir, "models")
	kpath := filepath.Join(dir, "k.cl")
	src := `__kernel void k(__global const float* a, __global float* o, int n) {
		int i = get_global_id(0);
		if (i < n) o[i] = a[i] * 2.0f;
	}`
	if err := os.WriteFile(kpath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := cmdSave([]string{"-model-dir", modelDir, "-settings", "4", "-workers", "4"}); err != nil {
		t.Fatalf("save: %v", err)
	}
	store, err := registry.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := store.ActiveState("titanx"); !ok || st.Version != "v0001" {
		t.Fatalf("save did not activate: %q, %v", st.Version, ok)
	}

	if err := cmdModels([]string{"-model-dir", modelDir}); err != nil {
		t.Fatalf("models: %v", err)
	}
	if err := cmdModels([]string{"-model-dir", modelDir, "-device", "p100"}); err != nil {
		t.Fatalf("models (empty device): %v", err)
	}

	flat := filepath.Join(dir, "exported.json")
	if err := cmdLoad([]string{"-model-dir", modelDir, "-out", flat}); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := core.LoadFile(flat); err != nil {
		t.Fatalf("exported flat file unreadable: %v", err)
	}
	if err := cmdLoad([]string{"-model-dir", modelDir, "-version", "v0042"}); err == nil {
		t.Fatal("load of a missing version should fail")
	}

	if err := cmdPredict([]string{"-model-dir", modelDir, kpath}); err != nil {
		t.Fatalf("predict -model-dir: %v", err)
	}
	if err := cmdSelect([]string{"-model-dir", modelDir, "-policy", "edp", kpath}); err != nil {
		t.Fatalf("select -model-dir: %v", err)
	}

	// A second save mints v0002 and becomes active.
	if err := cmdSave([]string{"-model-dir", modelDir, "-settings", "4", "-workers", "4"}); err != nil {
		t.Fatalf("second save: %v", err)
	}
	if st, _ := store.ActiveState("titanx"); st.Version != "v0002" {
		t.Fatalf("second save active = %q, want v0002", st.Version)
	}
	if prev, ok := store.Previous("titanx"); !ok || prev != "v0001" {
		t.Fatalf("previous = %q, %v; want v0001", prev, ok)
	}
}

func TestCmdCharacterizeValidation(t *testing.T) {
	if err := cmdCharacterize([]string{"NotABenchmark"}); err == nil {
		t.Error("characterize of unknown benchmark should fail")
	}
	if err := cmdCharacterize(nil); err == nil {
		t.Error("characterize without args should fail")
	}
}

// TestCmdSavePaperScaleConverged: a snapshot saved at the paper's 40
// settings per kernel records both fits as converged, and the linear
// speedup model as its single weight vector.
func TestCmdSavePaperScaleConverged(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	if err := cmdSave([]string{"-model-dir", modelDir, "-settings", "40"}); err != nil {
		t.Fatalf("save: %v", err)
	}
	store, err := registry.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.GetManifest("titanx", "v0001")
	if err != nil {
		t.Fatal(err)
	}
	if !man.SpeedupModel.Converged || !man.EnergyModel.Converged {
		t.Fatalf("converged: speedup %+v, energy %+v; want both true", man.SpeedupModel, man.EnergyModel)
	}
	if man.SpeedupModel.SupportVectors != 1 {
		t.Errorf("speedup model stores %d rows, want one weight vector", man.SpeedupModel.SupportVectors)
	}
}
