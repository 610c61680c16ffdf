package registry

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// frontsSmall computes the publish-time front table for the shared small
// model set over every training kernel.
func frontsSmall(t *testing.T) (*engine.Engine, *core.Models, *Fronts) {
	t.Helper()
	eng, models := trainSmall(t)
	pred := engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options())
	return eng, models, ComputeFronts(pred, engine.TrainingKernels())
}

func TestSaveWithFrontsRoundTripBitIdentical(t *testing.T) {
	_, models, fronts := frontsSmall(t)
	if fronts.Len() == 0 {
		t.Fatal("ComputeFronts returned no kernels")
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.SaveWithFronts("titanx", "", models,
		Training{SettingsPerKernel: 3, Kernels: 106, Samples: 318}, fronts)
	if err != nil {
		t.Fatal(err)
	}
	if man.Fronts == nil {
		t.Fatal("manifest carries no fronts info")
	}
	if man.Fronts.Kernels != fronts.Len() || man.Fronts.Hash == "" {
		t.Fatalf("fronts info %+v, want %d kernels and a hash", man.Fronts, fronts.Len())
	}

	_, loaded, man2, err := store.LoadFull("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || loaded.Len() != fronts.Len() {
		t.Fatalf("loaded fronts = %v, want %d kernels", loaded, fronts.Len())
	}
	if man2.Fronts == nil || man2.Fronts.Hash != man.Fronts.Hash {
		t.Fatalf("fronts hash changed across load: %+v vs %+v", man2.Fronts, man.Fronts)
	}
	// Re-encoding the loaded table must reproduce the stored hash exactly:
	// the fronts round-trip bit-identically through JSON.
	_, rehash, err := encodeFronts(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if rehash != man.Fronts.Hash {
		t.Fatalf("re-encoded fronts hash %s != stored %s", rehash, man.Fronts.Hash)
	}

	// LoadFronts on the activated version resolves the same table.
	if err := store.Activate("titanx", man.Version); err != nil {
		t.Fatal(err)
	}
	active, err := store.LoadFronts("titanx", "")
	if err != nil {
		t.Fatal(err)
	}
	if active == nil || active.Len() != fronts.Len() {
		t.Fatalf("LoadFronts(active) = %v, want %d kernels", active, fronts.Len())
	}
}

func TestFrontsMatchLiveSweep(t *testing.T) {
	eng, models, fronts := frontsSmall(t)
	pred := engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options())
	kernels := engine.TrainingKernels()
	checked := 0
	for _, k := range kernels[:8] {
		entry, ok := findFront(fronts, k.Name)
		if !ok {
			t.Fatalf("no front entry for training kernel %s", k.Name)
		}
		if live := pred.ParetoSet(k.Features); !reflect.DeepEqual(entry.Pareto, live) {
			t.Fatalf("%s: stored front %v, live sweep %v", k.Name, entry.Pareto, live)
		}
		if grid := pred.PredictAll(k.Features); !reflect.DeepEqual(entry.Grid, grid) {
			t.Fatalf("%s: stored grid %v, live %v", k.Name, entry.Grid, grid)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no kernels checked")
	}
}

func findFront(f *Fronts, name string) (FrontEntry, bool) {
	for _, e := range f.Kernels {
		if e.Name == name {
			return e, true
		}
	}
	return FrontEntry{}, false
}

// TestSnapshotWithoutFrontsCompat pins the backward-compatibility contract:
// a snapshot saved without fronts (the pre-fronts on-disk format) has no
// fronts key anywhere in the document, still loads, activates and serves,
// and reports a nil front table.
func TestSnapshotWithoutFrontsCompat(t *testing.T) {
	_, models := trainSmall(t)
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Save("titanx", "", models, Training{SettingsPerKernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if man.Fronts != nil {
		t.Fatalf("frontless manifest carries fronts info: %+v", man.Fronts)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "titanx", man.Version+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"fronts"`) {
		t.Fatal("frontless snapshot document mentions fronts; pre-fronts format broken")
	}
	if err := store.Activate("titanx", man.Version); err != nil {
		t.Fatal(err)
	}
	m, fronts, man2, err := store.LoadFull("titanx", "")
	if err != nil {
		t.Fatal(err)
	}
	if fronts != nil || man2.Fronts != nil {
		t.Fatalf("frontless load returned fronts %v / info %+v", fronts, man2.Fronts)
	}
	if m.Speedup.NumSV() != models.Speedup.NumSV() {
		t.Fatal("frontless snapshot did not round-trip the models")
	}
	if f, err := store.LoadFronts("titanx", ""); err != nil || f != nil {
		t.Fatalf("LoadFronts on frontless snapshot = %v, %v; want nil, nil", f, err)
	}
}

// TestFrontsTamperRejected covers the integrity contract: fronts bytes are
// hash-covered, and a fronts section without manifest bookkeeping (or vice
// versa) is corruption.
func TestFrontsTamperRejected(t *testing.T) {
	_, models, fronts := frontsSmall(t)
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.SaveWithFronts("titanx", "", models, Training{SettingsPerKernel: 3}, fronts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "titanx", man.Version+".json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	tamper := func(t *testing.T, mutate func(doc map[string]json.RawMessage)) {
		t.Helper()
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(pristine, &doc); err != nil {
			t.Fatal(err)
		}
		mutate(doc)
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := store.LoadFull("titanx", man.Version); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tampered snapshot loaded: err = %v, want ErrCorrupt", err)
		}
	}

	t.Run("fronts bytes flipped", func(t *testing.T) {
		tamper(t, func(doc map[string]json.RawMessage) {
			s := string(doc["fronts"])
			// Flip one digit inside the serialized front table.
			i := strings.Index(s, `"speedup":`)
			if i < 0 {
				t.Fatal("no speedup field in fronts")
			}
			doc["fronts"] = json.RawMessage(s[:i] + `"speedup":1e9,"was_speedup":` + s[i+len(`"speedup":`):])
		})
	})
	t.Run("fronts without manifest info", func(t *testing.T) {
		tamper(t, func(doc map[string]json.RawMessage) {
			var manDoc map[string]json.RawMessage
			if err := json.Unmarshal(doc["manifest"], &manDoc); err != nil {
				t.Fatal(err)
			}
			delete(manDoc, "fronts")
			raw, err := json.Marshal(manDoc)
			if err != nil {
				t.Fatal(err)
			}
			doc["manifest"] = raw
		})
	})
	t.Run("manifest info without fronts", func(t *testing.T) {
		tamper(t, func(doc map[string]json.RawMessage) {
			delete(doc, "fronts")
		})
	})
}

// TestFrontLoadersVerifyOnce pins the integrity contract of the two front
// loaders now that the fronts section is decoded once per load: LoadFronts
// and LoadFull each reject every class of corruption with ErrCorrupt, and
// both return nil fronts without error for a pre-fronts snapshot.
func TestFrontLoadersVerifyOnce(t *testing.T) {
	eng, models := trainSmall(t)
	pred := engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options())
	fronts := ComputeFronts(pred, engine.TrainingKernels()[:4])
	store, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.SaveWithFronts("titanx", "", models, Training{SettingsPerKernel: 3}, fronts)
	if err != nil {
		t.Fatal(err)
	}
	pristine := store.mem["titanx"][man.Version]

	loaders := map[string]func() error{
		"LoadFronts": func() error { _, err := store.LoadFronts("titanx", man.Version); return err },
		"LoadFull":   func() error { _, _, _, err := store.LoadFull("titanx", man.Version); return err },
	}
	for name, mutate := range map[string]func(sf *snapshotFile){
		"tampered fronts section": func(sf *snapshotFile) {
			sf.Fronts = json.RawMessage(strings.Replace(string(sf.Fronts), `"speedup":`, `"speedup":1e9,"was":`, 1))
		},
		"fronts hash mismatch": func(sf *snapshotFile) {
			sf.Manifest.Fronts.Hash = strings.Repeat("0", len(sf.Manifest.Fronts.Hash))
		},
		"kernel-count mismatch": func(sf *snapshotFile) {
			sf.Manifest.Fronts.Kernels++
		},
		"tampered models hash": func(sf *snapshotFile) {
			sf.Manifest.Hash = strings.Repeat("f", len(sf.Manifest.Hash))
		},
		"rehashed but malformed fronts": func(sf *snapshotFile) {
			sf.Fronts = json.RawMessage(`{"kernels":4}`)
			hash, err := hashRaw(sf.Fronts)
			if err != nil {
				t.Fatal(err)
			}
			sf.Manifest.Fronts.Hash = hash
		},
	} {
		var sf snapshotFile
		if err := json.Unmarshal(pristine, &sf); err != nil {
			t.Fatal(err)
		}
		mutate(&sf)
		doc, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		store.mem["titanx"][man.Version] = doc
		for loader, load := range loaders {
			if err := load(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %s: err = %v, want ErrCorrupt", name, loader, err)
			}
		}
	}

	store.mem["titanx"][man.Version] = pristine
	for loader, load := range loaders {
		if err := load(); err != nil {
			t.Fatalf("pristine snapshot: %s: %v", loader, err)
		}
	}
	plain, err := store.Save("titanx", "", models, Training{SettingsPerKernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f, err := store.LoadFronts("titanx", plain.Version); f != nil || err != nil {
		t.Fatalf("LoadFronts on a pre-fronts snapshot = %v, %v; want nil, nil", f, err)
	}
	if m, f, _, err := store.LoadFull("titanx", plain.Version); m == nil || f != nil || err != nil {
		t.Fatalf("LoadFull on a pre-fronts snapshot = %v, %v, %v; want models, nil, nil", m, f, err)
	}
}
