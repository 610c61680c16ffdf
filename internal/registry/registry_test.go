package registry

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

var trainOnce struct {
	sync.Once
	eng    *engine.Engine
	models *core.Models
	err    error
}

// trainSmall fits (once per test binary) a small but real model set for
// snapshot tests. The models are treated as read-only by every test.
func trainSmall(t testing.TB) (*engine.Engine, *core.Models) {
	t.Helper()
	trainOnce.Do(func() {
		trainOnce.eng = engine.NewDefault(engine.Options{
			Workers: 2,
			Core:    core.Options{SettingsPerKernel: 3},
		})
		trainOnce.models, trainOnce.err = trainOnce.eng.TrainDefault(context.Background())
	})
	if trainOnce.err != nil {
		t.Fatalf("training: %v", trainOnce.err)
	}
	return trainOnce.eng, trainOnce.models
}

func TestSaveLoadRoundTripBitIdentical(t *testing.T) {
	eng, models := trainSmall(t)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Save("titanx", "", models, Training{SettingsPerKernel: 3, Kernels: 106, Samples: 954})
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != "v0001" {
		t.Fatalf("first version = %q, want v0001", man.Version)
	}
	if man.Hash == "" || man.Device != "titanx" || man.SpeedupModel.SupportVectors != models.Speedup.NumSV() {
		t.Fatalf("incomplete manifest: %+v", man)
	}
	if !man.Schema.Equal(CurrentSchema()) {
		t.Fatalf("manifest schema %+v != current %+v", man.Schema, CurrentSchema())
	}

	loaded, man2, err := store.Load("titanx", "v0001")
	if err != nil {
		t.Fatal(err)
	}
	if man2.Hash != man.Hash {
		t.Fatalf("hash changed across load: %s vs %s", man2.Hash, man.Hash)
	}

	// The loaded models must predict bit-identically to the saved set
	// at every supported configuration of every memory clock.
	ladder := eng.Harness().Device().Sim().Ladder
	orig := engine.NewPredictor(models, ladder, engine.Options{})
	got := engine.NewPredictor(loaded, ladder, engine.Options{})
	st := engine.TrainingKernels()[7].Features
	for _, cfg := range ladder.Configs() {
		a, b := orig.PredictConfig(st, cfg), got.PredictConfig(st, cfg)
		if a.Speedup != b.Speedup || a.NormEnergy != b.NormEnergy {
			t.Fatalf("prediction at %v differs: %+v vs %+v", cfg, a, b)
		}
	}
}

func TestSequenceAndList(t *testing.T) {
	_, models := trainSmall(t)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := store.Save("titanx", "", models, Training{}); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh Store over the same directory must continue the sequence.
	store2, err := Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	v, err := store2.Reserve("titanx")
	if err != nil {
		t.Fatal(err)
	}
	if v != "v0004" {
		t.Fatalf("sequence did not resume from disk: got %s, want v0004", v)
	}

	entries, err := store2.List("titanx")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("listed %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Err != "" || e.Active {
			t.Fatalf("entry %d unexpected: %+v", i, e)
		}
	}

	if err := store2.Activate("titanx", "v0002"); err != nil {
		t.Fatal(err)
	}
	entries, _ = store2.List("titanx")
	if !entries[1].Active || entries[0].Active || entries[2].Active {
		t.Fatalf("active flag wrong after Activate: %+v", entries)
	}

	// Reusing an existing version id must be rejected.
	if _, err := store2.Save("titanx", "v0002", models, Training{}); err == nil {
		t.Fatal("overwriting an existing version did not fail")
	}
}

func TestActivateRollback(t *testing.T) {
	_, models := trainSmall(t)
	dir := t.TempDir()
	store, _ := Open(dir)
	for i := 0; i < 2; i++ {
		if _, err := store.Save("titanx", "", models, Training{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := store.ActiveState("titanx"); ok {
		t.Fatal("device active before any Activate")
	}
	if err := store.Activate("titanx", "v0001"); err != nil {
		t.Fatal(err)
	}
	if err := store.Activate("titanx", "v0002"); err != nil {
		t.Fatal(err)
	}
	if st, _ := store.ActiveState("titanx"); st.Version != "v0002" {
		t.Fatalf("active = %s, want v0002", st.Version)
	}

	// Rollback state must survive a process restart (fresh Store), and
	// rollback is Activate(Previous): the outgoing version becomes the new
	// previous, so a second rollback toggles back.
	store2, _ := Open(dir)
	prev, ok := store2.Previous("titanx")
	if !ok || prev != "v0001" {
		t.Fatalf("previous = %q, %v; want v0001", prev, ok)
	}
	if err := store2.Activate("titanx", prev); err != nil {
		t.Fatal(err)
	}
	if st, _ := store2.ActiveState("titanx"); st.Version != "v0001" {
		t.Fatalf("rollback activated %q, want v0001", st.Version)
	}
	if prev, ok = store2.Previous("titanx"); !ok || prev != "v0002" {
		t.Fatalf("previous after rollback = %q, %v; want v0002", prev, ok)
	}
	if err := store2.Activate("titanx", prev); err != nil {
		t.Fatal(err)
	}
	if st, _ := store2.ActiveState("titanx"); st.Version != "v0002" {
		t.Fatalf("second rollback activated %q, want v0002", st.Version)
	}

	// No history: nothing to roll back to.
	empty, _ := Open(t.TempDir())
	if _, ok := empty.Previous("titanx"); ok {
		t.Fatal("empty store reports a rollback target")
	}

	if err := store.Activate("titanx", "v9999"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("activating a missing version: %v, want ErrNoSnapshot", err)
	}
}

func TestMemoryStoreSameBehavior(t *testing.T) {
	_, models := trainSmall(t)
	store, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if store.Persistent() {
		t.Fatal("empty dir must select the in-memory mode")
	}
	man, err := store.Save("p100", "", models, Training{Samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate("p100", man.Version); err != nil {
		t.Fatal(err)
	}
	loaded, man2, err := store.Load("p100", "") // "" = active
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || man2.Version != man.Version || man2.Training.Samples != 1 {
		t.Fatalf("memory-mode load: %+v", man2)
	}
	if _, _, err := store.Load("p100", "v0042"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing version: %v, want ErrNoSnapshot", err)
	}
}

func TestLoadActiveWithoutActivation(t *testing.T) {
	store, _ := Open(t.TempDir())
	if _, _, err := store.Load("titanx", ""); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("load active on empty store: %v, want ErrNoSnapshot", err)
	}
}

func TestCorruptAndTruncatedSnapshotsRejected(t *testing.T) {
	_, models := trainSmall(t)
	dir := t.TempDir()
	store, _ := Open(dir)
	man, err := store.Save("titanx", "", models, Training{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "titanx", man.Version+".json")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func() []byte
	}{
		{"truncated", func() []byte { return doc[:len(doc)/3] }},
		{"garbage", func() []byte { return []byte("not json at all") }},
		{"bit flip in models", func() []byte {
			// Flip a digit inside the models payload so JSON stays valid
			// but the content hash no longer matches.
			s := string(doc)
			i := strings.Index(s, `"coefs"`)
			if i < 0 {
				t.Fatal("no coefs field found")
			}
			j := strings.IndexAny(s[i:], "0123456789")
			b := []byte(s)
			at := i + j
			if b[at] == '9' {
				b[at] = '1'
			} else {
				b[at]++
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := store.Load("titanx", man.Version)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt snapshot load: %v, want ErrCorrupt", err)
			}
			// The listing surfaces the damage instead of hiding the version.
			entries, lerr := store.List("titanx")
			if lerr != nil || len(entries) != 1 || entries[0].Err == "" {
				t.Fatalf("List over corrupt snapshot: %+v, %v", entries, lerr)
			}
		})
	}
	// Restore and confirm the snapshot loads again (the mutations were
	// the only problem).
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("titanx", man.Version); err != nil {
		t.Fatalf("restored snapshot failed to load: %v", err)
	}
}

// TestKillDuringSnapshotLeavesPreviousLoadable simulates a crash mid-write:
// a half-written temporary file in the device directory must neither be
// picked up as a version nor prevent the previous version from loading.
func TestKillDuringSnapshotLeavesPreviousLoadable(t *testing.T) {
	_, models := trainSmall(t)
	dir := t.TempDir()
	store, _ := Open(dir)
	man, err := store.Save("titanx", "", models, Training{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate("titanx", man.Version); err != nil {
		t.Fatal(err)
	}

	// The crash artifact: a partial snapshot written the way writeAtomic
	// stages it, abandoned before the rename.
	devDir := filepath.Join(dir, "titanx")
	full, _ := os.ReadFile(filepath.Join(devDir, man.Version+".json"))
	if err := os.WriteFile(filepath.Join(devDir, ".tmp-123456"), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store (the restarted process) sees exactly one version, the
	// previous active version loads, and the listing is clean.
	store2, _ := Open(dir)
	entries, err := store2.List("titanx")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Version != man.Version || entries[0].Err != "" {
		t.Fatalf("crash artifact leaked into the listing: %+v", entries)
	}
	if st, ok := store2.ActiveState("titanx"); !ok || st.Version != man.Version {
		t.Fatalf("active pointer lost: %q, %v", st.Version, ok)
	}
	if _, _, err := store2.Load("titanx", ""); err != nil {
		t.Fatalf("previous version not loadable after simulated crash: %v", err)
	}
	// The sequence must also skip nothing: next reserve is v0002.
	if v, _ := store2.Reserve("titanx"); v != "v0002" {
		t.Fatalf("reserve after crash = %s, want v0002", v)
	}
}

func TestFindByHash(t *testing.T) {
	_, models := trainSmall(t)
	store, _ := Open(t.TempDir())
	man, err := store.Save("titanx", "", models, Training{})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := HashModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if hash != man.Hash {
		t.Fatalf("HashModels %s != manifest hash %s", hash, man.Hash)
	}
	if v, ok := store.FindByHash("titanx", hash); !ok || v != man.Version {
		t.Fatalf("FindByHash = %q, %v", v, ok)
	}
	if _, ok := store.FindByHash("titanx", "deadbeef"); ok {
		t.Fatal("FindByHash matched a bogus hash")
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	_, models := trainSmall(t)
	dir := t.TempDir()
	store, _ := Open(dir)
	man, err := store.Save("titanx", "", models, Training{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "titanx", man.Version+".json")
	doc, _ := os.ReadFile(path)
	// Rewrite the recorded dimension; the hash covers only the models, so
	// the document stays integrity-valid but schema-incompatible.
	mutated := strings.Replace(string(doc), `"dim": 12`, `"dim": 13`, 1)
	if mutated == string(doc) {
		t.Fatal("schema dim not found in snapshot")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = store.Load("titanx", man.Version)
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch load: %v, want schema error", err)
	}
	// Load classifies it as ImportDoc does.
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("schema mismatch load: %v, want ErrIncompatible", err)
	}
}

func TestManifestNaNFreeAndFinite(t *testing.T) {
	// Guard against junk metadata sneaking into manifests.
	_, models := trainSmall(t)
	store, _ := Open("")
	man, err := store.Save("titanx", "", models, Training{DurationMS: 12.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(man.Training.DurationMS) || man.CreatedAt.IsZero() {
		t.Fatalf("bad manifest metadata: %+v", man)
	}
}
