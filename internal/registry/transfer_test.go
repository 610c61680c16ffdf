package registry

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/svm"
)

// constSVM builds a support-vector-free model predicting exactly b.
func constSVM(t *testing.T, b float64) *svm.Model {
	t.Helper()
	doc := `{"kernel":{"type":"linear"},"support_vectors":[],"coefs":[],"b":` +
		strconv.FormatFloat(b, 'g', -1, 64) + `}`
	m, err := svm.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// publishSmall saves the shared small model set for a device and activates
// it, returning the manifest.
func publishSmall(t *testing.T, store *Store, device string) Manifest {
	t.Helper()
	_, models := trainSmall(t)
	man, err := store.Save(device, "", models, Training{SettingsPerKernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate(device, man.Version); err != nil {
		t.Fatal(err)
	}
	return man
}

func TestExportImportRoundTripBitIdentical(t *testing.T) {
	eng, _ := trainSmall(t)
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man := publishSmall(t, src, "titanx")

	// Empty version exports the active snapshot.
	doc, err := src.ExportDoc("titanx", "")
	if err != nil {
		t.Fatal(err)
	}

	// Import into a second, memory-mode store (the agent shape).
	dst, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.ImportDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != man.Hash || got.Version != man.Version || got.Device != "titanx" {
		t.Fatalf("imported manifest %+v does not match exported %+v", got, man)
	}

	// The imported snapshot must predict bit-identically to the source.
	ladder := eng.Harness().Device().Sim().Ladder
	srcModels, _, err := src.Load("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	dstModels, _, err := dst.Load("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	srcPred := engine.NewPredictor(srcModels, ladder, engine.Options{})
	dstPred := engine.NewPredictor(dstModels, ladder, engine.Options{})
	st := engine.TrainingKernels()[3].Features
	for _, cfg := range ladder.Configs() {
		if a, b := srcPred.PredictConfig(st, cfg), dstPred.PredictConfig(st, cfg); a != b {
			t.Fatalf("prediction at %v differs after transfer: %+v vs %+v", cfg, a, b)
		}
	}

	// Re-import of identical content is an idempotent no-op.
	if _, err := dst.ImportDoc(doc); err != nil {
		t.Fatalf("idempotent re-import failed: %v", err)
	}

	// The imported sequence number advances the local counter, so a later
	// Reserve cannot collide with the imported version.
	v, err := dst.Reserve("titanx")
	if err != nil {
		t.Fatal(err)
	}
	if v <= man.Version {
		t.Fatalf("Reserve after import returned %s, want a version past %s", v, man.Version)
	}
}

func TestImportDocRejectsTampering(t *testing.T) {
	src, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	publishSmall(t, src, "titanx")
	doc, err := src.ExportDoc("titanx", "")
	if err != nil {
		t.Fatal(err)
	}

	// Perturb the models payload (still valid JSON): the content hash no
	// longer matches and the import must fail with ErrCorrupt.
	tampered := strings.Replace(string(doc), `"coefs": [`, `"coefs": [0,`, 1)
	if tampered == string(doc) {
		t.Fatal("tamper marker not found in document")
	}
	dst, _ := Open("")
	if _, err := dst.ImportDoc([]byte(tampered)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered import error = %v, want ErrCorrupt", err)
	}

	// Truncated and non-JSON documents are also ErrCorrupt.
	if _, err := dst.ImportDoc(doc[:len(doc)/2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated import error = %v, want ErrCorrupt", err)
	}
	if _, err := dst.ImportDoc([]byte("not json")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage import error = %v, want ErrCorrupt", err)
	}
}

// editManifest rewrites a snapshot document's manifest through edit. The
// content hash covers the models payload, not the manifest, so the edited
// document stays intact.
func editManifest(t *testing.T, doc []byte, edit func(man map[string]any)) []byte {
	t.Helper()
	var sf map[string]json.RawMessage
	if err := json.Unmarshal(doc, &sf); err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(sf["manifest"], &man); err != nil {
		t.Fatal(err)
	}
	edit(man)
	manRaw, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	sf["manifest"] = manRaw
	edited, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	return edited
}

func TestImportDocRejectsSchemaMismatch(t *testing.T) {
	src, _ := Open("")
	publishSmall(t, src, "titanx")
	doc, err := src.ExportDoc("titanx", "")
	if err != nil {
		t.Fatal(err)
	}
	// A schema edit leaves the document intact but incompatible: exactly
	// the shape a snapshot from a differently built binary would have.
	edited := editManifest(t, doc, func(man map[string]any) {
		schema := man["schema"].(map[string]any)
		schema["dim"] = schema["dim"].(float64) + 1
	})
	dst, _ := Open("")
	if _, err := dst.ImportDoc(edited); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("schema-mismatched import error = %v, want ErrIncompatible", err)
	}
}

// TestWarmStartManifestStillLoads: manifests written while retrains could
// be warm-started carry training.warm_start. Such a document must still
// import, verify by content hash and load, with models that predict
// exactly like the exported ones.
func TestWarmStartManifestStillLoads(t *testing.T) {
	src, _ := Open("")
	man := publishSmall(t, src, "titanx")
	doc, err := src.ExportDoc("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	old := editManifest(t, doc, func(m map[string]any) {
		m["training"].(map[string]any)["warm_start"] = map[string]any{"from_version": "v0001", "matched_rows": 1173}
	})
	if !strings.Contains(string(old), `"warm_start"`) {
		t.Fatal("edited document lost its warm_start field")
	}
	dir := t.TempDir()
	dst, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportDoc(old); err != nil {
		t.Fatalf("ImportDoc of a warm_start manifest: %v", err)
	}
	fresh, err := Open(dir) // a cold store re-reads and re-verifies the file
	if err != nil {
		t.Fatal(err)
	}
	got, gotMan, err := fresh.Load("titanx", man.Version)
	if err != nil {
		t.Fatalf("Load of a warm_start manifest: %v", err)
	}
	if gotMan.Hash != man.Hash {
		t.Fatalf("hash %s, want %s", gotMan.Hash, man.Hash)
	}
	want, _, err := src.Load("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, features.Dim)
	for i := range x {
		x[i] = 0.1 * float64(i+1)
	}
	if got.Speedup.Predict(x) != want.Speedup.Predict(x) || got.Energy.Predict(x) != want.Energy.Predict(x) {
		t.Fatal("loaded models predict differently from the exported ones")
	}
}

// TestWrongWidthModelsAreIncompatible pins the input-width check: a
// snapshot whose support vectors are not features.Dim wide is intact (its
// hash matches) but cannot predict this binary's rows, so both the owning
// store's Load and a receiving store's ImportDoc refuse it with
// ErrIncompatible instead of handing it to a predictor.
func TestWrongWidthModelsAreIncompatible(t *testing.T) {
	narrow := func(t *testing.T) *svm.Model {
		t.Helper()
		doc := `{"kernel":{"type":"rbf","gamma":0.5},"support_vectors":[[0.1,0.2,0.3]],"coefs":[1],"b":0}`
		m, err := svm.Load(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	src, _ := Open("")
	man, err := src.Save("titanx", "", &core.Models{Speedup: constSVM(t, 1), Energy: narrow(t)}, Training{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Load("titanx", man.Version); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("Load of 3-wide models: error = %v, want ErrIncompatible", err)
	}
	doc, err := src.ExportDoc("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := Open("")
	if _, err := dst.ImportDoc(doc); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("ImportDoc of 3-wide models: error = %v, want ErrIncompatible", err)
	}
	if es, _ := dst.List("titanx"); len(es) != 0 {
		t.Fatalf("refused document was published: %v", es)
	}
}

func TestImportDocRejectsVersionCollision(t *testing.T) {
	src, _ := Open("")
	publishSmall(t, src, "titanx")
	doc, err := src.ExportDoc("titanx", "v0001")
	if err != nil {
		t.Fatal(err)
	}

	// The destination already has a v0001 for titanx with different
	// content (a constant stand-in model set, so the hashes differ).
	other := &core.Models{Speedup: constSVM(t, 2), Energy: constSVM(t, 2)}
	dst, _ := Open("")
	if _, err := dst.Save("titanx", "", other, Training{}); err != nil {
		t.Fatal(err)
	}
	_, err = dst.ImportDoc(doc)
	if err == nil || !strings.Contains(err.Error(), "different content") {
		t.Fatalf("colliding import error = %v, want a different-content error", err)
	}
}

func TestImportDocRejectsBadIdentifiers(t *testing.T) {
	src, _ := Open("")
	publishSmall(t, src, "titanx")
	doc, err := src.ExportDoc("titanx", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ field, value string }{
		{"device", "../escape"},
		{"device", ""},
		{"version", "ACTIVE"},
	} {
		var sf map[string]json.RawMessage
		if err := json.Unmarshal(doc, &sf); err != nil {
			t.Fatal(err)
		}
		var man map[string]any
		if err := json.Unmarshal(sf["manifest"], &man); err != nil {
			t.Fatal(err)
		}
		man[bad.field] = bad.value
		sf["manifest"], _ = json.Marshal(man)
		edited, _ := json.Marshal(sf)
		dst, _ := Open("")
		if _, err := dst.ImportDoc(edited); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s=%q import error = %v, want ErrCorrupt", bad.field, bad.value, err)
		}
	}
}

func TestDevicesListsStoreContents(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	devices, err := store.Devices()
	if err != nil || len(devices) != 0 {
		t.Fatalf("empty store Devices() = %v, %v", devices, err)
	}
	publishSmall(t, store, "titanx")
	publishSmall(t, store, "p100")
	devices, err = store.Devices()
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 2 || devices[0] != "p100" || devices[1] != "titanx" {
		t.Fatalf("Devices() = %v, want [p100 titanx]", devices)
	}
}

func TestNearestPicksClosestCompatibleDonor(t *testing.T) {
	store, _ := Open("")
	publishSmall(t, store, "titanx")
	publishSmall(t, store, "p100")
	manGV := publishSmall(t, store, "gv100")

	dist := func(device string) (float64, bool) {
		switch device {
		case "titanx":
			return 0.5, true
		case "p100":
			return 0.2, true
		case "gv100":
			return 0.1, true
		}
		return 0, false
	}
	device, version, d, err := store.Nearest("v100", dist)
	if err != nil {
		t.Fatal(err)
	}
	if device != "gv100" || version != manGV.Version || d != 0.1 {
		t.Fatalf("Nearest = %s/%s @ %g, want gv100/%s @ 0.1", device, version, d, manGV.Version)
	}

	// The target itself is never a donor; excluded devices (ok=false) are
	// skipped even if closer.
	device, _, _, err = store.Nearest("gv100", dist)
	if err != nil || device != "p100" {
		t.Fatalf("Nearest(gv100) = %s, %v, want p100", device, err)
	}
	onlyFar := func(device string) (float64, bool) { return 0.9, device == "titanx" }
	device, _, _, err = store.Nearest("v100", onlyFar)
	if err != nil || device != "titanx" {
		t.Fatalf("Nearest with exclusions = %s, %v, want titanx", device, err)
	}
}

func TestNearestNoDonorIsExplicit(t *testing.T) {
	store, _ := Open("")
	// Empty fleet: nothing to bootstrap from.
	if _, _, _, err := store.Nearest("p100", func(string) (float64, bool) { return 0, true }); !errors.Is(err, ErrNoDonor) {
		t.Fatalf("empty-store Nearest error = %v, want ErrNoDonor", err)
	}
	// A published but never-activated snapshot is not a donor.
	_, models := trainSmall(t)
	if _, err := store.Save("titanx", "", models, Training{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.Nearest("p100", func(string) (float64, bool) { return 0, true }); !errors.Is(err, ErrNoDonor) {
		t.Fatalf("inactive-donor Nearest error = %v, want ErrNoDonor", err)
	}
	// The only candidate being the target itself is also no donor.
	if err := store.Activate("titanx", "v0001"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.Nearest("titanx", func(string) (float64, bool) { return 0, true }); !errors.Is(err, ErrNoDonor) {
		t.Fatalf("self-only Nearest error = %v, want ErrNoDonor", err)
	}
}
