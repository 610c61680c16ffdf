package registry

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/svm"
)

// publishFronted saves the shared small model set with a front table over
// the first n training kernels into store and activates it.
func publishFronted(t testing.TB, store *Store, n int) Manifest {
	t.Helper()
	eng, models := trainSmall(t)
	pred := engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options())
	man, err := store.SaveWithFronts("titanx", "", models, Training{SettingsPerKernel: 3},
		ComputeFronts(pred, engine.TrainingKernels()[:n]))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate("titanx", man.Version); err != nil {
		t.Fatal(err)
	}
	return man
}

// TestWarmReadsEqualColdDecode pins that a memoized read returns exactly
// what a full decode on a fresh Store returns, for every read path.
func TestWarmReadsEqualColdDecode(t *testing.T) {
	dir := t.TempDir()
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := publishFronted(t, warm, 8)
	type reads struct {
		models *core.Models
		full   *Fronts
		man    Manifest
		fronts *Fronts
		doc    []byte
		got    Manifest
	}
	readAll := func(s *Store) reads {
		t.Helper()
		var r reads
		var err error
		if r.models, r.full, r.man, err = s.LoadFull("titanx", man.Version); err != nil {
			t.Fatal(err)
		}
		if r.fronts, err = s.LoadFronts("titanx", ""); err != nil {
			t.Fatal(err)
		}
		if r.doc, err = s.ExportDoc("titanx", man.Version); err != nil {
			t.Fatal(err)
		}
		if r.got, err = s.GetManifest("titanx", man.Version); err != nil {
			t.Fatal(err)
		}
		return r
	}
	readAll(warm) // populate the memo
	if len(warm.memo) != 1 {
		t.Fatalf("memo holds %d entries after reading one document, want 1", len(warm.memo))
	}
	got := readAll(warm)
	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := readAll(cold)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm reads differ from a cold decode")
	}
	if got.fronts == nil || got.fronts.Len() != 8 {
		t.Fatalf("warm LoadFronts = %d kernels, want 8", got.fronts.Len())
	}
	// Each LoadFull deserializes its own models.
	again, _, _, err := warm.LoadFull("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	if again == got.models {
		t.Fatal("LoadFull returned a shared *core.Models")
	}
}

// TestSameSizeInPlaceFlipCaughtAfterWarmLoad is the reason the memo is
// content-addressed: a byte flipped in place, with the file's size and
// mtime unchanged, must still fail the next read of every kind. A memo
// keyed on (size, mtime) would serve the stale decode and fail this test.
func TestSameSizeInPlaceFlipCaughtAfterWarmLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := publishFronted(t, store, 4)
	path := filepath.Join(dir, "titanx", man.Version+".json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string]func() error{
		"LoadFronts": func() error { _, err := store.LoadFronts("titanx", man.Version); return err },
		"LoadFull":   func() error { _, _, _, err := store.LoadFull("titanx", man.Version); return err },
		"ExportDoc":  func() error { _, err := store.ExportDoc("titanx", man.Version); return err },
	}
	// flip rewrites one digit after the first occurrence of field, in
	// place: same size, and the original mtime restored.
	flip := func(t *testing.T, field string) {
		t.Helper()
		i := strings.Index(string(pristine), field)
		if i < 0 {
			t.Fatalf("no %s in the snapshot", field)
		}
		at := i + strings.IndexAny(string(pristine[i:]), "123456789")
		b := append([]byte(nil), pristine...)
		if b[at] == '9' {
			b[at] = '1'
		} else {
			b[at]++
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(b[at:at+1], int64(at)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
			t.Fatal(err)
		}
		now, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if now.Size() != fi.Size() || !now.ModTime().Equal(fi.ModTime()) {
			t.Fatalf("flip changed size or mtime: %d %v, was %d %v", now.Size(), now.ModTime(), fi.Size(), fi.ModTime())
		}
	}
	for section, field := range map[string]string{"models": `"coefs"`, "fronts": `"pareto"`} {
		t.Run(section, func(t *testing.T) {
			if err := os.WriteFile(path, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
			for name, read := range readers {
				if err := read(); err != nil {
					t.Fatalf("warm %s of the pristine snapshot: %v", name, err)
				}
			}
			flip(t, field)
			for name, read := range readers {
				if err := read(); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s after an in-place flip in %s: err = %v, want ErrCorrupt", name, section, err)
				}
			}
		})
	}
}

// TestMemoBounded loads six versions and checks the memo never holds more
// than memoSize decodes, keeping the most recently read ones.
func TestMemoBounded(t *testing.T) {
	_, models := trainSmall(t)
	store, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	var versions []string
	for i := 0; i < 6; i++ {
		man, err := store.Save("titanx", "", models, Training{Samples: i})
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, man.Version)
		if _, _, err := store.Load("titanx", man.Version); err != nil {
			t.Fatal(err)
		}
		if len(store.memo) > memoSize {
			t.Fatalf("memo holds %d entries after %d loads, bound %d", len(store.memo), i+1, memoSize)
		}
	}
	// Re-reading the oldest survivor makes it most recently used, so the
	// next miss evicts the one after it.
	if _, _, err := store.Load("titanx", versions[2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("titanx", versions[0]); err != nil {
		t.Fatal(err)
	}
	var held []string
	for _, v := range store.memo {
		held = append(held, v.man.Version)
	}
	want := []string{versions[4], versions[5], versions[2], versions[0]}
	if !reflect.DeepEqual(held, want) {
		t.Fatalf("memo holds %v (least recent first), want %v", held, want)
	}
}

// TestFailedDecodeNeverMemoized checks that no read path memoizes a
// document that failed verification, and that a memo hit still gets the
// manifest-version check.
func TestFailedDecodeNeverMemoized(t *testing.T) {
	_, models := trainSmall(t)
	store, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Save("titanx", "", models, Training{})
	if err != nil {
		t.Fatal(err)
	}
	pristine := store.mem["titanx"][man.Version]
	var sf snapshotFile
	if err := json.Unmarshal(pristine, &sf); err != nil {
		t.Fatal(err)
	}
	sf.Manifest.Hash = strings.Repeat("0", len(sf.Manifest.Hash))
	tampered, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	store.mem["titanx"][man.Version] = tampered
	for i := 0; i < 2; i++ {
		if _, _, err := store.Load("titanx", man.Version); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load #%d of a tampered snapshot: %v, want ErrCorrupt", i+1, err)
		}
		if _, err := store.LoadFronts("titanx", man.Version); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("LoadFronts #%d of a tampered snapshot: %v, want ErrCorrupt", i+1, err)
		}
		if _, err := store.ExportDoc("titanx", man.Version); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ExportDoc #%d of a tampered snapshot: %v, want ErrCorrupt", i+1, err)
		}
		if _, err := store.GetManifest("titanx", man.Version); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("GetManifest #%d of a tampered snapshot: %v, want ErrCorrupt", i+1, err)
		}
	}
	other, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ImportDoc(tampered); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ImportDoc of a tampered snapshot: %v, want ErrCorrupt", err)
	}
	if len(store.memo) != 0 || len(other.memo) != 0 {
		t.Fatalf("failed decodes memoized: %d and %d entries", len(store.memo), len(other.memo))
	}

	// A verified document served under another version id is rejected on
	// the memo hit exactly as decode rejects it.
	store.mem["titanx"][man.Version] = pristine
	if _, _, err := store.Load("titanx", man.Version); err != nil {
		t.Fatal(err)
	}
	store.mem["titanx"]["v0009"] = pristine
	if _, _, err := store.Load("titanx", "v0009"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of a copied snapshot under another version: %v, want ErrCorrupt", err)
	}
}

// TestConcurrentReadsDuringPublish runs the memo's readers against
// publishes and activations; run it under -race.
func TestConcurrentReadsDuringPublish(t *testing.T) {
	eng, models := trainSmall(t)
	pred := engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options())
	fronts := ComputeFronts(pred, engine.TrainingKernels()[:2])
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publish := func() error {
		man, err := store.SaveWithFronts("titanx", "", models, Training{}, fronts)
		if err != nil {
			return err
		}
		return store.Activate("titanx", man.Version)
	}
	if err := publish(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				if f, err := store.LoadFronts("titanx", ""); err != nil || f.Len() != 2 {
					errs <- errors.Join(err, errors.New("LoadFronts: wrong table"))
					return
				}
				if _, err := store.ExportDoc("titanx", ""); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if err := publish(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(store.memo) > memoSize {
		t.Fatalf("memo holds %d entries, bound %d", len(store.memo), memoSize)
	}
}

// benchModels builds a deterministic model set with the deployed shape —
// a linear speedup model and an RBF energy model (γ=4, 222 support
// vectors) over the full feature dimension — without training.
func benchModels(tb testing.TB) *core.Models {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	model := func(kernel string, gamma float64, nsv int) *svm.Model {
		doc := map[string]any{
			"kernel": map[string]any{"type": kernel, "gamma": gamma},
			"b":      1.0,
		}
		svs := make([][]float64, nsv)
		coefs := make([]float64, nsv)
		for i := range svs {
			svs[i] = make([]float64, features.Dim)
			for j := range svs[i] {
				svs[i][j] = rng.Float64()
			}
			coefs[i] = rng.Float64() - 0.5
		}
		doc["support_vectors"], doc["coefs"] = svs, coefs
		raw, err := json.Marshal(doc)
		if err != nil {
			tb.Fatal(err)
		}
		m, err := svm.Load(strings.NewReader(string(raw)))
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	return &core.Models{Speedup: model("linear", 0, 64), Energy: model("rbf", 4, 222)}
}

// benchStore publishes and activates a snapshot whose front table has the
// full-size shape — all 106 training kernels swept over the full Titan X
// ladder — and returns its directory.
func benchStore(b *testing.B) string {
	b.Helper()
	eng := engine.NewDefault(engine.Options{})
	models := benchModels(b)
	pred := engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options())
	dir := b.TempDir()
	store, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	man, err := store.SaveWithFronts("titanx", "", models, Training{},
		ComputeFronts(pred, engine.TrainingKernels()))
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Activate("titanx", man.Version); err != nil {
		b.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "titanx", man.Version+".json")); err == nil {
		b.Logf("snapshot %d bytes, %d front kernels", fi.Size(), man.Fronts.Kernels)
	}
	return dir
}

// benchRead times one read path cold (a fresh Store per read, so every
// read is a full decode) and warm (one Store, so every read after the
// first is a read plus a hash).
func benchRead(b *testing.B, read func(*Store) error) {
	dir := benchStore(b)
	open := func() *Store {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := read(open()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := open()
		if err := read(s); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := read(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoadFronts is the fleet replan's per-device read.
func BenchmarkLoadFronts(b *testing.B) {
	benchRead(b, func(s *Store) error { _, err := s.LoadFronts("titanx", ""); return err })
}

// BenchmarkExportDoc is a stale node registration's read.
func BenchmarkExportDoc(b *testing.B) {
	benchRead(b, func(s *Store) error { _, err := s.ExportDoc("titanx", ""); return err })
}
