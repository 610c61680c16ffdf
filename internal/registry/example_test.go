package registry_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/registry"
	"repro/internal/svm"
)

// tinyModels trains a minimal model set over the real input width —
// enough to snapshot, not enough to predict anything useful.
func tinyModels() (*core.Models, error) {
	xs := make([][]float64, 4)
	for i := range xs {
		xs[i] = make([]float64, features.Dim)
		xs[i][0], xs[i][1] = float64(i/2), float64(i%2)
	}
	ys := []float64{0.2, 0.4, 0.6, 0.8}
	m, err := svm.Train(xs, ys, svm.Linear{}, svm.Params{C: 1, Epsilon: 0.01})
	if err != nil {
		return nil, err
	}
	return &core.Models{Speedup: m, Energy: m}, nil
}

// ExampleStore shows the snapshot lifecycle: publish a version, activate
// it, and load it back bit-identically — here against the in-memory store
// (pass a directory to Open for the durable, crash-safe variant gpufreqd
// uses).
func ExampleStore() {
	store, err := registry.Open("") // in-memory registry
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	models, err := tinyModels()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	man, err := store.Save("titanx", "", models, registry.Training{Samples: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := store.Activate("titanx", man.Version); err != nil {
		fmt.Println("error:", err)
		return
	}
	loaded, loadedMan, err := store.Load("titanx", "") // "" = the active version
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("published %s, active=%v\n", man.Version, func() bool { st, ok := store.ActiveState("titanx"); return ok && st.Version == man.Version }())
	fmt.Printf("loaded %s, hash matches: %v, models intact: %v\n",
		loadedMan.Version, loadedMan.Hash == man.Hash,
		loaded.Speedup.NumSV() == models.Speedup.NumSV())
	// Output:
	// published v0001, active=true
	// loaded v0001, hash matches: true, models intact: true
}

// ExampleStore_Previous shows durable one-step rollback: activating a new
// version records the outgoing one as the rollback target.
func ExampleStore_Previous() {
	store, _ := registry.Open("")
	models, err := tinyModels()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	m1, _ := store.Save("titanx", "", models, registry.Training{})
	m2, _ := store.Save("titanx", "", models, registry.Training{})
	store.Activate("titanx", m1.Version)
	store.Activate("titanx", m2.Version)
	prev, ok := store.Previous("titanx")
	fmt.Printf("active=%s rollback target=%s (%v)\n", m2.Version, prev, ok)
	// Output:
	// active=v0002 rollback target=v0001 (true)
}
