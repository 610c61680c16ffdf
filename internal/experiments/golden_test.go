package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/registry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestGolden is the behaviour lock: for each (device, settings per kernel)
// it trains one engine and writes what the trained models decide, at the
// precision the reports print, into testdata/golden/<name>.txt:
//
//   - each model's Converged flag;
//   - the models' content hash (registry.HashModels) and the hash of the
//     publish-time fronts table, as a SaveWithFronts manifest records it;
//   - the 12 test benchmarks × 5 built-in policies decision matrix;
//   - the Pareto configuration list of every training and test kernel;
//   - Fig. 6/7 RMSE per memory clock and Table 2 D per benchmark.
//
// A refactor must leave every file byte-identical. A model change
// regenerates them with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and the diff is the change's discrete behaviour change.
//
// The two hash lines pin float bits, and Go fuses multiply-adds on arm64,
// so they are compared, and may be rewritten, on amd64 only.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name     string
		dev      *gpu.Device
		settings int
	}{
		{"titanx-10", gpu.TitanX(), 10},
		{"p100-10", gpu.P100(), 10},
		{"titanx-40", gpu.TitanX(), 40}, // the paper's scale
	} {
		t.Run(c.name, func(t *testing.T) {
			got := goldenReport(t, c.dev, c.settings)
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if runtime.GOARCH != "amd64" {
					t.Fatal("the hash lines are pinned on amd64; rewrite the golden files there")
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if runtime.GOARCH != "amd64" {
				got, want = dropHashLines(got), dropHashLines(want)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the trained models' behaviour:\n%s", path, lineDiff(string(want), string(got)))
			}
		})
	}
}

// goldenReport trains on dev at the given settings per kernel and renders
// the discrete behaviour section.
func goldenReport(t *testing.T, dev *gpu.Device, settings int) []byte {
	t.Helper()
	eng := engine.New(measure.NewHarness(nvml.NewDevice(dev)), engine.Options{Core: core.Options{SettingsPerKernel: settings}})
	models, err := eng.Train(context.Background(), engine.TrainingKernels())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "device %s, %d settings per kernel\n", dev.Name, settings)
	fmt.Fprintf(&b, "converged speedup=%v energy=%v\n", models.Speedup.Converged, models.Energy.Converged)

	mhash, err := registry.HashModels(models)
	if err != nil {
		t.Fatal(err)
	}
	store, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.SaveWithFronts("golden", "", models, registry.Training{},
		registry.ComputeFronts(pred, engine.TrainingKernels()))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%smodels %s\n", hashPrefix, mhash)
	fmt.Fprintf(&b, "%sfronts %s\n", hashPrefix, man.Fronts.Hash)

	tbl, err := policyEvalOn(eng)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("\ndecisions (policy benchmark chosen feasible)\n")
	for _, r := range tbl.Rows {
		fmt.Fprintf(&b, "%s %s %s %v\n", r.Policy, r.Benchmark, r.Chosen, r.Feasible)
	}

	b.WriteString("\nfronts (kernel: configurations, * = mem-L heuristic)\n")
	front := func(name string, preds []core.Prediction) {
		cfgs := make([]string, len(preds))
		for i, p := range preds {
			cfgs[i] = p.Config.String()
			if p.MemLHeuristic {
				cfgs[i] += "*"
			}
		}
		fmt.Fprintf(&b, "%s: %s\n", name, strings.Join(cfgs, " "))
	}
	for _, k := range engine.TrainingKernels() {
		front("train/"+k.Name, pred.ParetoSet(k.Features))
	}
	for _, bm := range bench.All() {
		front("test/"+bm.Name, pred.ParetoSet(bm.Features()))
	}

	s := NewSuite(eng)
	sp, en, err := s.fig67()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []ErrorReport{sp, en} {
		fmt.Fprintf(&b, "\n%s RMSE per memory clock\n", rep.Objective)
		for _, m := range rep.Mems {
			fmt.Fprintf(&b, "mem %d: %.2f%%\n", m, rep.RMSE[m])
		}
	}
	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("\nTable 2 D(P*,P')\n")
	for _, r := range t2.Rows {
		fmt.Fprintf(&b, "%s %.4f\n", r.Benchmark, r.D)
	}
	return []byte(b.String())
}

// hashPrefix starts the golden lines that pin float bits.
const hashPrefix = "hash "

// dropHashLines removes the hash lines from a rendering.
func dropHashLines(b []byte) []byte {
	var out []byte
	for _, l := range bytes.SplitAfter(b, []byte("\n")) {
		if !bytes.HasPrefix(l, []byte(hashPrefix)) {
			out = append(out, l...)
		}
	}
	return out
}

// lineDiff lists the lines that differ between two renderings, position by
// position, so a failure names what moved.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
