// Command freqbench regenerates the paper's evaluation artifacts — every
// figure and table of Section 4 — as text reports on the simulated Titan X.
//
// Usage:
//
//	freqbench [-exp fig1|fig4|fig5|fig6|fig7|fig8|table2|policy|budget|p100|adapt|all] [-settings 40] [-workers 0]
//	          [-model-dir DIR]
//
// fig6/fig7/fig8/table2 train the models on the full 106-micro-benchmark
// training set first — or, with -model-dir, load the registry's active
// Titan X snapshot instead of training. Every model-dependent table
// records the model version (and content hash) it was produced from.
// policy and p100 always train per-device engines (they evaluate both GPU
// profiles, including devices a Titan X snapshot cannot serve), so their
// tables carry "in-memory" provenance regardless of -model-dir. adapt runs
// the drift-recovery experiment (internal/adapt end to end: a synthetic
// workload shift, drift detection, guarded auto-retrain, recovered error);
// it owns its training and in-memory registry, so -model-dir is ignored.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/registry"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig1, fig4, fig5, fig6, fig7, fig8, table2, policy, budget, p100, adapt, all")
	settings := flag.Int("settings", 40, "sampled frequency settings per training kernel")
	workers := flag.Int("workers", 0, "training worker pool size (0 = NumCPU)")
	modelDir := flag.String("model-dir", "", "model registry directory (use the active titanx snapshot instead of training)")
	flag.Parse()

	eng := engine.NewDefault(engine.Options{
		Workers: *workers,
		Core:    core.Options{SettingsPerKernel: *settings},
	})
	s := experiments.NewSuite(eng)
	if *modelDir != "" {
		store, err := registry.Open(*modelDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "freqbench:", err)
			os.Exit(1)
		}
		models, man, err := store.Load("titanx", "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "freqbench:", err)
			os.Exit(1)
		}
		eng.SetModels(models)
		s.SetModelVersion(man.Version)
	}
	if err := run(s, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "freqbench:", err)
		os.Exit(1)
	}
}

func run(s *experiments.Suite, exp string) error {
	w := os.Stdout
	switch exp {
	case "fig1":
		data, err := s.Fig1()
		if err != nil {
			return err
		}
		experiments.RenderFig1(w, data)
	case "fig4":
		experiments.RenderFig4(w, s.Fig4())
	case "fig5":
		data, err := s.Fig5()
		if err != nil {
			return err
		}
		experiments.RenderFig5(w, data)
	case "fig6":
		rep, err := s.Fig6()
		if err != nil {
			return err
		}
		experiments.RenderErrorReport(w, "Figure 6", rep)
	case "fig7":
		rep, err := s.Fig7()
		if err != nil {
			return err
		}
		experiments.RenderErrorReport(w, "Figure 7", rep)
	case "fig8":
		data, err := s.Fig8()
		if err != nil {
			return err
		}
		experiments.RenderFig8(w, data)
	case "table2":
		rep, err := s.Table2()
		if err != nil {
			return err
		}
		experiments.RenderTable2(w, rep)
	case "policy":
		tables, err := experiments.PolicyEval(s.Engine().Options())
		if err != nil {
			return err
		}
		experiments.RenderPolicyEval(w, tables)
	case "budget":
		tables, err := experiments.BudgetEval(s.Engine().Options())
		if err != nil {
			return err
		}
		experiments.RenderBudgetEval(w, tables)
	case "p100":
		r, err := experiments.PortabilityP100(s.Engine().Options().Core)
		if err != nil {
			return err
		}
		experiments.RenderPortability(w, r)
	case "adapt":
		// A fresh suite on the same engine options (workers included): the
		// drift-recovery run hot-swaps models and must not disturb the
		// engine other experiments in the same invocation share.
		rep, err := experiments.NewSuite(engine.NewDefault(s.Engine().Options())).AdaptRecovery()
		if err != nil {
			return err
		}
		experiments.RenderAdaptReport(w, rep)
	case "all":
		for _, e := range []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "policy", "budget", "adapt"} {
			if err := run(s, e); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
