// Command gpufreq is the user-facing CLI of the frequency-scaling
// prediction framework: it extracts static features from OpenCL kernels,
// inspects the simulated devices' clock tables, trains the speedup/energy
// models on the synthetic micro-benchmarks, manages the versioned model
// registry, and predicts Pareto-optimal frequency configurations for new
// kernels without executing them.
//
// Usage (flags come before the positional argument):
//
//	gpufreq clocks [-device titanx|p100]
//	gpufreq features [-kernel name] <kernel.cl>
//	gpufreq train [-out models.json] [-settings 40] [-workers 0]
//	gpufreq save [-model-dir DIR] [-device titanx|p100] [-settings 40] [-workers 0]
//	gpufreq load [-model-dir DIR] [-device titanx|p100] [-version vNNNN] [-out models.json]
//	gpufreq models [-model-dir DIR] [-device titanx|p100]
//	gpufreq predict [-model models.json | -model-dir DIR] [-kernel name] [-workers 0] <kernel.cl>
//	gpufreq predict -batch columns.csv [-addr http://localhost:8080] [-binary]
//	gpufreq select [-policy min-energy] [-max-slowdown 0.1] [-energy-budget 1.0]
//	               [-device titanx|p100] [-model models.json | -model-dir DIR]
//	               [-kernel name] <kernel.cl>
//	gpufreq select -list
//	gpufreq characterize <benchmark>
//	gpufreq observe [-addr http://localhost:8080] -mem 3505 -core 1000
//	                -speedup 0.97 -energy 0.93 [-kernel name] <kernel.cl>
//	gpufreq adapt [-addr http://localhost:8080] [-retrain]
//	gpufreq fleet nodes [-addr http://localhost:8080]
//	gpufreq fleet push [-addr http://localhost:8080]
//	gpufreq fleet budget [-addr http://localhost:8080] [-set 3.5 [-unit power|energy]] [-replan]
//
// fleet talks to a gpufreqd running as the fleet control plane: nodes
// prints the registered node directory with per-node sync verdicts, push
// re-fans-out every device's active snapshot to its stale nodes, and
// budget inspects or sets the fleet energy budget whose per-node decision
// tables the control plane allocates over each node's Pareto fronts.
//
// observe and adapt talk to a running gpufreqd: observe reports a measured
// (kernel, configuration, speedup/energy) sample into the daemon's
// adaptation loop, and adapt prints the loop's status (drift verdict,
// observation store, retrain history) or, with -retrain, forces a
// holdout-guarded retrain.
//
// Training, prediction and policy selection run through the concurrent
// engine (internal/engine) and the policy governor (internal/policy);
// -workers sizes the engine pool (0 = NumCPU). save/load/models operate on
// the same versioned snapshot registry (internal/registry) that
// cmd/gpufreqd serves from, so a model trained and saved here can be
// activated on a running daemon and vice versa. For the long-running HTTP
// service over the same engine and registry, see cmd/gpufreqd.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/resilience"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "clocks":
		err = cmdClocks(os.Args[2:])
	case "features":
		err = cmdFeatures(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "save":
		err = cmdSave(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "models":
		err = cmdModels(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "select":
		err = cmdSelect(os.Args[2:])
	case "characterize":
		err = cmdCharacterize(os.Args[2:])
	case "observe":
		err = cmdObserve(os.Args[2:])
	case "adapt":
		err = cmdAdapt(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "gpufreq: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpufreq:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `gpufreq — predictable GPU frequency scaling for energy and performance

Commands:
  clocks        print the supported memory/core clock combinations
  features      extract the static code features of an OpenCL kernel
  train         train the speedup and energy models on the 106 micro-benchmarks
  save          train and publish a versioned snapshot into a model registry
  load          load (and verify) a snapshot from a model registry
  models        list the snapshots of a model registry
  predict       predict the Pareto-optimal frequency settings of a kernel
                (-batch FILE sends a columnar batch to a running gpufreqd)
  select        resolve a named policy to one chosen frequency configuration
  characterize  measure a built-in test benchmark across all configurations
  observe       report a measured sample to a running gpufreqd's adaptation loop
  adapt         show (or trigger) a running gpufreqd's adaptation loop
  fleet         inspect or steer a control plane's fleet (nodes, push, budget)

Flags come before the positional argument, e.g.:
  gpufreq predict -model models.json kernel.cl
`)
}

func device(name string) (*gpu.Device, error) { return gpu.ByName(name) }

func cmdClocks(args []string) error {
	fs := flag.NewFlagSet("clocks", flag.ExitOnError)
	dev := fs.String("device", "titanx", "device model: titanx or p100")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := device(*dev)
	if err != nil {
		return err
	}
	nv := nvml.NewDevice(d)
	fmt.Printf("%s\n", nv.Name())
	fmt.Printf("default configuration: %v\n", d.Ladder.Default())
	for _, m := range nv.DeviceGetSupportedMemoryClocks() {
		claimed, err := nv.DeviceGetSupportedGraphicsClocks(m)
		if err != nil {
			return err
		}
		actual := d.Ladder.CoreClocks(m)
		fmt.Printf("mem %4d MHz: %2d core clocks (%d claimed): %d..%d MHz\n",
			m, len(actual), len(claimed), actual[0], actual[len(actual)-1])
	}
	return nil
}

func cmdFeatures(args []string) error {
	fs := flag.NewFlagSet("features", flag.ExitOnError)
	kernel := fs.String("kernel", "", "kernel name (default: first kernel)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: gpufreq features [-kernel name] <kernel.cl>")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	st, err := features.ExtractSource(string(src), *kernel)
	if err != nil {
		return err
	}
	for i, name := range features.Names {
		fmt.Printf("%-12s %.4f\n", name, st[i])
	}
	return nil
}

// newEngine builds the concurrent engine every train/predict path uses.
func newEngine(settings, workers int) *engine.Engine {
	return engine.NewDefault(engine.Options{
		Workers: workers,
		Core:    core.Options{SettingsPerKernel: settings},
	})
}

// interruptContext is cancelled on Ctrl-C, aborting in-flight training.
func interruptContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// trainEngine builds the full synthetic training set, fits both models,
// and installs them on the engine, returning the samples alongside the
// models so callers can record training residuals.
func trainEngine(ctx context.Context, eng *engine.Engine) (*core.Models, []core.Sample, error) {
	kernels := engine.TrainingKernels()
	samples, err := eng.BuildTrainingSet(ctx, kernels)
	if err != nil {
		return nil, nil, err
	}
	models, err := eng.Fit(ctx, samples)
	if err != nil {
		return nil, nil, err
	}
	eng.SetModels(models)
	fmt.Fprintf(os.Stderr, "trained on %d samples (%d micro-benchmarks, %d workers)\n",
		len(samples), len(kernels), eng.Options().Workers)
	return models, samples, nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "models.json", "output path for the trained models")
	settings := fs.Int("settings", 40, "sampled frequency settings per micro-benchmark")
	workers := fs.Int("workers", 0, "training worker pool size (0 = NumCPU)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()
	models, _, err := trainEngine(ctx, newEngine(*settings, *workers))
	if err != nil {
		return err
	}
	if err := models.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("models written to %s (speedup: %d SVs, energy: %d SVs)\n",
		*out, models.Speedup.NumSV(), models.Energy.NumSV())
	return nil
}

// cmdSave trains on the chosen device and publishes the result as a
// versioned snapshot in the registry — the offline producer for the
// model directory cmd/gpufreqd serves from.
func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	modelDir := fs.String("model-dir", "models", "model registry directory")
	dev := fs.String("device", "titanx", "device model: titanx or p100")
	settings := fs.Int("settings", 40, "sampled frequency settings per micro-benchmark")
	workers := fs.Int("workers", 0, "training worker pool size (0 = NumCPU)")
	activate := fs.Bool("activate", true, "activate the snapshot after publishing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := device(*dev)
	if err != nil {
		return err
	}
	store, err := registry.Open(*modelDir)
	if err != nil {
		return err
	}
	eng := engine.New(measure.NewHarness(nvml.NewDevice(d)), engine.Options{
		Workers: *workers,
		Core:    core.Options{SettingsPerKernel: *settings},
	})
	ctx, stop := interruptContext()
	defer stop()
	start := time.Now()
	models, samples, err := trainEngine(ctx, eng)
	if err != nil {
		return err
	}
	tr := registry.Training{
		SettingsPerKernel: *settings,
		Kernels:           len(engine.TrainingKernels()),
		Samples:           len(samples),
		DurationMS:        float64(time.Since(start).Microseconds()) / 1000,
	}
	// Recorded residuals are the baseline gpufreqd's drift detector
	// compares live observations against.
	tr.SpeedupRMSE, tr.EnergyRMSE = core.ResidualRMSE(models, samples)
	// Publish-time fronts: precompute every training kernel's ladder sweep
	// and Pareto set so a daemon serving this snapshot resolves /select
	// for known kernels without evaluating the SVRs.
	fronts := registry.ComputeFronts(
		engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options()),
		engine.TrainingKernels())
	man, err := store.SaveWithFronts(*dev, "", models, tr, fronts)
	if err != nil {
		return err
	}
	if *activate {
		if err := store.Activate(*dev, man.Version); err != nil {
			return err
		}
	}
	fmt.Printf("published %s/%s to %s (hash %.8s…, %d kernel fronts, activate=%v)\n",
		man.Device, man.Version, *modelDir, man.Hash, fronts.Len(), *activate)
	return nil
}

// cmdLoad loads (and thereby integrity-checks) a snapshot from the
// registry, prints its manifest summary, and optionally exports it as a
// flat models file.
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	modelDir := fs.String("model-dir", "models", "model registry directory")
	dev := fs.String("device", "titanx", "device model: titanx or p100")
	version := fs.String("version", "", "snapshot version (default: the active one)")
	out := fs.String("out", "", "export the loaded models to this flat file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := registry.Open(*modelDir)
	if err != nil {
		return err
	}
	models, man, err := store.Load(*dev, *version)
	if err != nil {
		return err
	}
	fmt.Printf("version:  %s/%s\n", man.Device, man.Version)
	fmt.Printf("created:  %s\n", man.CreatedAt.Format(time.RFC3339))
	fmt.Printf("hash:     %s\n", man.Hash)
	fmt.Printf("training: %d kernels × %d settings = %d samples (%.0f ms)\n",
		man.Training.Kernels, man.Training.SettingsPerKernel,
		man.Training.Samples, man.Training.DurationMS)
	fmt.Printf("speedup:  %d SVs, %d iters, converged=%v\n",
		man.SpeedupModel.SupportVectors, man.SpeedupModel.Iters, man.SpeedupModel.Converged)
	fmt.Printf("energy:   %d SVs, %d iters, converged=%v\n",
		man.EnergyModel.SupportVectors, man.EnergyModel.Iters, man.EnergyModel.Converged)
	if *out != "" {
		if err := models.SaveFile(*out); err != nil {
			return err
		}
		fmt.Printf("exported to %s\n", *out)
	}
	return nil
}

// cmdModels lists the registry's snapshots for a device.
func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	modelDir := fs.String("model-dir", "models", "model registry directory")
	dev := fs.String("device", "titanx", "device model: titanx or p100")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := registry.Open(*modelDir)
	if err != nil {
		return err
	}
	entries, err := store.List(*dev)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Printf("no snapshots for %s in %s\n", *dev, *modelDir)
		return nil
	}
	fmt.Printf("%-8s %-3s %-20s %8s %9s %10s  %s\n",
		"version", "", "created", "samples", "settings", "hash", "")
	for _, e := range entries {
		if e.Err != "" {
			fmt.Printf("%-8s %-3s CORRUPT: %s\n", e.Version, "", e.Err)
			continue
		}
		marker := ""
		if e.Active {
			marker = "*"
		}
		fmt.Printf("%-8s %-3s %-20s %8d %9d %10.8s…\n",
			e.Version, marker, e.CreatedAt.Format("2006-01-02 15:04:05"),
			e.Training.Samples, e.Training.SettingsPerKernel, e.Hash)
	}
	if prev, ok := store.Previous(*dev); ok {
		fmt.Printf("rollback target: %s\n", prev)
	}
	return nil
}

// resolveModels installs models into the engine from, in order of
// precedence: a registry's active (or named) snapshot, a flat model file,
// or an in-process training run. It is the shared model-acquisition path
// of predict and select.
func resolveModels(eng *engine.Engine, modelDir, deviceName, version, modelPath string) error {
	switch {
	case modelDir != "":
		store, err := registry.Open(modelDir)
		if err != nil {
			return err
		}
		models, man, err := store.Load(deviceName, version)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %s/%s from %s (hash %.8s…)\n",
			man.Device, man.Version, modelDir, man.Hash)
		eng.SetModels(models)
		return nil
	case modelPath != "":
		models, err := core.LoadFile(modelPath)
		if err != nil {
			return err
		}
		eng.SetModels(models)
		return nil
	default:
		ctx, stop := interruptContext()
		defer stop()
		_, _, err := trainEngine(ctx, eng)
		return err
	}
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	modelPath := fs.String("model", "", "trained models file (default: train in-process)")
	modelDir := fs.String("model-dir", "", "model registry directory (use the active snapshot)")
	version := fs.String("version", "", "registry snapshot version (default: the active one)")
	kernel := fs.String("kernel", "", "kernel name (default: first kernel)")
	settings := fs.Int("settings", 40, "training settings when no model file is given")
	workers := fs.Int("workers", 0, "worker pool size (0 = NumCPU)")
	batchFile := fs.String("batch", "", "columnar batch file (CSV or .json); predict via a running gpufreqd instead of locally")
	addr := fs.String("addr", "http://localhost:8080", "gpufreqd base URL for -batch")
	binary := fs.Bool("binary", false, "use the binary wire framing for -batch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batchFile != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: gpufreq predict -batch FILE [-addr URL] [-binary] (no positional kernel)")
		}
		return batchPredict(*addr, *batchFile, *binary)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: gpufreq predict [-model models.json | -model-dir DIR] <kernel.cl>")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	eng := newEngine(*settings, *workers)
	if err := resolveModels(eng, *modelDir, "titanx", *version, *modelPath); err != nil {
		return err
	}
	pred, err := eng.Predictor()
	if err != nil {
		return err
	}
	set, err := pred.PredictSource(string(src), *kernel)
	if err != nil {
		return err
	}
	fmt.Println("predicted Pareto-optimal frequency configurations:")
	fmt.Printf("%-12s %10s %12s\n", "mem@core", "speedup", "norm.energy")
	for _, p := range set {
		tag := ""
		if p.MemLHeuristic {
			tag = "  [mem-L heuristic]"
		}
		fmt.Printf("%-12s %10.3f %12.3f%s\n", p.Config, p.Speedup, p.NormEnergy, tag)
	}
	return nil
}

func cmdSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	policyName := fs.String("policy", policy.MinEnergy, "policy: min-energy, max-perf, edp, ed2p or balanced")
	maxSlowdown := fs.Float64("max-slowdown", 0, "min-energy cap: maximum predicted slowdown fraction (0 = default 0.10)")
	energyBudget := fs.Float64("energy-budget", 0, "max-perf cap: maximum predicted normalized energy (0 = default 1.0)")
	includeHeuristic := fs.Bool("include-heuristic", false, "admit the mem-L heuristic configuration as a candidate")
	dev := fs.String("device", "titanx", "device model: titanx or p100")
	modelPath := fs.String("model", "", "trained models file (default: train in-process)")
	modelDir := fs.String("model-dir", "", "model registry directory (use the active snapshot)")
	version := fs.String("version", "", "registry snapshot version (default: the active one)")
	kernel := fs.String("kernel", "", "kernel name (default: first kernel)")
	settings := fs.Int("settings", 40, "training settings when no model file is given")
	workers := fs.Int("workers", 0, "worker pool size (0 = NumCPU)")
	list := fs.Bool("list", false, "list the built-in policies and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, info := range policy.Builtins() {
			fmt.Printf("%-11s %s\n", info.Name, info.Description)
			for param, doc := range info.Params {
				fmt.Printf("              -%s: %s\n", flagFor(param), doc)
			}
		}
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: gpufreq select [-policy name] [-model models.json] <kernel.cl>")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	d, err := device(*dev)
	if err != nil {
		return err
	}
	spec := policy.Spec{
		Name:             *policyName,
		MaxSlowdown:      *maxSlowdown,
		EnergyBudget:     *energyBudget,
		IncludeHeuristic: *includeHeuristic,
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	eng := engine.New(measure.NewHarness(nvml.NewDevice(d)), engine.Options{
		Workers: *workers,
		Core:    core.Options{SettingsPerKernel: *settings},
	})
	if err := resolveModels(eng, *modelDir, *dev, *version, *modelPath); err != nil {
		return err
	}
	pred, err := eng.Predictor()
	if err != nil {
		return err
	}
	gov := policy.NewGovernor(pred, 0)
	decision, err := gov.DecideSource(string(src), *kernel, spec)
	if err != nil {
		return err
	}

	resolved := decision.Policy
	fmt.Printf("device:  %s\n", d.Name)
	fmt.Printf("policy:  %s", resolved.Name)
	switch resolved.Name {
	case policy.MinEnergy:
		fmt.Printf(" (speedup >= %.3f)", resolved.SpeedupFloor())
	case policy.MaxPerf:
		fmt.Printf(" (normalized energy <= %.3f)", resolved.EnergyBudget)
	}
	fmt.Printf("\nchosen:  %v  (from %d Pareto candidates)\n", decision.Chosen.Config, decision.Candidates)
	fmt.Printf("  predicted speedup:           %.3f\n", decision.Chosen.Speedup)
	fmt.Printf("  predicted normalized energy: %.3f\n", decision.Chosen.NormEnergy)
	if !decision.Feasible {
		fmt.Printf("  constraint infeasible: %s\n", decision.Fallback)
	}
	return nil
}

// flagFor maps a policy spec JSON parameter to its CLI flag spelling.
func flagFor(param string) string {
	return strings.ReplaceAll(param, "_", "-")
}

// cliRetry retries daemon RPCs with jittered exponential backoff, so a
// one-shot command survives a daemon mid-restart or a briefly saturated
// listener instead of failing on the first refused connection.
var cliRetry = resilience.Retryer{BaseDelay: 200 * time.Millisecond, MaxDelay: 2 * time.Second}

// postJSON posts a JSON document to a gpufreqd endpoint and decodes the
// response, surfacing the daemon's structured {"error": ...} on failure.
// POSTs mutate daemon state (observe ingests, retrain starts work), so only
// transport failures — where no response was produced, hence nothing could
// have been ingested — are retried; any decoded response is final.
func postJSON(base, path string, body, out any) error {
	doc, err := json.Marshal(body)
	if err != nil {
		return err
	}
	url := strings.TrimRight(base, "/") + path
	var resp *http.Response
	err = cliRetry.Do(context.Background(), func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(doc))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err = http.DefaultClient.Do(req)
		return err
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeDaemon(resp, out)
}

// getJSON fetches a gpufreqd endpoint and decodes the response. GETs are
// idempotent, so transient 5xx answers are retried along with transport
// failures.
func getJSON(base, path string, out any) error {
	url := strings.TrimRight(base, "/") + path
	var resp *http.Response
	err := cliRetry.Do(context.Background(), func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		if r.StatusCode >= 500 {
			defer r.Body.Close()
			return decodeDaemon(r, nil)
		}
		resp = r
		return nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeDaemon(resp, out)
}

// decodeDaemon decodes a daemon response, turning non-2xx statuses into
// errors carrying the daemon's structured error text.
func decodeDaemon(resp *http.Response, out any) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("daemon: %s (%s)", e.Error, resp.Status)
		}
		return fmt.Errorf("daemon: %s", resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// cmdObserve reports one measured sample to a running gpufreqd's
// adaptation loop (POST /observe) and prints the ingest verdict.
func cmdObserve(args []string) error {
	fs := flag.NewFlagSet("observe", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "gpufreqd base URL")
	kernel := fs.String("kernel", "", "kernel name (default: first kernel)")
	mem := fs.Int("mem", 0, "memory clock the kernel ran at (MHz)")
	coreClk := fs.Int("core", 0, "core clock the kernel ran at (MHz)")
	speedup := fs.Float64("speedup", 0, "measured speedup relative to default clocks")
	energy := fs.Float64("energy", 0, "measured normalized energy relative to default clocks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: gpufreq observe [-addr URL] -mem MHZ -core MHZ -speedup S -energy E <kernel.cl>")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var resp struct {
		ModelVersion string `json:"model_version"`
		Results      []struct {
			Ingest *adapt.IngestResult `json:"ingest"`
			Error  string              `json:"error"`
		} `json:"results"`
		Store adapt.StoreStats `json:"store"`
	}
	err = postJSON(*addr, "/observe", map[string]any{
		"source":      string(src),
		"kernel":      *kernel,
		"config":      freq.Config{Mem: freq.MHz(*mem), Core: freq.MHz(*coreClk)},
		"speedup":     *speedup,
		"norm_energy": *energy,
	}, &resp)
	if err != nil {
		return err
	}
	if len(resp.Results) != 1 {
		return fmt.Errorf("daemon returned %d results, want 1", len(resp.Results))
	}
	if resp.Results[0].Error != "" {
		return fmt.Errorf("observation rejected: %s", resp.Results[0].Error)
	}
	in := resp.Results[0].Ingest
	fmt.Printf("observed against %s (store: %d/%d observations)\n",
		resp.ModelVersion, resp.Store.Count, resp.Store.Capacity)
	fmt.Printf("drift:   %v (%s)\n", in.Drift.Drift, in.Drift.Reason)
	if in.RetrainStarted {
		fmt.Printf("retrain: started (%s)\n", in.Reason)
	}
	return nil
}

// cmdAdapt prints a running gpufreqd's adaptation-loop status, or with
// -retrain forces a holdout-guarded retrain.
func cmdAdapt(args []string) error {
	fs := flag.NewFlagSet("adapt", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "gpufreqd base URL")
	retrain := fs.Bool("retrain", false, "force a retrain instead of printing status")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *retrain {
		var acc struct {
			Status string `json:"status"`
			Poll   string `json:"poll"`
		}
		if err := postJSON(*addr, "/adapt/retrain", struct{}{}, &acc); err != nil {
			return err
		}
		fmt.Printf("retrain %s; poll %s (or: gpufreq adapt)\n", acc.Status, acc.Poll)
		return nil
	}
	var st adapt.Status
	if err := getJSON(*addr, "/adapt/status", &st); err != nil {
		return err
	}
	fmt.Printf("auto-retrain: %v\n", st.Auto)
	fmt.Printf("model:        %s\n", orNone(st.ModelVersion))
	fmt.Printf("store:        %d/%d observations (%d total, %d dropped)\n",
		st.Store.Count, st.Store.Capacity, st.Store.Total, st.Store.Dropped)
	d := st.Drift
	fmt.Printf("drift:        %v — %s\n", d.Drift, d.Reason)
	fmt.Printf("  rolling RMSE   speedup %.4f  energy %.4f  (window %d, %d samples)\n",
		d.SpeedupRMSE, d.EnergyRMSE, d.Window, d.Samples)
	fmt.Printf("  baseline       speedup %.4f  energy %.4f\n", d.BaselineSpeedup, d.BaselineEnergy)
	fmt.Printf("  threshold      speedup %.4f  energy %.4f\n", d.ThresholdSpeedup, d.ThresholdEnergy)
	r := st.Retrain
	fmt.Printf("retrains:     %d (%d activated, %d rejected)%s\n",
		r.Retrains, r.Activated, r.Rejected, map[bool]string{true: " — one in progress", false: ""}[r.InProgress])
	if r.LastOutcome != "" {
		fmt.Printf("  last: %s → %s (%s)\n", orNone(r.LastVersion), r.LastOutcome, r.LastReason)
		if r.LastHoldout != nil {
			fmt.Printf("  holdout: candidate %.4f vs active %.4f over %d samples (passed=%v)\n",
				r.LastHoldout.CandidateRMSE, r.LastHoldout.ActiveRMSE,
				r.LastHoldout.Samples, r.LastHoldout.Passed)
		}
		if r.LastError != "" {
			fmt.Printf("  error: %s\n", r.LastError)
		}
	}
	return nil
}

// orNone renders an empty string as "(none)".
func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: gpufreq characterize <benchmark>; valid: %v", bench.Names())
	}
	b, err := bench.ByName(fs.Arg(0))
	if err != nil {
		return err
	}
	h := measure.NewHarness(nvml.NewDevice(gpu.TitanX()))
	rels, err := h.Sweep(b.Profile())
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d configurations (baseline %v)\n",
		b.Name, len(rels), h.Device().Sim().Ladder.Default())
	fmt.Printf("%-12s %10s %12s\n", "mem@core", "speedup", "norm.energy")
	for _, r := range rels {
		fmt.Printf("%-12s %10.3f %12.3f\n", r.Config, r.Speedup, r.NormEnergy)
	}
	return nil
}
