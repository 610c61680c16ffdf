// Command trace replays the benchmark's validation-pass inputs in-process
// through each layer's public functions and reports per-layer numbers.
// It is a separate program from the end-to-end benchmark so that a change
// to an internal API breaks only this replay, never the HTTP benchmark.
//
// Usage (from the benchmark directory):
//
//	go run ./trace -seed 1 -out ../.bench_build/trace.jsonl
//
// Spans are kept in memory and written to -out at exit, one JSON object per
// line: {"name", "start_ns", "end_ns", "parent", "req", "id"}. Spans of one
// replayed request share "req". The program prints each layer's self time,
// and as its last line a JSON object of per-layer metrics
// {name: {"value", "unit", "n"}}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/benchmark/gen"
	"repro/internal/adapt"
	"repro/internal/budget"
	"repro/internal/clkernel"
	"repro/internal/colproto"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/policy"
	"repro/internal/registry"
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed (the same inputs the end-to-end benchmark sends)")
	out := flag.String("out", "", "span output file (JSON lines); required")
	dir := flag.String("dir", "", "scratch directory for snapshots and the WAL (default: a new directory beside -out)")
	flag.Parse()
	if *out == "" || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fail(err)
	}
	scratch := *dir
	if scratch == "" {
		var err error
		if scratch, err = os.MkdirTemp(filepath.Dir(*out), "trace-"); err != nil {
			fail(err)
		}
		defer os.RemoveAll(scratch)
	}
	t := &tracer{epoch: time.Now(), metrics: map[string]metric{}}
	if err := t.replay(context.Background(), *seed, scratch); err != nil {
		fail(err)
	}
	if err := t.write(*out); err != nil {
		fail(err)
	}
	t.printSelfTimes()
	line, err := json.Marshal(t.metrics)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "trace: %v\n", err)
	os.Exit(1)
}

// span is one timed call into a layer.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// tracer keeps every span in memory until the replay ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	reqs    int64
	metrics map[string]metric
}

// timed runs f as a span named name under parent (0 for a root) in request
// req, passing f the span's id, and returns the span's duration.
func (t *tracer) timed(name string, parent, req int64, f func(id int64)) time.Duration {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Req: req})
	start := time.Now()
	f(id)
	end := time.Now()
	s := &t.spans[id-1]
	s.Start, s.End = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	return end.Sub(start)
}

// call times one layer call with no children.
func (t *tracer) call(name string, parent, req int64, f func()) time.Duration {
	return t.timed(name, parent, req, func(int64) { f() })
}

// request opens a root span for one replayed request; f's layer calls are
// its children.
func (t *tracer) request(name string, f func(parent, req int64)) {
	t.reqs++
	req := t.reqs
	t.timed(name, 0, req, func(id int64) { f(id, req) })
}

// samples collects the durations of one layer operation.
type samples map[string][]time.Duration

func (s samples) add(name string, d time.Duration) { s[name] = append(s[name], d) }

// units maps a metric-name suffix to its unit and scale.
var units = []struct {
	suffix, unit string
	scale        time.Duration
}{
	{"_ns_per_row", "ns/row", time.Nanosecond},
	{"_us_per_kernel", "us/kernel", time.Microsecond},
	{"_us", "us", time.Microsecond},
	{"_ms", "ms", time.Millisecond},
	{"_s", "s", time.Second},
}

// summary is the median of one operation's durations, in the unit its
// name's suffix gives, with the sample count.
func summary(name string, ds []time.Duration) metric {
	for _, u := range units {
		if !strings.HasSuffix(name, u.suffix) {
			continue
		}
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) / float64(u.scale)
		}
		sort.Float64s(xs)
		n := len(xs)
		m := xs[n/2]
		if n%2 == 0 {
			m = (xs[n/2-1] + xs[n/2]) / 2
		}
		return metric{Value: m, Unit: u.unit, N: n}
	}
	panic("trace: no unit for " + name)
}

func (t *tracer) count(name string, v float64, unit string) {
	t.metrics[name] = metric{Value: v, Unit: unit}
}

// Mirrors of gpufreqd's /select request and response, so decode and encode
// are timed on the shapes the handler uses (the handler encodes with
// two-space indentation).
type selectRequest struct {
	Policy policy.Spec `json:"policy"`
	Source string      `json:"source"`
	Kernel string      `json:"kernel"`
}

type selectResponse struct {
	Policy       policy.Spec `json:"policy"`
	ModelVersion string      `json:"model_version"`
	Results      []struct {
		Kernel   string           `json:"kernel"`
		Decision *policy.Decision `json:"decision,omitempty"`
	} `json:"results"`
	Cache policy.Stats `json:"cache"`
}

// deployment is a trained model published as the active version of its
// own store, as a fresh gpufreqd deployment makes it.
type deployment struct {
	eng     *engine.Engine
	pred    *engine.Predictor
	fronts  *registry.Fronts
	store   *registry.Store
	dir     string
	version string
}

// deploy trains on the synthetic suite at settings sampled settings per
// kernel (0 means the daemon's default), computes the fronts and publishes
// them into a new store under dir. With s non-nil every stage is a span and
// a sample in s, and svm.fit_iters counts this model's fit.
func (t *tracer) deploy(ctx context.Context, dir string, settings int, s samples) (*deployment, error) {
	stage := func(span, metric string, f func()) {
		if s == nil {
			f()
			return
		}
		s.add(metric, t.call(span, 0, 0, f))
	}
	dev := gpu.TitanX()
	eng := engine.New(measure.NewHarness(nvml.NewDevice(dev)), engine.Options{Core: core.Options{SettingsPerKernel: settings}})
	kernels := engine.TrainingKernels()
	var trainSet []core.Sample
	var models *core.Models
	var err error
	if stage("engine.build_training_set", "engine.build_training_set_s", func() { trainSet, err = eng.BuildTrainingSet(ctx, kernels) }); err != nil {
		return nil, err
	}
	if stage("engine.fit", "engine.fit_s", func() { models, err = eng.Fit(ctx, trainSet) }); err != nil {
		return nil, err
	}
	if s != nil {
		t.count("svm.fit_iters", float64(models.Speedup.Iters+models.Energy.Iters), "count")
	}
	d := &deployment{eng: eng, pred: engine.NewPredictor(models, dev.Ladder, eng.Options()), dir: dir}
	stage("registry.compute_fronts", "registry.compute_fronts_ms", func() { d.fronts = registry.ComputeFronts(d.pred, kernels) })
	if d.store, err = registry.Open(dir); err != nil {
		return nil, err
	}
	tr := registry.Training{SettingsPerKernel: eng.Options().Core.WithDefaults().SettingsPerKernel, Kernels: len(kernels), Samples: len(trainSet)}
	tr.SpeedupRMSE, tr.EnergyRMSE = core.ResidualRMSE(models, trainSet)
	var man registry.Manifest
	if stage("registry.save_with_fronts", "registry.save_with_fronts_ms", func() { man, err = d.store.SaveWithFronts(gen.Device, "", models, tr, d.fronts) }); err != nil {
		return nil, err
	}
	d.version = man.Version
	return d, d.store.Activate(gen.Device, man.Version)
}

func (t *tracer) replay(ctx context.Context, seed int64, dir string) error {
	s := samples{}

	// engine, svm and registry: observe-drift's fresh training deployment,
	// stage by stage, at the settings that workload trains with.
	drift, err := t.deploy(ctx, filepath.Join(dir, "drift"), gen.DriftSettings, s)
	if err != nil {
		return err
	}
	// The base snapshot every other workload boots from, trained at the
	// daemon's default settings (not timed), read back the ways serving does.
	base, err := t.deploy(ctx, filepath.Join(dir, "base"), 0, nil)
	if err != nil {
		return err
	}
	models := base.pred.Core().Models
	t.count("svm.speedup_sv", float64(models.Speedup.NumSV()), "count")
	t.count("svm.energy_sv", float64(models.Energy.NumSV()), "count")
	if fi, err := os.Stat(filepath.Join(base.dir, gen.Device, base.version+".json")); err == nil {
		t.count("registry.snapshot_bytes", float64(fi.Size()), "bytes")
	}
	for i := 0; i < 3; i++ {
		d := t.call("registry.load_full", 0, 0, func() { _, _, _, err = base.store.LoadFull(gen.Device, "") })
		if err != nil {
			return err
		}
		s.add("registry.load_full_ms", d)
		d = t.call("registry.load_fronts", 0, 0, func() { _, err = base.store.LoadFronts(gen.Device, "") })
		if err != nil {
			return err
		}
		s.add("registry.load_fronts_ms", d)
		d = t.call("registry.export_doc", 0, 0, func() { _, err = base.store.ExportDoc(gen.Device, "") })
		if err != nil {
			return err
		}
		s.add("registry.export_doc_ms", d)
	}

	gov := policy.NewGovernorWithFronts(base.pred, 0, base.fronts.Map())
	if err := t.replaySelect(gov, base.version, seed, s); err != nil {
		return err
	}
	if err := t.replayPredict(ctx, base.pred, seed, s); err != nil {
		return err
	}
	if err := t.replayAdapt(ctx, drift, seed, dir, s); err != nil {
		return err
	}
	if err := t.replayBudget(base.fronts, seed, s); err != nil {
		return err
	}
	for name, ds := range s {
		t.metrics[name] = summary(name, ds)
	}
	return nil
}

// replaySelect replays /select requests stage by stage: the known suite's
// (kernel, policy) pairs twice (front-table lookups, then decision-cache
// hits) and 64 novel kernels (live sweeps).
func (t *tracer) replaySelect(gov *policy.Governor, version string, seed int64, s samples) error {
	known := gen.Known()
	var reqs []selectRequest
	for pass := 0; pass < 2; pass++ {
		for _, p := range gen.KnownPairs(seed) {
			reqs = append(reqs, selectRequest{Policy: policy.Spec{Name: gen.Policies[p.Policy]}, Source: known[p.Kernel].Source, Kernel: known[p.Kernel].Name})
		}
	}
	for i, k := range gen.NewNovel(seed).Take(64) {
		reqs = append(reqs, selectRequest{Policy: policy.Spec{Name: gen.Policies[i%len(gen.Policies)]}, Source: k.Source, Kernel: k.Name})
	}
	var failed error
	for _, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			return err
		}
		t.request("request.select", func(parent, req int64) {
			var in selectRequest
			var err error
			d := t.call("gpufreqd.decode", parent, req, func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&in) })
			s.add("gpufreqd.decode_us", d)
			d = t.call("clkernel.lex", parent, req, func() { _, err = clkernel.Lex(in.Source) })
			s.add("clkernel.lex_us", d)
			var prog *clkernel.Program
			d = t.call("clkernel.parse", parent, req, func() { prog, err = clkernel.Parse(in.Source) })
			s.add("clkernel.parse_us", d)
			if err != nil {
				failed = err
				return
			}
			var st features.Static
			d = t.call("features.extract", parent, req, func() { st = features.Extract(prog.Kernel(in.Kernel), prog) })
			s.add("features.extract_us", d)
			spec := in.Policy.WithDefaults()
			before := gov.Stats()
			var dec policy.Decision
			d = t.call("policy.decide", parent, req, func() { dec, err = gov.Decide(st, spec) })
			if err != nil {
				failed = err
				return
			}
			after := gov.Stats()
			switch {
			case after.Hits > before.Hits:
				s.add("policy.decide_hit_us", d)
			case after.FrontHits > before.FrontHits:
				s.add("policy.decide_front_us", d)
			case after.SweepMisses > before.SweepMisses:
				s.add("policy.decide_sweep_us", d)
			}
			var resp selectResponse
			resp.Policy, resp.ModelVersion, resp.Cache = spec, version, after
			resp.Results = append(resp.Results, struct {
				Kernel   string           `json:"kernel"`
				Decision *policy.Decision `json:"decision,omitempty"`
			}{in.Kernel, &dec})
			var out bytes.Buffer
			d = t.call("gpufreqd.encode", parent, req, func() {
				enc := json.NewEncoder(&out)
				enc.SetIndent("", "  ")
				err = enc.Encode(resp)
			})
			s.add("gpufreqd.encode_us", d)
		})
		if failed != nil {
			return failed
		}
	}
	return nil
}

// replayPredict replays the engine paths: single-kernel /predict sweeps of
// the known suite, live Pareto sweeps of novel kernels, and /predict/batch
// frames (colproto decode, columnar sweep, colproto encode), plus the raw
// SVR row throughput of both models.
func (t *tracer) replayPredict(ctx context.Context, pred *engine.Predictor, seed int64, s samples) error {
	known := gen.Known()
	for _, k := range known {
		var err error
		d := t.call("engine.predict_batch", 0, 0, func() { _, err = pred.PredictBatch(ctx, []features.Static{k.Features}) })
		if err != nil {
			return err
		}
		s.add("engine.predict_batch_us", d)
	}
	g := gen.NewNovel(seed)
	for _, k := range g.Take(32) {
		d := t.call("engine.pareto_set", 0, 0, func() { pred.ParetoSet(k.Features) })
		s.add("engine.pareto_set_us", d)
	}
	var frame []byte
	for i := 0; i < 8; i++ {
		var c colproto.Columns
		for _, st := range g.Vectors(32) {
			c.Append("", st)
		}
		body := c.AppendBinary(nil)
		t.request("request.batch", func(parent, req int64) {
			var in colproto.Columns
			var err error
			d := t.call("colproto.parse_binary", parent, req, func() { err = in.ParseBinary(body) })
			s.add("colproto.parse_binary_us", d)
			if err != nil {
				return
			}
			sts := in.StaticsInto(nil)
			scratch := engine.GetBatchScratch()
			var fr [][]core.Prediction
			d = t.call("engine.predict_fronts", parent, req, func() { fr = pred.PredictFrontsInto(scratch, sts) })
			s.add("engine.predict_fronts_us_per_kernel", d/time.Duration(len(sts)))
			var resp colproto.Fronts
			resp.Version = "v0001"
			for _, f := range fr {
				resp.AppendFront(f)
			}
			engine.PutBatchScratch(scratch)
			d = t.call("colproto.append_binary", parent, req, func() { frame = resp.AppendBinary(nil) })
			s.add("colproto.append_binary_us", d)
		})
	}
	t.count("colproto.frame_bytes", float64(len(frame)), "bytes")

	m := pred.Core().Models
	var rows [][]float64
	for _, k := range known[:20] {
		for _, cfg := range pred.Ladder().Configs() {
			rows = append(rows, features.Combine(k.Features, cfg).Slice())
		}
	}
	out := make([]float64, len(rows))
	for i := 0; i < 3; i++ {
		d := t.call("svm.speedup_predict", 0, 0, func() { m.Speedup.PredictBatchInto(out, rows) })
		s.add("svm.speedup_predict_ns_per_row", d/time.Duration(len(rows)))
		d = t.call("svm.energy_predict", 0, 0, func() { m.Energy.PredictBatchInto(out, rows) })
		s.add("svm.energy_predict_ns_per_row", d/time.Duration(len(rows)))
	}
	return nil
}

// replayAdapt replays observe-drift's observation stream through the
// adaptation controller with the WAL on and automatic retraining off, the
// drift residuals over a full window, raw WAL appends, and one warm fit
// seeded from the serving models, all against observe-drift's deployment.
func (t *tracer) replayAdapt(ctx context.Context, dep *deployment, seed int64, dir string, s samples) error {
	eng, store, pred, version := dep.eng, dep.store, dep.pred, dep.version
	pre, post, err := gen.Drift(seed)
	if err != nil {
		return err
	}
	stream := append(append([]gen.Observation(nil), pre[:512]...), post[:512]...)
	obs := make([]adapt.Observation, len(stream))
	for i, o := range stream {
		obs[i] = adapt.Observation{Kernel: o.Kernel, Features: o.Features, Config: o.Config, Speedup: o.Speedup, NormEnergy: o.NormEnergy}
	}
	wal, err := adapt.OpenWAL(adapt.WALConfig{Dir: filepath.Join(dir, "obs")})
	if err != nil {
		return err
	}
	defer wal.Close()
	trainer := adapt.NewEngineTrainer(eng, nil)
	ctl := adapt.New(adapt.Config{}, adapt.Deps{
		Device:  gen.Device,
		Store:   store,
		WAL:     wal,
		Current: func() (*engine.Predictor, string, bool) { return pred, version, true },
		Install: func(string, *core.Models) error { return errors.New("replay never installs") },
		Trainer: trainer,
	})
	for _, o := range obs {
		var err error
		d := t.call("adapt.observe", 0, 0, func() { _, err = ctl.Observe(o) })
		if err != nil {
			return err
		}
		s.add("adapt.observe_us", d)
	}
	for i := 0; i+64 <= len(obs); i += 64 {
		d := t.call("adapt.residuals", 0, 0, func() { adapt.Residuals(pred, obs[i:i+64]) })
		s.add("adapt.residuals_us", d)
	}
	raw, err := adapt.OpenWAL(adapt.WALConfig{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		return err
	}
	defer raw.Close()
	for _, o := range obs[:256] {
		var err error
		d := t.call("adapt.wal_append", 0, 0, func() { err = raw.Append(o) })
		if err != nil {
			return err
		}
		s.add("adapt.wal_append_us", d)
	}
	var extra []core.Sample
	for _, o := range obs[len(obs)-64:] {
		for i := 0; i < 3; i++ {
			extra = append(extra, o.Sample())
		}
	}
	d := t.call("adapt.fit_warm", 0, 0, func() { _, _, err = trainer.Fit(ctx, extra, pred.Core().Models) })
	if err != nil {
		return err
	}
	s.add("adapt.fit_warm_s", d)
	return nil
}

// replayBudget solves fleet-budget's allocation problem with each solver
// arm at the workload's 32×8 shape, and the full solve and the uniform arm
// at 8×8 and 16×8 to show how they grow, then cuts and encodes the tables.
func (t *tracer) replayBudget(fronts *registry.Fronts, seed int64, s samples) error {
	byFeat := fronts.Map()
	mixes := gen.Mixes(seed, 32, 8)
	steps := gen.Steps(seed, 32)
	itemsFor := func(nodes int) []budget.Item {
		var items []budget.Item
		for _, m := range mixes[:nodes] {
			counts := map[features.Static]float64{}
			names := map[features.Static]string{}
			var keys []features.Static
			for _, o := range m.Observations {
				if counts[o.Features] == 0 {
					keys = append(keys, o.Features)
				}
				counts[o.Features]++
				names[o.Features] = o.Kernel
			}
			for _, f := range keys {
				items = append(items, budget.Item{Node: m.Node, Kernel: names[f], Weight: counts[f] / float64(len(m.Observations)), Front: byFeat[f]})
			}
		}
		return items
	}
	type arm struct {
		name  string
		solve func([]budget.Item, budget.Budget) (budget.Plan, error)
	}
	full := []arm{{"solve", budget.Solve}, {"uniform", budget.SolveUniform}}
	shapes := []struct {
		nodes int
		arms  []arm
		name  func(string) string
	}{
		{8, full, func(a string) string { return "budget." + a + "_8x8_ms" }},
		{16, full, func(a string) string { return "budget." + a + "_16x8_ms" }},
		{32, append(full, arm{"greedy", budget.SolveGreedy}, arm{"per_device", budget.SolvePerDevice}), func(a string) string { return "budget." + a + "_ms" }},
	}
	var plan budget.Plan
	var items []budget.Item
	for _, sh := range shapes {
		items = itemsFor(sh.nodes)
		for _, a := range sh.arms {
			for _, st := range steps[:2] {
				b := budget.Budget{Total: st.Total * float64(sh.nodes) / 32, Unit: st.Unit}
				var err error
				d := t.call("budget."+a.name, 0, 0, func() { plan, err = a.solve(items, b) })
				if err != nil {
					return err
				}
				s.add(sh.name(a.name), d)
			}
		}
	}
	points := 0
	for _, it := range items {
		points += len(it.Front)
	}
	t.count("budget.front_points", float64(points), "count")
	plan, err := budget.Solve(items, budget.Budget{Total: steps[0].Total, Unit: steps[0].Unit})
	if err != nil {
		return err
	}
	feats := map[string]features.Static{}
	for _, m := range mixes {
		for _, o := range m.Observations {
			feats[m.Node+"/"+o.Kernel] = o.Features
		}
	}
	var tables map[string]*budget.DecisionTable
	d := t.call("budget.tables", 0, 0, func() {
		tables, err = budget.Tables(&plan, func(string) string { return gen.Device }, func(node, kernel string) (features.Static, bool) {
			f, ok := feats[node+"/"+kernel]
			return f, ok
		})
	})
	if err != nil {
		return err
	}
	s.add("budget.tables_ms", d)
	for _, tb := range tables {
		d := t.call("budget.encode_table", 0, 0, func() { _, err = budget.EncodeTable(tb) })
		if err != nil {
			return err
		}
		s.add("budget.encode_table_us", d)
	}
	return nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// printSelfTimes prints each span name's total self time: its duration
// minus the part its child spans cover.
func (t *tracer) printSelfTimes() {
	child := make([]int64, len(t.spans)+1)
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	self := map[string]int64{}
	count := map[string]int{}
	for _, sp := range t.spans {
		self[sp.Name] += sp.End - sp.Start - child[sp.ID]
		count[sp.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("layer self time (replay):")
	for _, n := range names {
		fmt.Printf("  %-34s %12.3f ms  %6d spans\n", n, float64(self[n])/1e6, count[n])
	}
}
