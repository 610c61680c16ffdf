package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/gen"
	"repro/internal/colproto"
	"repro/internal/features"
)

// Phase split of a serving workload's measured seconds: a closed loop
// measures capacity, then an open loop at a fixed rate measures latency.
const closedShare = 0.6

// Open-loop rates: about a quarter of the closed-loop request rate the seed
// commit reaches on a 2-vCPU machine, so a /select seldom queues behind a
// /predict or a batch frame and the median measures the request itself.
const (
	knownRate = 400 // /select and /predict requests per second, 4:1
	novelRate = 100 // /select and /predict/batch requests per second, 7:1
)

// batchKernels is the kernel count of one /predict/batch frame.
const batchKernels = 32

// bootBase boots the daemon three times, each from a fresh copy of the
// base snapshot, and keeps the last one running. The median boot time is
// the workload's set-up time.
func (e *env) bootBase(ctx context.Context, name string, extra ...string) (*daemon, metric, string, error) {
	base, err := e.r.baseSnapshot(ctx, e.conns[0])
	if err != nil {
		return nil, metric{}, "", err
	}
	d, times, err := e.r.bootMedian(ctx, e.conns[0], name, func(i int) ([]string, error) {
		dir := filepath.Join(e.r.dir, fmt.Sprintf("%s-models-%d", name, i))
		if err := copyDir(base, dir); err != nil {
			return nil, err
		}
		return append([]string{"-model-dir", dir}, extra...), nil
	})
	if err != nil {
		return nil, metric{}, "", err
	}
	return d, setupMetric(times), fmt.Sprintf("set-up: boots from the base snapshot took %v", times), nil
}

// setupMetric is the median of a run's set-up times.
func setupMetric(times []time.Duration) metric {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = t.Seconds()
	}
	return metric{Value: median(xs), Unit: "s", N: len(xs)}
}

// digestOf hashes a set of lines independently of their order.
func digestOf(lines []string) string {
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// selectBody is a single-kernel /select request.
func selectBody(k gen.Kernel, policy string) []byte {
	return mustJSON(map[string]any{"policy": map[string]string{"name": policy}, "source": k.Source, "kernel": k.Name})
}

// post sends one validation or scrape request on conn 0 and records it.
func (e *env) post(ctx context.Context, rec *recorder, base, path string, body []byte) ([]byte, error) {
	status, resp, err := e.conns[0].do(ctx, "POST", base+path, "", body)
	if err == nil && status != 200 {
		err = fmt.Errorf("%s: status %d: %.200s", path, status, resp)
	}
	rec.add("validate", 1, 0, err)
	return resp, err
}

// get reads a JSON status endpoint into v on conn 0.
func (e *env) get(ctx context.Context, rec *recorder, base, path string, v any) error {
	status, body, err := e.conns[0].do(ctx, "GET", base+path, "", nil)
	if err == nil && status != 200 {
		err = fmt.Errorf("%s: status %d", path, status)
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	rec.add("scrape", 1, 0, err)
	return err
}

// window is the length of one closed-loop window. Capacity and CPU per
// kernel are medians over the windows, so a host stall shorter than half
// the closed phase does not move them.
const window = time.Second

// capacity is a closed loop's outcome, window by window.
type capacity struct {
	rec     *recorder     // every window's requests
	elapsed time.Duration // all windows
	cpu     time.Duration // the daemon's, over all windows
	rates   []float64     // per window: units per second
	cpuPer  []float64     // per window: daemon CPU microseconds per unit
}

// closedWindows runs a closed loop on every connection in one-second
// windows until dur has passed, reading the daemon's CPU time between
// windows. mix(g) is the g-th request of the phase.
func (e *env) closedWindows(ctx context.Context, l *loop, d *daemon, dur time.Duration, mix func(g int) call) (*capacity, error) {
	c := &capacity{rec: newRecorder()}
	var g atomic.Int64
	next := func(int, int) call { return mix(int(g.Add(1) - 1)) }
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	for c.elapsed < dur && ctx.Err() == nil {
		rec, el := l.closed(ctx, e.conns, min(window, dur-c.elapsed), next)
		cpu1, err := d.cpu()
		if err != nil {
			return nil, err
		}
		units := 0
		for _, u := range rec.units {
			units += u
		}
		if units > 0 {
			c.rates = append(c.rates, float64(units)/el.Seconds())
			c.cpuPer = append(c.cpuPer, float64((cpu1-cpu0).Microseconds())/float64(units))
		}
		c.rec.merge(rec)
		c.elapsed += el
		c.cpu += cpu1 - cpu0
		cpu0 = cpu1
	}
	return c, nil
}

// serving summarizes a serving workload's two phases into the end-to-end
// metrics: capacity and CPU from the closed loop's windows, latency from
// the open loop (main is the primary request, side the secondary one).
func serving(o *outcome, closed *capacity, open *recorder, due []time.Duration, main, side string, rate float64) {
	units := 0
	for _, u := range closed.rec.units {
		units += u
	}
	m, s := summarize(open.lat[main]), summarize(open.lat[side])
	o.e2e["p50_ms"] = metric{Value: m.p50, Unit: "ms", N: m.n}
	o.e2e["side_p50_ms"] = metric{Value: s.p50, Unit: "ms", N: s.n}
	o.e2e["units_per_s"] = metric{Value: median(append([]float64(nil), closed.rates...)), Unit: "1/s", N: len(closed.rates)}
	o.e2e["cpu_us_per_unit"] = metric{Value: median(append([]float64(nil), closed.cpuPer...)), Unit: "us", N: len(closed.cpuPer)}
	o.report = append(o.report,
		fmt.Sprintf("closed loop, 2 connections, %d windows over %.1f s: %d kernels decided, daemon CPU %v", len(closed.rates), closed.elapsed.Seconds(), units, closed.cpu),
		fmt.Sprintf("  kernels per second by window: %s", describe(closed.rates)),
		fmt.Sprintf("  daemon CPU us per kernel by window: %s", describe(closed.cpuPer)),
		fmt.Sprintf("  %s: %v", main, summarize(closed.rec.lat[main])),
		fmt.Sprintf("  %s: %v", side, summarize(closed.rec.lat[side])),
		fmt.Sprintf("open loop, %.0f req/s offered, %d requests scheduled, latency from the due time:", rate, len(due)),
		fmt.Sprintf("  %s: %v", main, m),
		fmt.Sprintf("  %s: %v", side, s),
		lateness(open))
}

// lateness reports how far behind schedule the generator itself woke up.
func lateness(rec *recorder) string {
	l := summarize(rec.late)
	xs := make([]float64, len(rec.late))
	for i, d := range rec.late {
		xs[i] = ms(d)
	}
	return fmt.Sprintf("  generator lateness (validity): p50 %.3f ms, %s %.3f ms, max %.3f ms over %d wake-ups",
		l.p50, levelName(l.tailAt), l.tail, quantile(xs, 1), l.n)
}

// scrapeServing records the read-path counters every workload exposes:
// plane shedding and panics on /healthz, the engine's prediction cache, and
// the governor's decision-cache layers from the reply to a /select with
// body probe (nil when the workload sends no /select).
func (e *env) scrapeServing(ctx context.Context, o *outcome, base string, probe []byte) error {
	var h health
	if err := e.get(ctx, o.rec, base, "/healthz", &h); err != nil {
		return err
	}
	var gov govStats
	if probe != nil {
		body, err := e.post(ctx, o.rec, base, "/select", probe)
		if err != nil {
			return err
		}
		r, _, err := decodeSelect(body)
		if err != nil {
			return err
		}
		gov = r.Cache
	}
	if h.Panics != 0 {
		o.rec.fail("%v handler panics on /healthz", h.Panics)
	}
	count := func(v float64) metric { return metric{Value: v, Unit: "count"} }
	ratio := func(a, b float64) metric {
		if b == 0 {
			return metric{Unit: "ratio"}
		}
		return metric{Value: a / b, Unit: "ratio", N: int(b)}
	}
	o.layers["gpufreqd.read_shed"] = count(h.Planes.Read.Shed)
	o.layers["gpufreqd.control_shed"] = count(h.Planes.Control.Shed)
	o.layers["gpufreqd.panics"] = count(h.Panics)
	o.layers["engine.cache_hit_ratio"] = ratio(h.Cache.Hits, h.Cache.Hits+h.Cache.Misses)
	o.layers["policy.hit_ratio"] = ratio(gov.Hits, gov.Hits+gov.Misses)
	o.layers["policy.front_hit_ratio"] = ratio(gov.FrontHits, gov.Misses)
	o.layers["policy.sweep_miss_ratio"] = ratio(gov.SweepMisses, gov.Misses)
	return nil
}

func newOutcome() *outcome {
	return &outcome{rec: newRecorder(), e2e: map[string]metric{}, layers: map[string]metric{}}
}

// selectKnown: the 106 training kernels under the five policies, sent 4:1
// as /select and single-kernel /predict. Every decision is a front-table
// or decision-cache hit, so HTTP, JSON, parsing and feature extraction
// dominate: where a source-to-features memo must show a gain.
func selectKnown(ctx context.Context, e *env) (*outcome, error) {
	d, setup, line, err := e.bootBase(ctx, "select-known")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	o := newOutcome()
	o.e2e["setup_s"] = setup
	o.report = append(o.report, line)

	known := gen.Known()
	pairs := gen.KnownPairs(e.seed)
	order := rand.New(rand.NewSource(e.seed)).Perm(len(known))
	sel := make([][][]byte, len(known))
	pred := make([][]byte, len(known))
	for k, kn := range known {
		sel[k] = make([][]byte, len(gen.Policies))
		for p, name := range gen.Policies {
			sel[k][p] = selectBody(kn, name)
		}
		pred[k] = mustJSON(map[string]string{"source": kn.Source, "kernel": kn.Name})
	}

	// Validation pass: every (kernel, policy) decision and every kernel's
	// front once; later replies must repeat them exactly.
	want := make([][]decision, len(known))
	front := make([][]point, len(known))
	version := ""
	var lines []string
	for k := range known {
		want[k] = make([]decision, len(gen.Policies))
	}
	for _, pr := range pairs {
		body, err := e.post(ctx, o.rec, d.base, "/select", sel[pr.Kernel][pr.Policy])
		if err != nil {
			continue
		}
		r, dec, err := decodeSelect(body)
		if err != nil {
			o.rec.fail("validation /select %s/%s: %v", known[pr.Kernel].Name, gen.Policies[pr.Policy], err)
			continue
		}
		version = r.ModelVersion
		want[pr.Kernel][pr.Policy] = dec
		lines = append(lines, fmt.Sprintf("select %s %s %+v", known[pr.Kernel].Name, gen.Policies[pr.Policy], dec))
	}
	for _, k := range order {
		body, err := e.post(ctx, o.rec, d.base, "/predict", pred[k])
		if err != nil {
			continue
		}
		_, f, err := decodePredict(body)
		if err != nil {
			o.rec.fail("validation /predict %s: %v", known[k].Name, err)
			continue
		}
		front[k] = f
		lines = append(lines, fmt.Sprintf("predict %s %+v", known[k].Name, f))
	}
	o.digest = digestOf(lines)
	if version == "" {
		return nil, errors.New("validation pass produced no decision")
	}

	selectCall := func(g int) call {
		pr := pairs[g%len(pairs)]
		return call{op: "select", units: 1, path: "/select", body: sel[pr.Kernel][pr.Policy], check: func(b []byte) error {
			r, dec, err := decodeSelect(b)
			if err != nil {
				return err
			}
			if r.ModelVersion != version || dec != want[pr.Kernel][pr.Policy] {
				return fmt.Errorf("decision for %s/%s changed: %+v, validation pass %+v",
					known[pr.Kernel].Name, gen.Policies[pr.Policy], dec, want[pr.Kernel][pr.Policy])
			}
			return nil
		}}
	}
	predictCall := func(g int) call {
		k := order[g%len(order)]
		return call{op: "predict", units: 1, path: "/predict", body: pred[k], check: func(b []byte) error {
			v, f, err := decodePredict(b)
			if err != nil {
				return err
			}
			if v != version || !reflect.DeepEqual(f, front[k]) {
				return fmt.Errorf("front of %s changed since the validation pass", known[k].Name)
			}
			return nil
		}}
	}
	mix := func(g int) call {
		if g%5 == 4 {
			return predictCall(g / 5)
		}
		return selectCall(g)
	}
	return o, e.serve(ctx, o, d, mix, "select", "predict", knownRate, sel[0][0])
}

// serve runs a serving workload's closed and open phases with the request
// mix mix(g) (g numbers the requests of a phase), then scrapes counters,
// reading the governor's through one more /select with body probe.
func (e *env) serve(ctx context.Context, o *outcome, d *daemon, mix func(g int) call, main, side string, rate float64, probe []byte) error {
	l := newLoop(d.base, e.traced)
	closedDur := time.Duration(closedShare * float64(e.seconds))
	closed, err := e.closedWindows(ctx, l, d, closedDur, mix)
	if err != nil {
		return err
	}
	due := arrivals(e.seed, rate, e.seconds-closedDur)
	open := l.open(ctx, e.conns, due, mix)
	o.rec.merge(closed.rec)
	o.rec.merge(open)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	serving(o, closed, open, due, main, side, rate)
	return e.scrapeServing(ctx, o, d.base, probe)
}

// novelSupply hands out never-repeated novel kernels to both connections.
// The pool is made before measuring; if a fast daemon drains it, more are
// made on demand and the report says how many.
type novelSupply struct {
	mu    sync.Mutex
	g     *gen.Novel
	pool  []gen.Kernel
	next  int
	extra int
}

func (s *novelSupply) take() gen.Kernel {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.pool) {
		s.pool = append(s.pool, s.g.Next())
		s.extra++
	}
	s.next++
	return s.pool[s.next-1]
}

// frame is a binary /predict/batch request of unseen feature vectors.
func (s *novelSupply) frame() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return batchFrame(s.g.Vectors(batchKernels))
}

// novelPool is how many novel kernels are made before measuring: about
// twice what the seed commit consumes in a run.
const novelPool = 12000

// batchFrame is a binary /predict/batch request.
func batchFrame(sts []features.Static) []byte {
	var c colproto.Columns
	for _, st := range sts {
		c.Append("", st)
	}
	return c.AppendBinary(nil)
}

// checkFronts decodes a binary /predict/batch reply and checks it answers
// n kernels with well-formed fronts from the given model version.
func checkFronts(b []byte, n int, version string) error {
	var f colproto.Fronts
	if err := f.ParseBinary(b); err != nil {
		return err
	}
	if f.Count != n || f.Version != version {
		return fmt.Errorf("fronts frame for %d kernels of %s, want %d of %s", f.Count, f.Version, n, version)
	}
	for i := 0; i < f.Count; i++ {
		if f.Offsets[i+1] <= f.Offsets[i] {
			return fmt.Errorf("kernel %d has an empty front", i)
		}
	}
	for j := range f.Mem {
		if f.Mem[j] <= 0 || f.Core[j] <= 0 || !finitePos(f.Speedup[j]) || !finitePos(f.Energy[j]) {
			return fmt.Errorf("malformed front point %d", j)
		}
	}
	return nil
}

// selectNovel: seeded, never-repeated mixed-feature kernels sent 7:1 as
// /select and binary /predict/batch frames of 32 unseen feature vectors.
// Unique inputs far outnumber the daemon's caches, so every decision is a
// live ladder sweep through both SVRs: a parse memo must show no change.
func selectNovel(ctx context.Context, e *env) (*outcome, error) {
	d, setup, line, err := e.bootBase(ctx, "select-novel")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	o := newOutcome()
	o.e2e["setup_s"] = setup
	o.report = append(o.report, line)

	g := gen.NewNovel(e.seed)
	// Validation pass: 64 kernels under every policy, then again, where
	// every reply must repeat; and four batch frames, twice.
	vk := g.Take(64)
	frames := make([][]byte, 4)
	for i := range frames {
		frames[i] = batchFrame(g.Vectors(batchKernels))
	}
	version := ""
	var lines []string
	first := map[string]decision{}
	for pass := 0; pass < 2; pass++ {
		for _, k := range vk {
			for _, p := range gen.Policies {
				body, err := e.post(ctx, o.rec, d.base, "/select", selectBody(k, p))
				if err != nil {
					continue
				}
				r, dec, err := decodeSelect(body)
				if err != nil {
					o.rec.fail("validation /select %s/%s: %v", k.Name, p, err)
					continue
				}
				version = r.ModelVersion
				key := k.Name + " " + p
				if pass == 0 {
					first[key] = dec
					lines = append(lines, fmt.Sprintf("select %s %+v", key, dec))
				} else if dec != first[key] {
					o.rec.fail("repeated /select %s changed: %+v, first %+v", key, dec, first[key])
				}
			}
		}
	}
	if version == "" {
		return nil, errors.New("validation pass produced no decision")
	}
	firstFrame := make([]string, len(frames))
	for pass := 0; pass < 2; pass++ {
		for i, fr := range frames {
			status, body, err := e.conns[0].do(ctx, "POST", d.base+"/predict/batch", binaryType, fr)
			if err == nil && status != 200 {
				err = fmt.Errorf("status %d", status)
			}
			if err == nil {
				err = checkFronts(body, batchKernels, version)
			}
			o.rec.add("validate", 1, 0, err)
			if err != nil {
				continue
			}
			line := fmt.Sprintf("batch %d %x", i, sha256.Sum256(body))
			if pass == 0 {
				firstFrame[i] = line
				lines = append(lines, line)
			} else if line != firstFrame[i] {
				o.rec.fail("repeated batch frame %d changed", i)
			}
		}
	}
	o.digest = digestOf(lines)

	supply := &novelSupply{g: g, pool: g.Take(novelPool)}
	mix := func(n int) call {
		if n%8 == 7 {
			return call{op: "batch", units: batchKernels, path: "/predict/batch", ctype: binaryType, body: supply.frame(),
				check: func(b []byte) error { return checkFronts(b, batchKernels, version) }}
		}
		k := supply.take()
		return call{op: "select", units: 1, path: "/select", body: selectBody(k, gen.Policies[n%len(gen.Policies)]),
			check: func(b []byte) error {
				r, _, err := decodeSelect(b)
				if err == nil && r.ModelVersion != version {
					err = fmt.Errorf("served by %s, want %s", r.ModelVersion, version)
				}
				return err
			}}
	}
	if err := e.serve(ctx, o, d, mix, "select", "batch", novelRate, selectBody(vk[0], gen.Policies[0])); err != nil {
		return nil, err
	}
	o.report = append(o.report, fmt.Sprintf("novel kernels: %d used, %d made during measurement", supply.next, supply.extra))
	return o, nil
}

// binaryType selects /predict/batch's binary framing.
const binaryType = "application/x-gpufreq-columns"
