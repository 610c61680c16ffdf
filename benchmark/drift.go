package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/benchmark/gen"
)

// observe-drift load: /observe at a fixed rate, with the workload shift
// injected after the first quarter of the run.
const (
	observeRate = 200
	shiftShare  = 0.25
)

// retrainLog pairs the /observe replies that started a retrain with the
// first reply of any kind served by a newer model version.
type retrainLog struct {
	mu       sync.Mutex
	starts   []time.Time
	drift    int // retrains a drift verdict started
	driftAt  int // shifted observations before the first drift-started retrain (-1: none)
	versions []string
	seenAt   map[string]time.Time
}

func (l *retrainLog) started(at time.Time, reason string, shifted int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.starts = append(l.starts, at)
	if strings.HasPrefix(reason, "drift: ") {
		l.drift++
		if l.driftAt < 0 && shifted > 0 {
			l.driftAt = shifted
		}
	}
}

func (l *retrainLog) served(version string, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.seenAt[version]; !ok {
		l.seenAt[version] = at
		l.versions = append(l.versions, version)
	}
}

// latencies matches each newly served version to the latest retrain start
// before it: the time a retrain took to reach clients.
func (l *retrainLog) latencies() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	used := -1
	for _, v := range l.versions[1:] {
		at := l.seenAt[v]
		j := -1
		for i, s := range l.starts {
			if i > used && s.Before(at) {
				j = i
			}
		}
		if j >= 0 {
			out = append(out, at.Sub(l.starts[j]))
			used = j
		}
	}
	return out
}

// observeDrift: a fresh training deployment with the observation WAL on,
// then /observe at 200/s — simulator-measured samples of the twelve test
// benchmarks, switching to a shifted profile after a quarter of the run —
// while the second connection reads /select back to back. Writes run next
// to reads: ingest, drift detection, warm retrains, publish and hot-swap,
// and whether serving pays for them on a small machine.
func observeDrift(ctx context.Context, e *env) (*outcome, error) {
	pre, post, err := gen.Drift(e.seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	d, times, err := e.r.bootMedian(ctx, e.conns[0], "observe-drift", func(i int) ([]string, error) {
		dir := filepath.Join(e.r.dir, fmt.Sprintf("drift-%d", i))
		return []string{"-settings", fmt.Sprint(gen.DriftSettings), "-model-dir", filepath.Join(dir, "models"), "-train-on-start",
			"-obs-dir", filepath.Join(dir, "obs"), "-adapt-cooldown", "1s", "-adapt-retrain-every", "512", "-adapt-factor", "1.15"}, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	o.e2e["setup_s"] = setupMetric(times)
	o.report = append(o.report, fmt.Sprintf("set-up: fresh training deployments took %v", times))

	known := gen.Known()
	pairs := gen.KnownPairs(e.seed)
	sel := make([][]byte, len(pairs))
	want := make([]decision, len(pairs))
	base := ""
	for i, pr := range pairs {
		sel[i] = selectBody(known[pr.Kernel], gen.Policies[pr.Policy])
		body, err := e.post(ctx, o.rec, d.base, "/select", sel[i])
		if err != nil {
			continue
		}
		r, dec, err := decodeSelect(body)
		if err != nil {
			o.rec.fail("validation /select: %v", err)
			continue
		}
		base, want[i] = r.ModelVersion, dec
	}
	if base == "" {
		return nil, errors.New("validation pass produced no decision")
	}

	log := &retrainLog{driftAt: -1, seenAt: map[string]time.Time{}}
	log.served(base, time.Now())
	due := arrivals(e.seed, observeRate, e.seconds)
	shiftIdx := int(shiftShare * float64(len(due)))
	observeCall := func(i int) call {
		ob, shifted := pre[i%len(pre)], 0
		if i >= shiftIdx {
			shifted = i - shiftIdx + 1
			ob = post[(i-shiftIdx)%len(post)]
		}
		return call{op: "observe", units: 1, path: "/observe", body: mustJSON(ob), check: func(b []byte) error {
			var r observeResp
			if err := jsonStrict(b, &r); err != nil {
				return err
			}
			if len(r.Results) != 1 || r.Results[0].Ingest == nil || !r.Results[0].Ingest.Stored {
				return fmt.Errorf("observation not stored: %.200s", b)
			}
			now := time.Now()
			log.served(r.ModelVersion, now)
			if in := r.Results[0].Ingest; in.RetrainStarted {
				log.started(now, in.Reason, shifted)
			}
			return nil
		}}
	}
	selectCall := func(c, i int) call {
		j := i % len(pairs)
		return call{op: "select", units: 1, path: "/select", body: sel[j], check: func(b []byte) error {
			r, dec, err := decodeSelect(b)
			if err != nil {
				return err
			}
			log.served(r.ModelVersion, time.Now())
			if r.ModelVersion == base && dec != want[j] {
				return fmt.Errorf("decision changed under %s: %+v, validation pass %+v", base, dec, want[j])
			}
			return nil
		}}
	}

	l := newLoop(d.base, e.traced)
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	var open *recorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		open = l.open(ctx, e.conns[:1], due, observeCall)
	}()
	closed, elapsed := l.closed(ctx, e.conns[1:], e.seconds, selectCall)
	wg.Wait()
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	o.rec.merge(open)
	o.rec.merge(closed)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Let a retrain still running finish, so the counters are final.
	var st adaptStatus
	for {
		if err := e.get(ctx, o.rec, d.base, "/adapt/status", &st); err != nil {
			return nil, err
		}
		if !st.Retrain.InProgress {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	ob, sl := summarize(open.lat["observe"]), summarize(closed.lat["select"])
	rt := summarize(log.latencies())
	units := closed.units["select"] + open.units["observe"]
	o.e2e["p50_ms"] = metric{Value: ob.p50, Unit: "ms", N: ob.n}
	o.e2e["side_p50_ms"] = metric{Value: rt.p50, Unit: "ms", N: rt.n}
	o.e2e["units_per_s"] = metric{Value: float64(sl.n) / elapsed.Seconds(), Unit: "1/s", N: sl.n}
	o.e2e["cpu_us_per_unit"] = metric{Value: float64((cpu1 - cpu0).Microseconds()) / float64(units), Unit: "us", N: units}
	o.report = append(o.report,
		fmt.Sprintf("open loop /observe, %d/s offered, shift after %d of %d: %v", observeRate, shiftIdx, len(due), ob),
		lateness(open),
		fmt.Sprintf("closed loop /select on the second connection, %.1f s: %v", elapsed.Seconds(), sl),
		fmt.Sprintf("retrains: %v started (%d by drift, first after %d shifted observations), %v activated, %v rejected; start to first reply on the new version: %v",
			len(log.starts), log.drift, log.driftAt, st.Retrain.Activated, st.Retrain.Rejected, rt),
		fmt.Sprintf("daemon CPU %v over %d requests", cpu1-cpu0, units))

	if log.drift == 0 {
		o.rec.fail("no retrain was started by a drift verdict")
	}
	if st.Retrain.Activated == 0 || rt.n == 0 {
		o.rec.fail("no retrained model reached clients (%v activated)", st.Retrain.Activated)
	}
	if st.WAL == nil || st.WAL.LastError != "" {
		o.rec.fail("observation WAL missing or failing: %+v", st.WAL)
	}
	count := func(v float64) metric { return metric{Value: v, Unit: "count"} }
	o.layers["adapt.retrains"] = count(st.Retrain.Retrains)
	o.layers["adapt.activated"] = count(st.Retrain.Activated)
	o.layers["adapt.rejected"] = count(st.Retrain.Rejected)
	o.layers["adapt.drift_after_obs"] = count(float64(log.driftAt))
	if ws := st.Retrain.LastWarmStart; ws != nil {
		o.layers["adapt.warm_matched_rows"] = count(ws.MatchedRows)
	}
	return o, e.scrapeServing(ctx, o, d.base, sel[0])
}
