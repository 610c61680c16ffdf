package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/benchmark/gen"
	"repro/internal/budget"
)

// fleet-budget shape: simulated nodes, each running a mix of known kernels.
const (
	fleetNodes   = 32
	fleetKernels = 8
)

// sink is the push target of every simulated node: it verifies each
// decision table the control plane pushes and notes when it arrived.
type sink struct {
	srv  *http.Server
	addr string

	mu   sync.Mutex
	got  int       // tables received since the last reset
	last time.Time // arrival of the last table
	errs []string
}

func startSink() (*sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{addr: "http://" + ln.Addr().String()}
	mux := http.NewServeMux()
	mux.HandleFunc("/node/{node}/fleet/decisions", s.decisions)
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

func (s *sink) close() { _ = s.srv.Close() }

// decisions verifies a pushed table: content hash (budget.DecodeTable), and
// that it is addressed to this node on the served device.
func (s *sink) decisions(w http.ResponseWriter, r *http.Request) {
	node := r.PathValue("node")
	doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	var t *budget.DecisionTable
	if err == nil {
		t, err = budget.DecodeTable(doc)
	}
	if err == nil && (t.Node != node || t.Device != gen.Device || len(t.Entries) != fleetKernels) {
		err = fmt.Errorf("table for %s/%s with %d entries pushed to %s", t.Node, t.Device, len(t.Entries), node)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.errs = append(s.errs, fmt.Sprintf("push to %s: %v", node, err))
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.got++
	s.last = time.Now()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"node": t.Node, "device": t.Device, "hash": t.Hash, "entries": len(t.Entries), "installed": true,
	})
}

// round returns and resets the tables received since the last call.
func (s *sink) round() (int, time.Time, []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	got, last, errs := s.got, s.last, s.errs
	s.got, s.errs = 0, nil
	return got, last, errs
}

// fleetBudget: 32 simulated nodes register against the control plane (each
// stale registration returns the full snapshot), report a seeded 8-kernel
// mix each, and then the fleet energy budget is replanned back to back
// through caps on power and energy. It runs the control plane — snapshot
// export, front-table loads, the budget solvers, decision-table fan-out —
// and bypasses kernel parsing and the SVRs.
func fleetBudget(ctx context.Context, e *env) (*outcome, error) {
	d, setup, line, err := e.bootBase(ctx, "fleet-budget", "-adapt-auto=false")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	o := newOutcome()
	o.e2e["setup_s"] = setup
	o.report = append(o.report, line)
	sk, err := startSink()
	if err != nil {
		return nil, err
	}
	defer sk.close()
	c := e.conns[0]
	post := func(path string, v any, out any) (time.Duration, error) {
		t0 := time.Now()
		status, body, err := c.do(ctx, http.MethodPost, d.base+path, "", mustJSON(v))
		lat := time.Since(t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %.200s", path, status, body)
		}
		if err == nil {
			err = jsonStrict(body, out)
		}
		return lat, err
	}

	mixes := gen.Mixes(e.seed, fleetNodes, fleetKernels)
	var regs []time.Duration
	snapshot := ""
	for _, m := range mixes {
		var r registerResp
		lat, err := post("/fleet/register", registerReq{Node: m.Node, Addr: sk.addr + "/node/" + m.Node, Device: gen.Device}, &r)
		switch {
		case err != nil:
		case r.Node != m.Node || r.Active == "" || r.Snapshot == nil || r.Snapshot.Manifest.Hash == "":
			err = fmt.Errorf("registration of %s returned no snapshot of the active version", m.Node)
		case snapshot != "" && r.Snapshot.Manifest.Hash != snapshot:
			err = fmt.Errorf("registration of %s returned snapshot %.12s, others %.12s", m.Node, r.Snapshot.Manifest.Hash, snapshot)
		default:
			snapshot = r.Snapshot.Manifest.Hash
		}
		o.rec.add("register", 1, lat, err)
		if err == nil {
			regs = append(regs, lat)
		}
	}
	for _, m := range mixes {
		var r observeResp
		_, err := post("/fleet/observe", map[string]any{"node": m.Node, "device": gen.Device, "observations": m.Observations}, &r)
		if err == nil && len(r.Results) != len(m.Observations) {
			err = fmt.Errorf("%d verdicts for %d observations", len(r.Results), len(m.Observations))
		}
		for i := 0; err == nil && i < len(r.Results); i++ {
			if r.Results[i].Ingest == nil {
				err = fmt.Errorf("observation %d of %s rejected: %s", i, m.Node, r.Results[i].Error)
			}
		}
		o.rec.add("mix", 1, 0, err)
	}

	// Replans, back to back until the measured time is up. Each budget
	// step is sent twice: the first delivers new tables to every node whose
	// table changed; the second re-solves the same problem, so whatever it
	// pushes again is redundant work.
	steps := gen.Steps(e.seed, fleetNodes)
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	// The digest covers the served snapshot and the planned (node, kernel)
	// slots but not the decisions: the daemon's mix weights vary in their
	// last bit between replans, which can flip a decision at a budget edge.
	lines := []string{"snapshot " + snapshot}
	var fanout []time.Duration
	var allocs, targets, pushed, skipped, pushErrs, replans, repushed int
	start := time.Now()
	for i := 0; time.Since(start) < e.seconds && ctx.Err() == nil; i++ {
		st := steps[i%len(steps)]
		var r budgetResp
		t0 := time.Now()
		lat, err := post("/fleet/budget", st, &r)
		got, last, errs := sk.round()
		if err == nil {
			err = checkReplan(r, got, errs)
		}
		o.rec.add("replan", fleetNodes*fleetKernels, lat, err)
		if err != nil {
			continue
		}
		allocs += len(r.Plan.Allocations)
		targets += r.LastPush.Targets
		pushed += r.LastPush.Pushed
		skipped += r.LastPush.Skipped
		pushErrs += len(r.LastPush.Errors)
		replans = int(r.Replans)
		if got > 0 {
			fanout = append(fanout, last.Sub(t0))
		}
		if i%2 == 1 {
			repushed += r.LastPush.Targets
		}
		if len(lines) == 1 {
			for _, a := range r.Plan.Allocations {
				lines = append(lines, "slot "+a.Node+" "+a.Kernel)
			}
		}
	}
	elapsed := time.Since(start)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	o.digest = digestOf(lines)
	rp, rg, fo := summarize(o.rec.lat["replan"]), summarize(regs), summarize(fanout)
	o.e2e["p50_ms"] = metric{Value: rp.p50, Unit: "ms", N: rp.n}
	o.e2e["side_p50_ms"] = metric{Value: rg.p50, Unit: "ms", N: rg.n}
	o.e2e["units_per_s"] = metric{Value: float64(allocs) / elapsed.Seconds(), Unit: "1/s", N: allocs}
	o.e2e["cpu_us_per_unit"] = metric{Value: float64((cpu1 - cpu0).Microseconds()) / float64(allocs), Unit: "us", N: allocs}
	o.report = append(o.report,
		fmt.Sprintf("registration of %d nodes, each returned the full snapshot: %v", fleetNodes, rg),
		fmt.Sprintf("replans of %d nodes × %d kernels, back to back for %.1f s: %v", fleetNodes, fleetKernels, elapsed.Seconds(), rp),
		fmt.Sprintf("decision-table fan-out (POST start to the last table at the sink): %v; %d targets, %d pushed", fo, targets, pushed),
		fmt.Sprintf("repeated budget steps pushed %d tables again", repushed),
		fmt.Sprintf("daemon CPU %v over %d allocations", cpu1-cpu0, allocs))

	count := func(v int) metric { return metric{Value: float64(v), Unit: "count"} }
	o.layers["fleet.replans"] = count(replans)
	o.layers["fleet.push_targets"] = count(targets)
	o.layers["fleet.pushed"] = count(pushed)
	o.layers["fleet.push_skipped"] = count(skipped)
	o.layers["fleet.push_errors"] = count(pushErrs)
	o.layers["fleet.push_fanout_ms"] = metric{Value: fo.p50, Unit: "ms", N: fo.n}
	return o, e.scrapeServing(ctx, o, d.base, nil)
}

// checkReplan verifies one POST /fleet/budget reply against what the sink
// received: a complete plan over every node, and every targeted node pushed
// a table the sink verified.
func checkReplan(r budgetResp, got int, sinkErrs []string) error {
	if r.Plan == nil || len(r.Plan.Allocations) != fleetNodes*fleetKernels || r.LastPush == nil {
		return errors.New("reply carries no complete plan")
	}
	if len(r.Nodes) != fleetNodes {
		return fmt.Errorf("plan covers %d nodes, want %d", len(r.Nodes), fleetNodes)
	}
	if len(sinkErrs) > 0 {
		return fmt.Errorf("sink refused pushed tables: %v", sinkErrs)
	}
	p := r.LastPush
	if p.Pushed != p.Targets || len(p.Errors) > 0 || got != p.Pushed {
		return fmt.Errorf("push round: %d targets, %d pushed, %d received, errors %v", p.Targets, p.Pushed, got, p.Errors)
	}
	return nil
}
