package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/policy"
)

// DefaultMixShiftThreshold is the L1 distance between a node's current
// kernel-mix weights and its plan-time weights past which the control
// plane replans automatically. Mix weights sum to 1 per node, so the
// distance ranges [0, 2]; 0.25 means "a quarter of the node's time moved
// to different kernels".
const DefaultMixShiftThreshold = 0.25

// mixEntry is one kernel's share of a node's observed workload: the
// feature vector is the identity (and the front-table lookup key), the
// name is diagnostic, the count accumulates accepted observations.
type mixEntry struct {
	kernel string
	count  float64
}

// budgetState is the control plane's fleet-budget bookkeeping, guarded by
// Control.mu. The encoded docs are what heartbeats and pushes deliver, so
// every delivery carries the exact bytes (and hash) the plan was cut into.
type budgetState struct {
	set     bool
	budget  budget.Budget
	plan    *budget.Plan
	tables  map[string]*budget.DecisionTable
	docs    map[string][]byte
	planMix map[string]map[features.Static]float64
	planned time.Time
	replans int
	notes   []string
	last    *PushReport
	// inflight serializes replans without holding mu across the solve and
	// the push round; a replan requested while one runs is skipped (the
	// running one solves over the freshest mix snapshot it took).
	inflight bool
}

// ErrNoBudget is returned by Replan when no fleet budget has been set.
var ErrNoBudget = errors.New("fleet: no budget set")

// recordMix accumulates accepted observations into the reporting node's
// kernel mix. Called by Observe with the ingest results so rejected
// observations (bad features, bad objectives) never steer the plan.
func (c *Control) recordMix(node string, obs []adapt.Observation, results []ObserveResult) {
	if node == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[node]
	if !ok {
		return
	}
	for i, o := range obs {
		if i < len(results) && results[i].Ingest == nil {
			continue
		}
		if ns.mix == nil {
			ns.mix = map[features.Static]*mixEntry{}
		}
		e := ns.mix[o.Features]
		if e == nil {
			e = &mixEntry{kernel: o.Kernel}
			ns.mix[o.Features] = e
		}
		if e.kernel == "" {
			e.kernel = o.Kernel
		}
		e.count++
	}
}

// mixWeights normalizes a node's mix counts to weights summing to 1.
func mixWeights(mix map[features.Static]*mixEntry) map[features.Static]float64 {
	var total float64
	for _, e := range mix {
		total += e.count
	}
	if total <= 0 {
		return nil
	}
	out := make(map[features.Static]float64, len(mix))
	for f, e := range mix {
		out[f] = e.count / total
	}
	return out
}

// mixShift is the L1 distance between two weight maps over their union —
// 0 for identical mixes, 2 for disjoint ones.
func mixShift(now, then map[features.Static]float64) float64 {
	var d float64
	for f, w := range now {
		d += absf(w - then[f])
	}
	for f, w := range then {
		if _, ok := now[f]; !ok {
			d += w
		}
	}
	return d
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// mixShiftThreshold resolves the configured auto-replan threshold
// (0 = DefaultMixShiftThreshold; negative disables auto-replanning).
func (c *Control) mixShiftThreshold() float64 {
	if c.cfg.MixShiftThreshold == 0 {
		return DefaultMixShiftThreshold
	}
	return c.cfg.MixShiftThreshold
}

// SetBudget validates and installs the fleet budget, then replans and
// pushes the resulting decision tables.
func (c *Control) SetBudget(ctx context.Context, b budget.Budget) (BudgetStatusResponse, error) {
	if err := b.Validate(); err != nil {
		return BudgetStatusResponse{}, err
	}
	c.mu.Lock()
	c.bud.set = true
	c.bud.budget = b.WithDefaults()
	c.mu.Unlock()
	return c.Replan(ctx)
}

// maybeReplan replans if a budget is set — the hook snapshot activation
// (fronts changed) and mix drift (weights changed) share. Failures are
// recorded in the status notes, never propagated: a replan must not fail
// the operation that triggered it.
func (c *Control) maybeReplan(ctx context.Context) {
	c.mu.Lock()
	set := c.bud.set
	c.mu.Unlock()
	if !set {
		return
	}
	if _, err := c.Replan(ctx); err != nil && !errors.Is(err, ErrNoBudget) {
		c.mu.Lock()
		c.bud.notes = append(c.bud.notes, fmt.Sprintf("replan failed: %v", err))
		c.mu.Unlock()
	}
}

// checkMixShift triggers an automatic replan when any node's observed mix
// drifted past the threshold since the last plan. Called by Observe after
// ingest; the replan (solve + breaker-aware push round) runs on the
// calling goroutine, so a forwarding agent's request observes the plan it
// caused.
func (c *Control) checkMixShift(ctx context.Context) {
	threshold := c.mixShiftThreshold()
	if threshold < 0 {
		return
	}
	c.mu.Lock()
	trigger := false
	if c.bud.set && c.bud.plan != nil && !c.bud.inflight {
		for node, ns := range c.nodes {
			if shift := mixShift(mixWeights(ns.mix), c.bud.planMix[node]); shift >= threshold {
				trigger = true
				break
			}
		}
	}
	c.mu.Unlock()
	if trigger {
		c.maybeReplan(ctx)
	}
}

// budgetItems snapshots the fleet's allocation problem: one budget.Item
// per (node, observed kernel) over the node's device's active front table.
// A node with no observed mix yet is allocated over a uniform mix of its
// device's whole front table (every published kernel weighted equally), so
// a budget set before traffic arrives still yields a concrete plan.
// Returns the items, the (node, kernel label) → features resolver data,
// the node → device map, and human-readable notes for skipped work.
func (c *Control) budgetItems() ([]budget.Item, map[string]map[string]features.Static, map[string]string, []string) {
	type nodeSnap struct {
		device string
		mix    map[features.Static]*mixEntry
	}
	c.mu.Lock()
	nodes := make(map[string]nodeSnap, len(c.nodes))
	for name, ns := range c.nodes {
		snap := nodeSnap{device: ns.info.Device, mix: make(map[features.Static]*mixEntry, len(ns.mix))}
		for f, e := range ns.mix {
			cp := *e
			snap.mix[f] = &cp
		}
		nodes[name] = snap
	}
	c.mu.Unlock()

	type frontTable struct {
		byFeat map[features.Static]*frontEntryRef
		err    error
	}
	fronts := map[string]*frontTable{}
	loadFronts := func(device string) *frontTable {
		if t, ok := fronts[device]; ok {
			return t
		}
		t := &frontTable{byFeat: map[features.Static]*frontEntryRef{}}
		fr, err := c.store.LoadFronts(device, "")
		if err != nil {
			t.err = err
		} else if fr != nil { // nil, nil: snapshot published without fronts
			for i := range fr.Kernels {
				e := &fr.Kernels[i]
				if _, dup := t.byFeat[e.Features]; !dup {
					t.byFeat[e.Features] = &frontEntryRef{name: e.Name, pareto: e.Pareto}
				}
			}
		}
		fronts[device] = t
		return t
	}

	var items []budget.Item
	labels := map[string]map[string]features.Static{}
	devices := map[string]string{}
	var notes []string
	for node, snap := range nodes {
		devices[node] = snap.device
		tbl := loadFronts(snap.device)
		if tbl.err != nil {
			notes = append(notes, fmt.Sprintf("node %s: no front table for %s: %v", node, snap.device, tbl.err))
			continue
		}
		if len(tbl.byFeat) == 0 {
			notes = append(notes, fmt.Sprintf("node %s: device %s publishes an empty front table", node, snap.device))
			continue
		}
		type slot struct {
			feat   features.Static
			name   string
			weight float64
		}
		var slots []slot
		var matched float64
		for f, m := range snap.mix {
			e, ok := tbl.byFeat[f]
			if !ok {
				notes = append(notes, fmt.Sprintf("node %s: observed kernel %q has no published front; excluded from the plan",
					node, m.kernel))
				continue
			}
			name := m.kernel
			if name == "" {
				name = e.name
			}
			slots = append(slots, slot{feat: f, name: name, weight: m.count})
			matched += m.count
		}
		if matched > 0 {
			// Normalize over the matched kernels so the node still weighs
			// 1.0 at default clocks. Counts are integer-valued, so their sum
			// is exact in any (map) order and every replan of the same mix
			// yields bit-identical weights.
			for i := range slots {
				slots[i].weight /= matched
			}
		} else {
			if len(snap.mix) > 0 {
				notes = append(notes, fmt.Sprintf("node %s: no observed kernel has a published front; using the uniform mix", node))
			}
			w := 1 / float64(len(tbl.byFeat))
			for f, e := range tbl.byFeat {
				slots = append(slots, slot{feat: f, name: e.name, weight: w})
			}
		}
		// Kernel labels must be unique within a node; identical names on
		// distinct feature vectors get a positional suffix, assigned in
		// (name, features) order so labels do not depend on map order.
		sort.Slice(slots, func(i, j int) bool {
			if slots[i].name != slots[j].name {
				return slots[i].name < slots[j].name
			}
			return lessStatic(slots[i].feat, slots[j].feat)
		})
		used := map[string]int{}
		nodeLabels := map[string]features.Static{}
		for _, s := range slots {
			label := s.name
			if label == "" {
				label = "kernel"
			}
			if n := used[label]; n > 0 {
				used[label] = n + 1
				label = fmt.Sprintf("%s#%d", label, n+1)
			}
			used[label]++
			front := tbl.byFeat[s.feat]
			items = append(items, budget.Item{
				Node: node, Kernel: label, Weight: s.weight, Front: front.pareto,
			})
			nodeLabels[label] = s.feat
		}
		labels[node] = nodeLabels
	}
	return items, labels, devices, notes
}

// frontEntryRef is budgetItems' per-kernel view of a front table.
type frontEntryRef struct {
	name   string
	pareto []core.Prediction
}

// lessStatic orders feature vectors lexicographically.
func lessStatic(a, b features.Static) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Replan solves the fleet allocation over the current observed mixes and
// active front tables, cuts the plan into per-node decision tables, and
// runs a breaker-aware push round to deliver them. ErrNoBudget when no
// budget has been set. A replan already in flight is not duplicated — the
// current status is returned as-is.
func (c *Control) Replan(ctx context.Context) (BudgetStatusResponse, error) {
	c.mu.Lock()
	if !c.bud.set {
		c.mu.Unlock()
		return BudgetStatusResponse{}, ErrNoBudget
	}
	if c.bud.inflight {
		c.mu.Unlock()
		return c.BudgetStatus(), nil
	}
	c.bud.inflight = true
	b := c.bud.budget
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.bud.inflight = false
		c.mu.Unlock()
	}()

	items, labels, devices, notes := c.budgetItems()
	plan, err := budget.Solve(items, b)
	if err != nil {
		return BudgetStatusResponse{}, err
	}
	tables, err := budget.Tables(&plan,
		func(node string) string { return devices[node] },
		func(node, kernel string) (features.Static, bool) {
			f, ok := labels[node][kernel]
			return f, ok
		})
	if err != nil {
		return BudgetStatusResponse{}, err
	}
	docs := make(map[string][]byte, len(tables))
	for node, t := range tables {
		doc, err := budget.EncodeTable(t)
		if err != nil {
			return BudgetStatusResponse{}, err
		}
		docs[node] = doc
	}

	c.mu.Lock()
	c.bud.plan = &plan
	c.bud.tables = tables
	c.bud.docs = docs
	c.bud.planned = time.Now().UTC()
	c.bud.replans++
	c.bud.notes = notes
	c.bud.planMix = map[string]map[features.Static]float64{}
	for node, ns := range c.nodes {
		if w := mixWeights(ns.mix); w != nil {
			c.bud.planMix[node] = w
		}
	}
	c.mu.Unlock()

	report := c.pushDecisions(ctx)
	c.mu.Lock()
	c.bud.last = &report
	c.mu.Unlock()
	return c.BudgetStatus(), nil
}

// pushDecisions fans the current decision tables out to their nodes'
// /fleet/decisions endpoints, reusing the snapshot push path's circuit
// breakers: a node whose breaker is open is skipped without contact and
// converges by heartbeat (RegisterResponse.Decisions) or the breaker's
// probe. Delivery updates the node's reported plan hash.
func (c *Control) pushDecisions(ctx context.Context) PushReport {
	report := PushReport{}
	c.mu.Lock()
	type target struct {
		node, addr string
		doc        []byte
	}
	var stale []target
	for node, doc := range c.bud.docs {
		ns := c.nodes[node]
		t := c.bud.tables[node]
		if ns == nil || t == nil || ns.info.Addr == "" || ns.info.Plan == t.Hash {
			continue
		}
		stale = append(stale, target{node: node, addr: ns.info.Addr, doc: doc})
	}
	c.mu.Unlock()

	report.Targets = len(stale)
	var contact []target
	for _, t := range stale {
		if c.breakers.Get(t.node).Allow() {
			contact = append(contact, t)
		} else {
			report.Skipped++
		}
	}
	type outcome struct {
		node string
		resp DecisionsResponse
		err  error
	}
	results := make(chan outcome, len(contact))
	for _, t := range contact {
		go func(t target) {
			resp, err := c.pushTableTo(ctx, t.addr, t.doc)
			results <- outcome{node: t.node, resp: resp, err: err}
		}(t)
	}
	for range contact {
		o := <-results
		c.breakers.Get(o.node).Record(o.err)
		c.mu.Lock()
		ns := c.nodes[o.node]
		if ns != nil {
			ns.info.Pushes++
			if o.err != nil {
				ns.info.PushErrors++
				ns.info.LastError = o.err.Error()
			} else {
				ns.info.LastError = ""
				ns.info.Plan = o.resp.Hash
			}
		}
		c.mu.Unlock()
		if o.err != nil {
			report.Errors = append(report.Errors, fmt.Sprintf("%s: %v", o.node, o.err))
		} else {
			report.Pushed++
		}
	}
	return report
}

// pushTableTo delivers one decision-table document to one agent.
func (c *Control) pushTableTo(ctx context.Context, addr string, doc []byte) (DecisionsResponse, error) {
	url := strings.TrimSuffix(addr, "/") + "/fleet/decisions"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(doc)))
	if err != nil {
		return DecisionsResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := c.cfg.Client.Do(req)
	if err != nil {
		return DecisionsResponse{}, err
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
	if err != nil {
		return DecisionsResponse{}, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return DecisionsResponse{}, fmt.Errorf("decisions push: %s: %s", httpResp.Status, strings.TrimSpace(string(body)))
	}
	var resp DecisionsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return DecisionsResponse{}, fmt.Errorf("decisions push: decoding response: %v", err)
	}
	return resp, nil
}

// budgetHeartbeat completes a registration response with the node's
// decision table when its reported plan hash is stale — the same
// pull-based convergence snapshot delivery uses, so a node that missed a
// push converges within one sync interval.
func (c *Control) budgetHeartbeat(node, reported string, resp *RegisterResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.bud.tables[node]
	if t == nil || t.Hash == reported {
		return
	}
	resp.Decisions = json.RawMessage(c.bud.docs[node])
}

// BudgetStatus reports the fleet budget state: the budget, the current
// plan, per-node delivery/staleness, and mix drift since the plan.
func (c *Control) BudgetStatus() BudgetStatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := BudgetStatusResponse{
		Set:               c.bud.set,
		Replans:           c.bud.replans,
		PlannedAt:         c.bud.planned,
		Notes:             append([]string(nil), c.bud.notes...),
		MixShiftThreshold: c.mixShiftThreshold(),
		LastPush:          c.bud.last,
	}
	if c.bud.set {
		b := c.bud.budget
		resp.Budget = &b
	}
	resp.Plan = c.bud.plan
	for node, ns := range c.nodes {
		st := BudgetNodeStatus{
			Node:     node,
			Device:   ns.info.Device,
			Reported: ns.info.Plan,
			MixShift: mixShift(mixWeights(ns.mix), c.bud.planMix[node]),
			Kernels:  len(ns.mix),
		}
		if t := c.bud.tables[node]; t != nil {
			st.Hash = t.Hash
			st.Entries = len(t.Entries)
			st.Synced = t.Hash == ns.info.Plan
			st.UniformMix = len(c.bud.planMix[node]) == 0
		}
		if st.MixShift > resp.MaxMixShift {
			resp.MaxMixShift = st.MixShift
		}
		resp.Nodes = append(resp.Nodes, st)
	}
	sort.Slice(resp.Nodes, func(i, j int) bool { return resp.Nodes[i].Node < resp.Nodes[j].Node })
	resp.Stale = c.bud.plan != nil && resp.MixShiftThreshold >= 0 && resp.MaxMixShift >= resp.MixShiftThreshold
	return resp
}

// HandleBudget is /fleet/budget on the control plane: GET returns the
// current plan and per-node staleness; POST sets a budget ({"total": …,
// "unit": …}) or forces a replan ({"replan": true}).
func (c *Control) HandleBudget(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeWire(w, http.StatusOK, c.BudgetStatus())
	case http.MethodPost:
		var req BudgetRequest
		if !readWire(w, r, &req) {
			return
		}
		var (
			resp BudgetStatusResponse
			err  error
		)
		switch {
		case req.Total != nil:
			resp, err = c.SetBudget(r.Context(), budget.Budget{Total: *req.Total, Unit: req.Unit})
		case req.Replan:
			resp, err = c.Replan(r.Context())
		default:
			writeWireError(w, http.StatusBadRequest, errors.New(`budget request needs "total" (set) or "replan": true`))
			return
		}
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrNoBudget) {
				status = http.StatusConflict
			}
			writeWireError(w, status, err)
			return
		}
		writeWire(w, http.StatusOK, resp)
	default:
		writeWireError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

// InstallTable verifies and installs a decision-table document pushed (or
// heartbeat-delivered) by the control plane. A table for a different node
// or device is refused — it would steer the wrong hardware. Installing the
// already-installed hash is an idempotent no-op.
func (a *Agent) InstallTable(doc []byte) (*budget.DecisionTable, bool, error) {
	t, err := budget.DecodeTable(doc)
	if err != nil {
		return nil, false, err
	}
	if t.Node != a.cfg.Node {
		return nil, false, fmt.Errorf("%w: table is for node %q, this agent is %q", budget.ErrBadTable, t.Node, a.cfg.Node)
	}
	if t.Device != a.cfg.Device {
		return nil, false, fmt.Errorf("%w: table is for device %q, this agent serves %q", budget.ErrBadTable, t.Device, a.cfg.Device)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.planHash == t.Hash {
		return t, false, nil
	}
	a.table = t
	a.tableDoc = append([]byte(nil), doc...)
	a.planHash = t.Hash
	return t, true, nil
}

// DecisionFor resolves the fleet governor's decision for a kernel by its
// static features (ok=false when no table is installed or the kernel is
// not in it) — the serving-side lookup for budget-governed selection.
func (a *Agent) DecisionFor(f features.Static) (policy.Decision, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.table == nil {
		return policy.Decision{}, false
	}
	for _, e := range a.table.Entries {
		if e.Features == f {
			return e.Decision, true
		}
	}
	return policy.Decision{}, false
}

// HandleDecisions is /fleet/decisions on the agent: POST installs a pushed
// decision table (409 on a table that fails validation or targets another
// node/device, keeping the current table serving); GET returns the
// installed table.
func (a *Agent) HandleDecisions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		a.mu.Lock()
		doc := a.tableDoc
		a.mu.Unlock()
		if len(doc) == 0 {
			writeWireError(w, http.StatusNotFound, errors.New("no decision table installed"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(doc)
	case http.MethodPost:
		doc, err := io.ReadAll(io.LimitReader(r.Body, maxWireBody))
		if err != nil {
			writeWireError(w, http.StatusBadRequest, fmt.Errorf("reading decision table: %v", err))
			return
		}
		t, installed, err := a.InstallTable(doc)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, budget.ErrBadTable) {
				status = http.StatusConflict
			}
			writeWireError(w, status, err)
			return
		}
		writeWire(w, http.StatusOK, DecisionsResponse{
			Node: t.Node, Device: t.Device, Hash: t.Hash,
			Entries: len(t.Entries), Installed: installed,
		})
	default:
		writeWireError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}
