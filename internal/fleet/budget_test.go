package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/policy"
	"repro/internal/registry"
)

// publishFronted publishes a constant model set for a device WITH a
// publish-time front table (the budget governor plans over fronts, not
// models) and activates it.
func publishFronted(t *testing.T, c *Control, device string) registry.Manifest {
	t.Helper()
	return publishFrontedN(t, c, device, 2)
}

// publishFrontedN is publishFronted over the first n training kernels.
func publishFrontedN(t *testing.T, c *Control, device string, n int) registry.Manifest {
	t.Helper()
	eng := newEngineFor(t, device)
	models := constModels(t, 1, 1)
	pred := engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options())
	fronts := registry.ComputeFronts(pred, engine.TrainingKernels()[:n])
	man, err := c.Store().SaveWithFronts(device, "", models, registry.Training{}, fronts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store().Activate(device, man.Version); err != nil {
		t.Fatal(err)
	}
	return man
}

// trainObs builds an accepted observation for the i-th training kernel, so
// the observed mix matches the published front table's feature keys.
func trainObs(i int, speedup, energy float64) adapt.Observation {
	k := engine.TrainingKernels()[i]
	return adapt.Observation{
		Kernel:     k.Name,
		Features:   k.Features,
		Config:     freq.Config{Mem: 3505, Core: 1000},
		Speedup:    speedup,
		NormEnergy: energy,
	}
}

// forward ingests observations as one agent's forwarded batch and fails
// the test if any are rejected (a rejected observation never steers the
// budget mix, which would silently weaken the test).
func forward(t *testing.T, c *Control, node, device string, obs ...adapt.Observation) {
	t.Helper()
	resp, err := c.Observe(ObserveRequest{Node: node, Device: device, Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Ingest == nil {
			t.Fatalf("observation %d rejected: %s", i, r.Error)
		}
	}
}

func TestSetBudgetPlansOverObservedMix(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	publishFronted(t, c, "titanx")
	if _, err := c.Register(RegisterRequest{Node: "n1", Device: "titanx"}); err != nil {
		t.Fatal(err)
	}
	// 3:1 mix of the two training kernels.
	forward(t, c, "n1", "titanx",
		trainObs(0, 1, 1), trainObs(0, 1, 1), trainObs(0, 1, 1), trainObs(1, 1, 1))

	st, err := c.SetBudget(context.Background(), budget.Budget{Total: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Set || st.Plan == nil {
		t.Fatalf("no plan after SetBudget: %+v", st)
	}
	if st.Plan.Strategy == "" || len(st.Plan.Allocations) != 2 {
		t.Fatalf("plan shape: strategy %q, %d allocations (want 2)", st.Plan.Strategy, len(st.Plan.Allocations))
	}
	var weights []float64
	for _, a := range st.Plan.Allocations {
		if a.Node != "n1" {
			t.Fatalf("allocation for unknown node %q", a.Node)
		}
		weights = append(weights, a.Weight)
	}
	// Observed 3:1 mix → weights 0.75/0.25 in (node, kernel) order.
	if w := weights[0] + weights[1]; w < 0.999 || w > 1.001 {
		t.Fatalf("node weights sum to %g, want 1", w)
	}
	if weights[0] != 0.75 && weights[1] != 0.75 {
		t.Fatalf("expected a 0.75 weight from the 3:1 mix, got %v", weights)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].UniformMix {
		t.Fatalf("node status: %+v (want observed mix, not uniform)", st.Nodes)
	}
	if st.Nodes[0].Hash == "" || st.Nodes[0].Entries != 2 {
		t.Fatalf("node table: %+v", st.Nodes[0])
	}
}

func TestBudgetUniformFallbackWithoutObservations(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	publishFronted(t, c, "titanx")
	if _, err := c.Register(RegisterRequest{Node: "n1", Device: "titanx"}); err != nil {
		t.Fatal(err)
	}
	st, err := c.SetBudget(context.Background(), budget.Budget{Total: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == nil || len(st.Plan.Allocations) != 2 {
		t.Fatalf("uniform fallback plan: %+v", st.Plan)
	}
	for _, a := range st.Plan.Allocations {
		if a.Weight != 0.5 {
			t.Fatalf("uniform weight %g, want 0.5", a.Weight)
		}
	}
	if len(st.Nodes) != 1 || !st.Nodes[0].UniformMix {
		t.Fatalf("node status should report the uniform fallback: %+v", st.Nodes)
	}
}

func TestReplanWithoutBudgetIsTypedError(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	if _, err := c.Replan(context.Background()); !errors.Is(err, ErrNoBudget) {
		t.Fatalf("got %v, want ErrNoBudget", err)
	}
	// HTTP form: POST {"replan": true} with no budget set is 409.
	r := httptest.NewRequest(http.MethodPost, "/fleet/budget", strings.NewReader(`{"replan":true}`))
	w := httptest.NewRecorder()
	c.HandleBudget(w, r)
	if w.Code != http.StatusConflict {
		t.Fatalf("replan without budget: HTTP %d, want 409", w.Code)
	}
}

func TestHandleBudgetValidation(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	for body, want := range map[string]int{
		`{}`:                          http.StatusBadRequest, // neither total nor replan
		`{"total":-3}`:                http.StatusBadRequest,
		`{"total":1,"unit":"bogus"}`:  http.StatusBadRequest,
		`{"total":1,"unit":"energy"}`: http.StatusOK, // empty fleet: a valid (trivial) plan
	} {
		r := httptest.NewRequest(http.MethodPost, "/fleet/budget", strings.NewReader(body))
		w := httptest.NewRecorder()
		c.HandleBudget(w, r)
		if w.Code != want {
			t.Errorf("POST %s: HTTP %d, want %d (%s)", body, w.Code, want, w.Body.String())
		}
	}
	r := httptest.NewRequest(http.MethodDelete, "/fleet/budget", nil)
	w := httptest.NewRecorder()
	c.HandleBudget(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: HTTP %d, want 405", w.Code)
	}
}

func TestHeartbeatDeliversDecisionTable(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	publishFronted(t, c, "titanx")
	man := publishFronted(t, c, "titanx") // reuse active snapshot hash below
	if _, err := c.Register(RegisterRequest{Node: "n1", Device: "titanx", Hash: man.Hash}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetBudget(context.Background(), budget.Budget{Total: 1}); err != nil {
		t.Fatal(err)
	}
	// Heartbeat with no plan hash: the response carries the table.
	resp, err := c.Register(RegisterRequest{Node: "n1", Device: "titanx", Hash: man.Hash})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Decisions) == 0 {
		t.Fatal("stale heartbeat did not deliver the decision table")
	}
	tbl, err := budget.DecodeTable(resp.Decisions)
	if err != nil {
		t.Fatalf("delivered table invalid: %v", err)
	}
	if tbl.Node != "n1" || tbl.Device != "titanx" {
		t.Fatalf("delivered table identity: %s/%s", tbl.Node, tbl.Device)
	}
	// Heartbeat reporting the current hash: no table in the response.
	resp, err = c.Register(RegisterRequest{Node: "n1", Device: "titanx", Hash: man.Hash, Plan: tbl.Hash})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Decisions) != 0 {
		t.Fatal("up-to-date heartbeat still delivered the table")
	}
	st := c.BudgetStatus()
	if len(st.Nodes) != 1 || !st.Nodes[0].Synced {
		t.Fatalf("node not synced after acknowledging heartbeat: %+v", st.Nodes)
	}
}

func TestMixShiftTriggersReplan(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	c.cfg.MixShiftThreshold = 0.3
	publishFronted(t, c, "titanx")
	if _, err := c.Register(RegisterRequest{Node: "n1", Device: "titanx"}); err != nil {
		t.Fatal(err)
	}
	forward(t, c, "n1", "titanx", trainObs(0, 1, 1), trainObs(0, 1, 1))
	st, err := c.SetBudget(context.Background(), budget.Budget{Total: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Replans
	// A small drift stays under the threshold: no replan.
	forward(t, c, "n1", "titanx", trainObs(0, 1, 1))
	if got := c.BudgetStatus().Replans; got != before {
		t.Fatalf("replanned on a sub-threshold drift: %d → %d", before, got)
	}
	// Flood the other kernel: the mix flips and the plan re-solves.
	forward(t, c, "n1", "titanx",
		trainObs(1, 1, 1), trainObs(1, 1, 1), trainObs(1, 1, 1), trainObs(1, 1, 1), trainObs(1, 1, 1))
	after := c.BudgetStatus()
	if after.Replans <= before {
		t.Fatalf("mix flip did not replan: %d → %d (max shift %g)", before, after.Replans, after.MaxMixShift)
	}
}

func TestBudgetPushDeliversToAgent(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	publishFronted(t, c, "titanx")

	// A real agent with an HTTP server mounting the decisions endpoint.
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngineFor(t, "titanx")
	agent, err := NewAgent(AgentConfig{
		Node: "n1", Device: "titanx", Control: "http://unused",
		Store: store, Engine: eng, Serving: registry.NewServing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/decisions", agent.HandleDecisions)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if _, err := c.Register(RegisterRequest{Node: "n1", Device: "titanx", Addr: srv.URL}); err != nil {
		t.Fatal(err)
	}
	st, err := c.SetBudget(context.Background(), budget.Budget{Total: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.LastPush == nil || st.LastPush.Pushed != 1 {
		t.Fatalf("push round: %+v", st.LastPush)
	}
	as := agent.Status()
	if as.Plan == "" || as.PlanEntries != 2 {
		t.Fatalf("agent table after push: %+v", as)
	}
	if len(st.Nodes) != 1 || !st.Nodes[0].Synced || st.Nodes[0].Hash != as.Plan {
		t.Fatalf("control/agent hash divergence: %+v vs %q", st.Nodes, as.Plan)
	}
	// The agent resolves decisions by kernel features.
	k := engine.TrainingKernels()[0]
	d, ok := agent.DecisionFor(k.Features)
	if !ok {
		t.Fatal("agent cannot resolve a planned kernel")
	}
	if d.Policy.Name != budget.PolicyName {
		t.Fatalf("decision policy %q, want %q", d.Policy.Name, budget.PolicyName)
	}
	var unknown features.Static
	unknown[0] = 12345
	if _, ok := agent.DecisionFor(unknown); ok {
		t.Fatal("agent resolved a kernel that is not in the table")
	}
}

// TestReplanIsBitReproducible: replanning an unchanged problem cuts
// byte-identical tables, so the repeated push rounds find no stale node.
// The mix has seven kernels at unequal counts, whose normalized weights
// would differ in their last bit if summed in map order.
func TestReplanIsBitReproducible(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	const kernels = 7
	publishFrontedN(t, c, "titanx", kernels)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc, _ := io.ReadAll(r.Body)
		tbl, err := budget.DecodeTable(doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeWire(w, http.StatusOK, DecisionsResponse{Node: tbl.Node, Device: tbl.Device, Hash: tbl.Hash, Entries: len(tbl.Entries), Installed: true})
	}))
	defer sink.Close()
	if _, err := c.Register(RegisterRequest{Node: "n1", Device: "titanx", Addr: sink.URL}); err != nil {
		t.Fatal(err)
	}
	var obs []adapt.Observation
	for i := 0; i < kernels; i++ {
		for n := 0; n <= i; n++ {
			obs = append(obs, trainObs(i, 1, 1))
		}
	}
	forward(t, c, "n1", "titanx", obs...)

	st, err := c.SetBudget(context.Background(), budget.Budget{Total: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.LastPush == nil || st.LastPush.Targets != 1 || st.LastPush.Pushed != 1 {
		t.Fatalf("first push round: %+v", st.LastPush)
	}
	hash := st.Nodes[0].Hash
	if hash == "" || st.Nodes[0].Entries < 2 {
		t.Fatalf("first plan: %+v", st.Nodes[0])
	}
	for rep := 0; rep < 10; rep++ {
		st, err := c.Replan(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Nodes[0].Hash != hash {
			t.Fatalf("replan %d: table hash %.12s, first plan %.12s", rep, st.Nodes[0].Hash, hash)
		}
		if st.LastPush.Targets != 0 {
			t.Fatalf("replan %d re-pushed an unchanged table: %+v", rep, st.LastPush)
		}
	}
}

func TestAgentRejectsForeignTables(t *testing.T) {
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(AgentConfig{
		Node: "n1", Device: "titanx", Control: "http://unused",
		Store: store, Engine: newEngineFor(t, "titanx"), Serving: registry.NewServing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(node, device string) []byte {
		t.Helper()
		k := engine.TrainingKernels()[0]
		doc, err := budget.EncodeTable(&budget.DecisionTable{
			Node: node, Device: device,
			Budget: budget.Budget{Total: 1, Unit: budget.UnitPower}, Feasible: true,
			Entries: []budget.Entry{{
				Kernel: k.Name, Features: k.Features, Weight: 1,
				Decision: trainDecision(),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	for name, doc := range map[string][]byte{
		"wrong node":   mk("other", "titanx"),
		"wrong device": mk("n1", "p100"),
	} {
		if _, _, err := agent.InstallTable(doc); !errors.Is(err, budget.ErrBadTable) {
			t.Errorf("%s: got %v, want ErrBadTable", name, err)
		}
		r := httptest.NewRequest(http.MethodPost, "/fleet/decisions", strings.NewReader(string(doc)))
		w := httptest.NewRecorder()
		agent.HandleDecisions(w, r)
		if w.Code != http.StatusConflict {
			t.Errorf("%s: HTTP %d, want 409", name, w.Code)
		}
	}
	// Nothing installed after the rejections.
	if st := agent.Status(); st.Plan != "" {
		t.Fatalf("rejected table was installed: %+v", st)
	}
	r := httptest.NewRequest(http.MethodGet, "/fleet/decisions", nil)
	w := httptest.NewRecorder()
	agent.HandleDecisions(w, r)
	if w.Code != http.StatusNotFound {
		t.Fatalf("GET with no table: HTTP %d, want 404", w.Code)
	}
}

// trainDecision is a minimal valid budget decision for table fixtures.
func trainDecision() (d policy.Decision) {
	d.Policy.Name = budget.PolicyName
	d.Chosen.Config = freq.Config{Mem: 3505, Core: 1000}
	d.Chosen.Speedup = 1
	d.Chosen.NormEnergy = 1
	d.Feasible = true
	d.Candidates = 1
	return d
}

// TestSharedFrontTableStaysPristine pins that no reader mutates the front
// table the registry shares among every caller of the same snapshot: after
// replans and /select-path decisions over it, the active snapshot's table
// still equals a fresh decode of the document.
func TestSharedFrontTableStaysPristine(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	const kernels = 4
	man := publishFrontedN(t, c, "titanx", kernels)
	if _, err := c.Register(RegisterRequest{Node: "n1", Device: "titanx"}); err != nil {
		t.Fatal(err)
	}
	forward(t, c, "n1", "titanx", trainObs(0, 1, 1), trainObs(1, 1, 1), trainObs(1, 1, 1), trainObs(3, 1, 1))
	if _, err := c.SetBudget(context.Background(), budget.Budget{Total: 1}); err != nil {
		t.Fatal(err)
	}

	models, shared, _, err := c.Store().LoadFull("titanx", "")
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngineFor(t, "titanx")
	serving := registry.NewServing()
	serving.InstallWithFronts(man.Version, engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options()), shared)
	_, _, gov, _ := serving.Current()
	for _, k := range engine.TrainingKernels()[:kernels] {
		for _, p := range policy.Builtins() {
			if _, err := gov.Decide(k.Features, policy.Spec{Name: p.Name}); err != nil {
				t.Fatalf("%s/%s: %v", k.Name, p.Name, err)
			}
		}
	}
	if _, err := c.Replan(context.Background()); err != nil {
		t.Fatal(err)
	}

	doc, err := c.Store().ExportDoc("titanx", "")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ImportDoc(doc); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.LoadFronts("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Store().LoadFronts("titanx", "")
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != kernels || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(shared, want) {
		t.Fatal("the shared front table changed under replans and decisions")
	}
}
