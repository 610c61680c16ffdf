package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/registry"
	"repro/internal/svm"
)

// constModels builds a support-vector-free model set predicting exactly
// (speedup, energy) everywhere — cheap, deterministic, schema-valid.
func constModels(t *testing.T, speedup, energy float64) *core.Models {
	t.Helper()
	build := func(b float64) *svm.Model {
		doc := `{"kernel":{"type":"linear"},"support_vectors":[],"coefs":[],"b":` +
			strconv.FormatFloat(b, 'g', -1, 64) + `}`
		m, err := svm.Load(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return &core.Models{Speedup: build(speedup), Energy: build(energy)}
}

// newEngineFor builds a small engine over the named device profile.
func newEngineFor(t *testing.T, device string) *engine.Engine {
	t.Helper()
	dev, err := gpu.ByName(device)
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(measure.NewHarness(nvml.NewDevice(dev)), engine.Options{
		Workers: 1,
		Core:    core.Options{SettingsPerKernel: 2},
	})
}

// publishConst saves a constant model set for a device and activates it.
func publishConst(t *testing.T, store *registry.Store, device string, speedup, energy float64) registry.Manifest {
	t.Helper()
	man, err := store.Save(device, "", constModels(t, speedup, energy), registry.Training{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate(device, man.Version); err != nil {
		t.Fatal(err)
	}
	return man
}

// obsFor builds a valid observation with the given measured objectives.
func obsFor(speedup, energy float64) adapt.Observation {
	var st features.Static
	st[0] = 0.5
	return adapt.Observation{
		Kernel:     "k",
		Features:   st,
		Config:     freq.Config{Mem: 3505, Core: 1000},
		Speedup:    speedup,
		NormEnergy: energy,
	}
}

// fakeTrainer returns fixed candidate models without any real training.
type fakeTrainer struct{ models *core.Models }

func (f fakeTrainer) Fit(ctx context.Context, extra []core.Sample, prior *core.Models) (*core.Models, registry.Training, error) {
	return f.models, registry.Training{Observations: len(extra)}, nil
}

// newControl builds a control plane over a memory store with a fake
// trainer and a tiny front-sweep kernel set.
func newControl(t *testing.T, candidate *core.Models, cfg adapt.Config) *Control {
	t.Helper()
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return NewControl(store, ControlConfig{
		Opts:         engine.Options{Workers: 1, Core: core.Options{SettingsPerKernel: 2}},
		Adapt:        cfg,
		TrainKernels: engine.TrainingKernels()[:2],
		Trainer: func(string, *engine.Engine) adapt.Trainer {
			return fakeTrainer{models: candidate}
		},
	})
}

func TestRegisterValidation(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	if _, err := c.Register(RegisterRequest{Device: "titanx"}); err == nil {
		t.Error("register without a node id accepted")
	}
	if _, err := c.Register(RegisterRequest{Node: "n1"}); err == nil {
		t.Error("register without a device accepted")
	}
	if _, err := c.Register(RegisterRequest{Node: "n1", Device: "gtx9000"}); err == nil {
		t.Error("register with an unknown device profile accepted")
	}
}

func TestRegisterHandsSnapshotOnlyWhenStale(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	man := publishConst(t, c.Store(), "titanx", 1, 1)

	// A fresh node gets the active snapshot.
	resp, err := c.Register(RegisterRequest{Node: "n1", Addr: "http://127.0.0.1:1", Device: "titanx"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Active != man.Version || len(resp.Snapshot) == 0 || resp.Bootstrap != nil {
		t.Fatalf("fresh-node response: active=%q snapshot=%dB bootstrap=%v",
			resp.Active, len(resp.Snapshot), resp.Bootstrap)
	}
	if resp.SyncSeconds <= 0 {
		t.Errorf("SyncSeconds = %v, want the advertised heartbeat interval", resp.SyncSeconds)
	}

	// A node already serving the active hash gets an acknowledgement only.
	resp, err = c.Register(RegisterRequest{Node: "n1", Device: "titanx", Version: man.Version, Hash: man.Hash})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Snapshot) != 0 {
		t.Fatalf("up-to-date heartbeat still got a %dB snapshot", len(resp.Snapshot))
	}

	nodes := c.Nodes()
	if len(nodes) != 1 || !nodes[0].Synced || nodes[0].Hash != man.Hash {
		t.Fatalf("nodes after heartbeat: %+v", nodes)
	}
}

func TestRegisterBootstrapsFromNearestDonor(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	man := publishConst(t, c.Store(), "titanx", 1, 1)

	resp, err := c.Register(RegisterRequest{Node: "p1", Device: "p100"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Snapshot) == 0 || resp.Bootstrap == nil {
		t.Fatalf("no bootstrap offered: %+v", resp)
	}
	if resp.Bootstrap.Donor != "titanx" || resp.Bootstrap.Version != man.Version {
		t.Fatalf("bootstrap = %+v, want titanx/%s", resp.Bootstrap, man.Version)
	}
	if resp.Bootstrap.Distance <= 0 {
		t.Errorf("distance = %g, want > 0 for distinct profiles", resp.Bootstrap.Distance)
	}
	if resp.Active != "" {
		t.Errorf("Active = %q, want empty: p100 has no published model", resp.Active)
	}

	// The bootstrap seeds the fleet controller's baseline, so forwarded
	// p100 observations immediately feed drift detection.
	oresp, err := c.Observe(ObserveRequest{Node: "p1", Device: "p100",
		Observations: []adapt.Observation{obsFor(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if oresp.Results[0].Error != "" || oresp.Results[0].Ingest == nil || !oresp.Results[0].Ingest.Stored {
		t.Fatalf("post-bootstrap observation not ingested: %+v", oresp.Results[0])
	}
}

func TestRegisterNoDonorIsExplicit(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	resp, err := c.Register(RegisterRequest{Node: "p1", Device: "p100"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.BootstrapError == "" || !strings.Contains(resp.BootstrapError, "no compatible donor") {
		t.Fatalf("BootstrapError = %q, want an explicit no-donor explanation", resp.BootstrapError)
	}
	if len(resp.Snapshot) != 0 {
		t.Fatal("a snapshot was handed out despite no donor")
	}
	// The registration itself still stands: the node is enrolled and will
	// receive the device's first published snapshot.
	if nodes := c.Nodes(); len(nodes) != 1 || nodes[0].Node != "p1" {
		t.Fatalf("nodes = %+v, want the registration to stand", nodes)
	}
}

func TestObserveStampsNodesAndAggregates(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	publishConst(t, c.Store(), "titanx", 1, 1)
	for _, n := range []string{"n1", "n1", "n2"} {
		resp, err := c.Observe(ObserveRequest{Node: n, Device: "titanx",
			Observations: []adapt.Observation{obsFor(1, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Results[0].Error != "" {
			t.Fatalf("node %s observation rejected: %s", n, resp.Results[0].Error)
		}
	}
	st, ok := c.AdaptStatus("titanx")
	if !ok {
		t.Fatal("no fleet adapt status for titanx")
	}
	if st.Store.Count != 3 || st.Store.Nodes["n1"] != 2 || st.Store.Nodes["n2"] != 1 {
		t.Fatalf("aggregated store stats: %+v", st.Store)
	}

	// Invalid observations are rejected per item, not per batch.
	bad := obsFor(1, 1)
	bad.Speedup = -1
	resp, err := c.Observe(ObserveRequest{Node: "n1", Device: "titanx",
		Observations: []adapt.Observation{bad, obsFor(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error == "" || resp.Results[1].Error != "" {
		t.Fatalf("per-item verdicts: %+v", resp.Results)
	}
}

func TestFleetRetrainActivatesAndFansOut(t *testing.T) {
	// The fleet controller for titanx sees drifting observations, retrains
	// with the (fake) trainer, passes the holdout, activates v0002 — and the
	// fan-out delivers it to the registered agent.
	c := newControl(t, constModels(t, 0.5, 0.5), adapt.Config{
		Auto: true, Sync: true, MinSamples: 4,
		BaselineSpeedup: 0.02, BaselineEnergy: 0.02, Cooldown: time.Hour,
	})
	man := publishConst(t, c.Store(), "titanx", 1, 1)

	// A push-reachable agent serving v0001.
	ag := newAgentRig(t, "titanx", "http://unused")
	srv := httptest.NewServer(http.HandlerFunc(ag.agent.HandleSnapshot))
	defer srv.Close()
	if _, err := c.Register(RegisterRequest{Node: "n1", Addr: srv.URL, Device: "titanx",
		Version: man.Version, Hash: man.Hash}); err != nil {
		t.Fatal(err)
	}
	doc, err := c.Store().ExportDoc("titanx", man.Version)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ag.agent.InstallDoc(doc); err != nil {
		t.Fatal(err)
	}

	// Drifting observations (measured 0.5 vs predicted 1.0) trigger the
	// guarded retrain; Sync mode runs it inline.
	for i := 0; i < 8; i++ {
		resp, err := c.Observe(ObserveRequest{Node: "n1", Device: "titanx",
			Observations: []adapt.Observation{obsFor(0.5, 0.5)}})
		if err != nil {
			t.Fatal(err)
		}
		if e := resp.Results[0].Error; e != "" {
			t.Fatalf("observation %d rejected: %s", i, e)
		}
	}

	st, ok := c.AdaptStatus("titanx")
	if !ok || st.Retrain.Retrains != 1 || st.Retrain.LastOutcome != adapt.OutcomeActivated {
		t.Fatalf("fleet retrain state: %+v", st.Retrain)
	}
	active, ok := c.Store().ActiveState("titanx")
	if !ok || active.Version != "v0002" {
		t.Fatalf("active = %q (ok=%v), want v0002", active.Version, ok)
	}
	// The activation fan-out reached the agent.
	if got := ag.serving.Version(); got != "v0002" {
		t.Fatalf("agent serves %q after fan-out, want v0002", got)
	}
	nodes := c.Nodes()
	if len(nodes) != 1 || !nodes[0].Synced || nodes[0].Pushes != 1 || nodes[0].PushErrors != 0 {
		t.Fatalf("node accounting after fan-out: %+v", nodes)
	}
}

func TestPushDeviceRecordsUnreachableNodes(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	man := publishConst(t, c.Store(), "titanx", 1, 1)
	// The node's address points at a closed port.
	if _, err := c.Register(RegisterRequest{Node: "dead", Addr: "http://127.0.0.1:1", Device: "titanx"}); err != nil {
		t.Fatal(err)
	}
	report := c.PushDevice(context.Background(), "titanx")
	if report.Targets != 1 || report.Pushed != 0 || len(report.Errors) != 1 {
		t.Fatalf("push report: %+v", report)
	}
	nodes := c.Nodes()
	if nodes[0].PushErrors != 1 || nodes[0].LastError == "" || nodes[0].Synced {
		t.Fatalf("node accounting after failed push: %+v", nodes)
	}
	_ = man

	// A device with no active snapshot is a no-op round.
	if r := c.PushDevice(context.Background(), "p100"); r.Targets != 0 || len(r.Errors) != 0 {
		t.Fatalf("no-snapshot push report: %+v", r)
	}
}

func TestActivateFansOutStoredVersion(t *testing.T) {
	c := newControl(t, constModels(t, 1, 1), adapt.Config{})
	publishConst(t, c.Store(), "titanx", 1, 1)
	man2, err := c.Store().Save("titanx", "", constModels(t, 2, 2), registry.Training{})
	if err != nil {
		t.Fatal(err)
	}

	ag := newAgentRig(t, "titanx", "http://unused")
	srv := httptest.NewServer(http.HandlerFunc(ag.agent.HandleSnapshot))
	defer srv.Close()
	if _, err := c.Register(RegisterRequest{Node: "n1", Addr: srv.URL, Device: "titanx"}); err != nil {
		t.Fatal(err)
	}

	if err := c.Activate(context.Background(), "titanx", man2.Version); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Store().ActiveState("titanx"); st.Version != man2.Version {
		t.Fatalf("active = %q, want %q", st.Version, man2.Version)
	}
	if got := ag.serving.Version(); got != man2.Version {
		t.Fatalf("agent serves %q after Activate fan-out, want %q", got, man2.Version)
	}
}
