package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/registry"
)

// agentRig is an -agent mode server wired to a running control-plane
// server over real loopback HTTP, as runAgent would assemble it.
type agentRig struct {
	server *server
	url    string
}

// newAgentRig builds an agent-mode server for a device and registers it
// against the control server's URL. The agent's own listener is live
// before the first sync so control-plane pushes can reach it.
func newAgentRig(t *testing.T, deviceName, controlURL string) *agentRig {
	t.Helper()
	dev, err := device(deviceName)
	if err != nil {
		t.Fatal(err)
	}
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(measure.NewHarness(nvml.NewDevice(dev)), engine.Options{
		Workers: 4,
		Core:    core.Options{SettingsPerKernel: 4},
	})
	s := newAgentServer(eng, store, deviceName, planeLimits{})
	srv := httptest.NewServer(s.mux)
	t.Cleanup(srv.Close)
	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Node:    "agent-" + deviceName,
		Addr:    srv.URL,
		Device:  deviceName,
		Control: controlURL,
		Store:   store,
		Engine:  eng,
		Serving: s.serving,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.agent = agent
	return &agentRig{server: s, url: srv.URL}
}

// TestAgentModeServesAndForwards drives the full daemon-level fleet path:
// a control-plane server trains and publishes, an agent-mode server
// syncs, serves /predict from the pushed snapshot, reports its fleet
// state on /healthz, forwards /observe upstream into the control plane's
// adaptation loop, and refuses the management surface it does not have.
func TestAgentModeServesAndForwards(t *testing.T) {
	ctl := testServer(t)
	trainWait(t, ctl, "")
	ctlSrv := httptest.NewServer(ctl.mux)
	defer ctlSrv.Close()

	rig := newAgentRig(t, "titanx", ctlSrv.URL)
	if err := syncAgent(rig); err != nil {
		t.Fatalf("agent sync: %v", err)
	}

	// The agent serves predictions from the installed snapshot.
	rec := post(t, rig.server, "/predict", `{"source": `+jsonStr(saxpy)+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("agent /predict status %d: %s", rec.Code, rec.Body)
	}
	var pr predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ModelVersion != ctl.serving.Version() {
		t.Fatalf("agent serves %q, control plane serves %q", pr.ModelVersion, ctl.serving.Version())
	}
	if len(pr.Results) != 1 || len(pr.Results[0].Pareto) == 0 {
		t.Fatalf("agent prediction empty: %+v", pr.Results)
	}

	// /healthz reports the fleet sync state.
	rec = get(t, rig.server, "/healthz")
	var health healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Fleet == nil || health.Fleet.Hash == "" || health.Fleet.Installs != 1 {
		t.Fatalf("agent /healthz fleet state: %+v", health.Fleet)
	}

	// /observe on the agent forwards into the control plane's own
	// adaptation loop (the agent's device is the control plane's
	// LocalDevice), so the control plane's store counts it.
	rec = post(t, rig.server, "/observe",
		`{"source": `+jsonStr(saxpy)+`, "config": {"mem": 3505, "core": 1000}, "speedup": 0.97, "norm_energy": 0.93}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("agent /observe status %d: %s", rec.Code, rec.Body)
	}
	var obs observeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &obs); err != nil {
		t.Fatal(err)
	}
	if len(obs.Results) != 1 || obs.Results[0].Error != "" || obs.Results[0].Ingest == nil {
		t.Fatalf("forwarded observation rejected: %+v", obs.Results)
	}
	if got := ctl.adapt.StoreStats().Count; got != 1 {
		t.Fatalf("control plane's store holds %d observations, want 1", got)
	}
	if n := ctl.adapt.StoreStats().Nodes["agent-titanx"]; n != 1 {
		t.Fatalf("observation not attributed to the forwarding node: %+v", ctl.adapt.StoreStats().Nodes)
	}

	// The agent has no training or registry-management surface.
	for _, path := range []string{"/train", "/models", "/adapt/status", "/fleet/nodes"} {
		rec := get(t, rig.server, path)
		if rec.Code != http.StatusNotFound {
			t.Errorf("agent %s status %d, want 404", path, rec.Code)
		}
	}

	// The control plane's directory lists the agent as synced once its
	// next heartbeat reports the installed hash: the register that carried
	// the snapshot reported the agent's pre-install (empty) hash.
	if err := syncAgent(rig); err != nil {
		t.Fatalf("agent heartbeat: %v", err)
	}
	rec = get(t, ctl, "/fleet/nodes")
	if rec.Code != http.StatusOK {
		t.Fatalf("/fleet/nodes status %d: %s", rec.Code, rec.Body)
	}
	var nodes fleet.NodesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes.Nodes) != 1 || nodes.Nodes[0].Node != "agent-titanx" || !nodes.Nodes[0].Synced {
		t.Fatalf("node directory: %+v", nodes.Nodes)
	}
}

// TestAgentRefusesTamperedPush pins the agent's wire-integrity check at
// the daemon level: a bit-flipped snapshot POSTed to /fleet/snapshot is
// refused with 409 Conflict and the serving model is untouched.
func TestAgentRefusesTamperedPush(t *testing.T) {
	ctl := testServer(t)
	trainWait(t, ctl, "")
	ctlSrv := httptest.NewServer(ctl.mux)
	defer ctlSrv.Close()

	rig := newAgentRig(t, "titanx", ctlSrv.URL)
	if err := syncAgent(rig); err != nil {
		t.Fatal(err)
	}
	before := rig.server.serving.Version()

	doc, err := ctl.store.ExportDoc("titanx", "")
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(doc), `"coefs": [`, `"coefs": [0,`, 1)
	if tampered == string(doc) {
		t.Fatal("tamper marker not found in the snapshot document")
	}
	resp, err := http.Post(rig.url+"/fleet/snapshot", "application/json", strings.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict || !strings.Contains(e.Error, "corrupt") {
		t.Fatalf("tampered push: %d %q, want 409 naming corruption", resp.StatusCode, e.Error)
	}
	if got := rig.server.serving.Version(); got != before {
		t.Fatalf("tampered push changed serving from %q to %q", before, got)
	}
}

// TestActivateFansOutToAgents verifies the daemon-side push trigger: an
// HTTP activation on the control plane fans the snapshot out to a
// registered agent in the background.
func TestActivateFansOutToAgents(t *testing.T) {
	ctl := testServer(t)
	first := trainWait(t, ctl, "")
	// A different settings count yields different models (and a different
	// content hash), so the push below is a real install, not a no-op.
	// 16 clears the sampler's per-ladder minimum, which the default 4 is
	// clamped up to.
	second := trainWait(t, ctl, `{"settings": 16}`)
	if first.Version == second.Version || first.Manifest.Hash == second.Manifest.Hash {
		t.Fatal("expected two distinct snapshots")
	}
	ctlSrv := httptest.NewServer(ctl.mux)
	defer ctlSrv.Close()

	rig := newAgentRig(t, "titanx", ctlSrv.URL)
	if err := syncAgent(rig); err != nil {
		t.Fatal(err)
	}
	if got := rig.server.serving.Version(); got != second.Version {
		t.Fatalf("agent synced to %q, want the active %q", got, second.Version)
	}

	// Re-activate the first version over HTTP; the fan-out goroutine
	// pushes it to the agent.
	rec := post(t, ctl, "/models/"+first.Version+"/activate", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("activate status %d: %s", rec.Code, rec.Body)
	}
	// The install re-verifies the document hash and rebuilds a predictor,
	// which takes several seconds under the race detector on a 1-vCPU
	// runner (~6 s observed), so the budget is generous.
	deadline := time.Now().Add(60 * time.Second)
	for rig.server.serving.Version() != first.Version {
		if time.Now().After(deadline) {
			t.Fatalf("agent still serves %q, want pushed %q", rig.server.serving.Version(), first.Version)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// syncAgent runs one agent heartbeat with a short timeout.
func syncAgent(rig *agentRig) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := rig.server.agent.Sync(ctx)
	return err
}
