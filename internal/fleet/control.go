// Package fleet splits the serving daemon into the resident-daemon
// topology the ROADMAP calls for: thin, memory-resident node agents that
// only serve (predict/batch/select/observe-forward/apply) and a central
// control plane that owns the model registries, fans published snapshots
// out to registered nodes, aggregates the fleet's observation streams, and
// runs drift detection plus guarded retraining per device fleet-wide.
//
// The wire format between the two halves is the registry's own snapshot
// document (registry.ExportDoc / registry.ImportDoc): a push or a
// bootstrap transfers the exact bytes the control plane's store holds, the
// embedded content hash lets every agent verify integrity independently,
// and an agent that installs a document serves bit-identically to every
// other agent holding the same hash. Registration doubles as the
// heartbeat: an agent reports what it serves, and the response carries the
// active snapshot only when the agent is stale — so convergence after a
// partition needs no extra protocol, just the next heartbeat (pull) or the
// next fan-out round (push).
//
// Cross-device bootstrap is a first-class registry operation: a node
// registering with a GPU profile the fleet has never published for is
// warm-started from the nearest schema-compatible donor model
// (gpu.ProfileDistance over the device profiles), exercising the paper's
// titanx↔p100 portability result. "Add a GPU type" then costs a snapshot
// transfer plus a guarded retrain instead of a cold fit; when no
// compatible donor exists the registration says so explicitly.
//
// The in-process multi-node harness and fault-injection helpers live in
// the fleettest subpackage; cmd/gpufreqd mounts the control plane's
// handlers in its default mode and runs an Agent in -agent mode.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/gpu"
	"repro/internal/httpjson"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/registry"
	"repro/internal/resilience"
)

// DefaultSyncInterval is the heartbeat interval the control plane
// advertises to agents when the configuration does not override it.
const DefaultSyncInterval = 15 * time.Second

// maxWireBody caps fleet request bodies (snapshot documents dominate;
// model sets at paper scale serialize well under this).
const maxWireBody = 64 << 20

// ControlConfig tunes a control plane. Zero values select the documented
// defaults; only the store (passed to NewControl) is required.
type ControlConfig struct {
	// Opts configures the per-device engines the control plane builds for
	// fleet-wide retraining and holdout evaluation.
	Opts engine.Options
	// Adapt configures the per-device adaptation controllers that aggregate
	// forwarded observations and run drift detection + guarded retrains.
	Adapt adapt.Config
	// TrainKernels overrides the training kernel list for fleet retrains
	// (nil = the full synthetic suite); tests use small subsets.
	TrainKernels []core.TrainingKernel
	// Trainer overrides how a device's candidate trainer is built (nil =
	// adapt.NewEngineTrainer over the device's engine); tests inject fakes.
	Trainer func(device string, eng *engine.Engine) adapt.Trainer
	// Client is the HTTP client snapshot pushes use (nil = a default with
	// a 10 s timeout). The fleettest harness injects a fault-injecting
	// transport here.
	Client *http.Client
	// SyncInterval is the heartbeat interval advertised to agents
	// (0 = DefaultSyncInterval).
	SyncInterval time.Duration
	// BreakerThreshold and BreakerCooldown tune the per-node push circuit
	// breakers (0 = resilience defaults): after BreakerThreshold consecutive
	// push failures a node is skipped by fan-out rounds until BreakerCooldown
	// elapses and a probe push succeeds.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MixShiftThreshold is the per-node kernel-mix L1 drift past which the
	// fleet budget replans automatically (0 = DefaultMixShiftThreshold;
	// negative disables automatic replanning — explicit POSTs still work).
	MixShiftThreshold float64
	// LocalDevice names the device the hosting process serves itself, if
	// any. Observations forwarded for it are routed to LocalObserve (the
	// host's own adaptation loop) instead of a fleet controller, and
	// Activate for it is delegated to LocalActivate, so one device never
	// has two competing retrain loops.
	LocalDevice string
	// LocalObserve ingests an observation for LocalDevice.
	LocalObserve func(adapt.Observation) (adapt.IngestResult, error)
	// LocalActivate activates a stored version for LocalDevice.
	LocalActivate func(version string) error
}

// withDefaults resolves the zero values.
func (c ControlConfig) withDefaults() ControlConfig {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
	return c
}

// nodeState is one registered node's bookkeeping, guarded by Control.mu.
type nodeState struct {
	info NodeInfo
	// mix accumulates the node's observed kernel mix (accepted forwarded
	// observations, keyed by static features) — the fleet budget governor's
	// per-node workload weights.
	mix map[features.Static]*mixEntry
}

// deviceState is the control plane's per-device serving-side state: the
// engine that retrains for the device, the predictor the adaptation
// controller evaluates against, and the controller itself. The control
// plane's LocalDevice has no deviceState — the hosting daemon owns it.
type deviceState struct {
	device string
	eng    *engine.Engine
	ctrl   *adapt.Controller

	mu      sync.RWMutex
	version string
	pred    *engine.Predictor
}

// current is the adapt Current dependency: the device's reference
// predictor and version.
func (ds *deviceState) current() (*engine.Predictor, string, bool) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.pred, ds.version, ds.pred != nil
}

// setModel swaps the device's reference predictor.
func (ds *deviceState) setModel(version string, pred *engine.Predictor) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.version, ds.pred = version, pred
}

// Control is the fleet control plane: the registry owner, node directory,
// snapshot fan-out, observation aggregator, and fleet-wide adaptation
// loop. All methods are safe for concurrent use.
type Control struct {
	store *registry.Store
	cfg   ControlConfig

	// breakers holds one push circuit breaker per node, so one dead agent
	// cannot slow every fan-out round down by its full connect timeout.
	breakers *resilience.BreakerSet

	mu    sync.Mutex
	nodes map[string]*nodeState
	devs  map[string]*deviceState
	// bud is the fleet budget governor's state (see budget.go).
	bud budgetState
}

// NewControl builds a control plane over a snapshot store (typically the
// hosting daemon's own registry, so locally trained versions and
// fleet-retrained versions live in one place).
func NewControl(store *registry.Store, cfg ControlConfig) *Control {
	cfg = cfg.withDefaults()
	return &Control{
		store: store,
		cfg:   cfg,
		breakers: &resilience.BreakerSet{
			FailureThreshold: cfg.BreakerThreshold,
			Cooldown:         cfg.BreakerCooldown,
		},
		nodes: map[string]*nodeState{},
		devs:  map[string]*deviceState{},
	}
}

// Store returns the registry the control plane owns.
func (c *Control) Store() *registry.Store { return c.store }

// deviceState returns (creating on first use) the per-device state for a
// non-local device; the device name must resolve to a known GPU profile.
func (c *Control) deviceState(device string) (*deviceState, error) {
	if device == c.cfg.LocalDevice && c.cfg.LocalDevice != "" {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ds, ok := c.devs[device]; ok {
		return ds, nil
	}
	dev, err := gpu.ByName(device)
	if err != nil {
		return nil, err
	}
	eng := engine.New(measure.NewHarness(nvml.NewDevice(dev)), c.cfg.Opts)
	ds := &deviceState{device: device, eng: eng}
	var trainer adapt.Trainer
	if c.cfg.Trainer != nil {
		trainer = c.cfg.Trainer(device, eng)
	} else {
		trainer = adapt.NewEngineTrainer(eng, c.cfg.TrainKernels)
	}
	ds.ctrl = adapt.New(c.cfg.Adapt, adapt.Deps{
		Device:  device,
		Store:   c.store,
		Current: ds.current,
		Install: func(version string, m *core.Models) error {
			return c.activateDevice(ds, version, m)
		},
		Trainer: trainer,
		Fronts: func(m *core.Models) *registry.Fronts {
			return registry.ComputeFronts(
				engine.NewPredictor(m, eng.Harness().Device().Sim().Ladder, eng.Options()),
				c.frontKernels())
		},
	})
	// Hydrate the reference predictor from the store so holdout comparison
	// and drift detection work across control-plane restarts.
	if models, _, man, err := c.store.LoadFull(device, ""); err == nil {
		ds.setModel(man.Version, engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options()))
	}
	c.devs[device] = ds
	return ds, nil
}

// frontKernels is the kernel list publish-time fronts are swept over.
func (c *Control) frontKernels() []core.TrainingKernel {
	if c.cfg.TrainKernels != nil {
		return c.cfg.TrainKernels
	}
	return engine.TrainingKernels()
}

// activateDevice activates a version for a fleet-managed device — store
// pointer, reference predictor, then fan-out — as one step. It is the
// Install dependency of the device's adaptation controller.
func (c *Control) activateDevice(ds *deviceState, version string, m *core.Models) error {
	if err := c.store.Activate(ds.device, version); err != nil {
		return err
	}
	ds.setModel(version, engine.NewPredictor(m, ds.eng.Harness().Device().Sim().Ladder, ds.eng.Options()))
	c.PushDevice(context.Background(), ds.device)
	// A new active snapshot means new front tables: the fleet budget plan
	// (if one is set) is re-solved and re-pushed alongside the fan-out.
	c.maybeReplan(context.Background())
	return nil
}

// Activate loads, verifies, activates, and fans out a stored version for
// any device — the fleet analogue of the daemon's /models/{id}/activate
// for devices the control plane does not serve locally. For LocalDevice it
// delegates to the hosting daemon's activation path.
func (c *Control) Activate(ctx context.Context, device, version string) error {
	if device == c.cfg.LocalDevice && c.cfg.LocalActivate != nil {
		return c.cfg.LocalActivate(version)
	}
	ds, err := c.deviceState(device)
	if err != nil {
		return err
	}
	models, man, err := c.store.Load(device, version)
	if err != nil {
		return err
	}
	if ds == nil {
		// Local device without a LocalActivate hook: store-only activation.
		return c.store.Activate(device, man.Version)
	}
	return c.activateDevice(ds, man.Version, models)
}

// Register enrolls (or heartbeats) a node and decides what, if anything,
// it should install — see RegisterRequest/RegisterResponse for the
// protocol. Besides the snapshot, the response carries the node's fleet
// decision table when its reported plan hash is stale.
func (c *Control) Register(req RegisterRequest) (RegisterResponse, error) {
	resp, err := c.registerSnapshot(req)
	if err != nil {
		return resp, err
	}
	c.budgetHeartbeat(req.Node, req.Plan, &resp)
	return resp, nil
}

// registerSnapshot is the snapshot half of Register: enrollment, staleness
// check, cross-device bootstrap.
func (c *Control) registerSnapshot(req RegisterRequest) (RegisterResponse, error) {
	if req.Node == "" || req.Device == "" {
		return RegisterResponse{}, errors.New("fleet: register needs node and device")
	}
	if _, err := gpu.ByName(req.Device); err != nil {
		return RegisterResponse{}, fmt.Errorf("fleet: %v", err)
	}
	if _, err := c.deviceState(req.Device); err != nil {
		return RegisterResponse{}, err
	}

	now := time.Now().UTC()
	c.mu.Lock()
	ns, ok := c.nodes[req.Node]
	if !ok {
		ns = &nodeState{info: NodeInfo{Node: req.Node, RegisteredAt: now}}
		c.nodes[req.Node] = ns
	}
	ns.info.Device = req.Device
	if req.Addr != "" {
		ns.info.Addr = req.Addr
	}
	ns.info.Version, ns.info.Hash = req.Version, req.Hash
	ns.info.Plan = req.Plan
	ns.info.LastSeen = now
	c.mu.Unlock()

	resp := RegisterResponse{Node: req.Node, Device: req.Device, SyncSeconds: c.cfg.SyncInterval.Seconds()}
	st, active := c.store.ActiveState(req.Device)
	if active {
		resp.Active = st.Version
		man, err := c.store.GetManifest(req.Device, st.Version)
		if err != nil {
			return resp, fmt.Errorf("fleet: active snapshot %s/%s: %w", req.Device, st.Version, err)
		}
		if man.Hash != req.Hash {
			doc, err := c.store.ExportDoc(req.Device, st.Version)
			if err != nil {
				return resp, fmt.Errorf("fleet: exporting %s/%s: %w", req.Device, st.Version, err)
			}
			resp.Snapshot = doc
		}
		return resp, nil
	}

	// No published model for this device: offer a cross-device bootstrap
	// from the nearest schema-compatible donor — or say explicitly that
	// none exists.
	donor, version, dist, err := c.nearest(req.Device)
	if err != nil {
		resp.BootstrapError = err.Error()
		return resp, nil
	}
	man, err := c.store.GetManifest(donor, version)
	if err != nil {
		resp.BootstrapError = err.Error()
		return resp, nil
	}
	if man.Hash == req.Hash {
		return resp, nil // agent already serves the donor snapshot
	}
	doc, err := c.store.ExportDoc(donor, version)
	if err != nil {
		resp.BootstrapError = err.Error()
		return resp, nil
	}
	resp.Snapshot = doc
	resp.Bootstrap = &BootstrapInfo{Donor: donor, Version: version, Distance: dist}
	c.seedBaseline(req.Device, donor, version)
	return resp, nil
}

// nearest finds the closest donor device for target by profile distance.
func (c *Control) nearest(target string) (device, version string, dist float64, err error) {
	targetDev, err := gpu.ByName(target)
	if err != nil {
		return "", "", 0, err
	}
	return c.store.Nearest(target, func(candidate string) (float64, bool) {
		d, err := gpu.ByName(candidate)
		if err != nil {
			return 0, false
		}
		return gpu.ProfileDistance(targetDev, d), true
	})
}

// seedBaseline points a bootstrapped device's reference predictor at the
// donor's models (over the device's own ladder), so forwarded
// observations immediately feed drift detection and the first guarded
// retrain has an active model to beat on the holdout.
func (c *Control) seedBaseline(device, donor, version string) {
	ds, err := c.deviceState(device)
	if err != nil || ds == nil {
		return
	}
	if _, _, ok := ds.current(); ok {
		return
	}
	models, man, err := c.store.Load(donor, version)
	if err != nil {
		return
	}
	ds.setModel(man.Version, engine.NewPredictor(models, ds.eng.Harness().Device().Sim().Ladder, ds.eng.Options()))
}

// Observe ingests a batch of observations forwarded by one agent,
// stamping each with the reporting node and routing it to the device's
// fleet controller (or the hosting daemon's own loop for LocalDevice).
func (c *Control) Observe(req ObserveRequest) (ObserveResponse, error) {
	if req.Device == "" {
		return ObserveResponse{}, errors.New("fleet: observe needs a device")
	}
	ingest := c.cfg.LocalObserve
	var ds *deviceState
	if req.Device != c.cfg.LocalDevice || c.cfg.LocalObserve == nil {
		var err error
		if ds, err = c.deviceState(req.Device); err != nil {
			return ObserveResponse{}, err
		}
		if ds == nil {
			return ObserveResponse{}, fmt.Errorf("fleet: no observation sink for %s", req.Device)
		}
		ingest = ds.ctrl.Observe
	}
	resp := ObserveResponse{Device: req.Device, Results: make([]ObserveResult, len(req.Observations))}
	for i, o := range req.Observations {
		o.Node = req.Node
		res, err := ingest(o)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		r := res
		resp.Results[i].Ingest = &r
	}
	if ds != nil {
		resp.Store = ds.ctrl.StoreStats()
	}
	// Fold the accepted observations into the node's kernel mix and replan
	// the fleet budget if the mix drifted past the threshold.
	c.recordMix(req.Node, req.Observations, resp.Results)
	c.checkMixShift(context.Background())
	return resp, nil
}

// AdaptStatus returns the fleet adaptation controller's status for a
// device managed by the control plane (ok=false for LocalDevice or a
// device no node has registered for).
func (c *Control) AdaptStatus(device string) (adapt.Status, bool) {
	c.mu.Lock()
	ds, ok := c.devs[device]
	c.mu.Unlock()
	if !ok {
		return adapt.Status{}, false
	}
	return ds.ctrl.Status(), true
}

// Nodes lists the registered nodes, sorted by node id, with their sync
// verdict against the current active snapshots.
func (c *Control) Nodes() []NodeInfo {
	c.mu.Lock()
	out := make([]NodeInfo, 0, len(c.nodes))
	for _, ns := range c.nodes {
		out = append(out, ns.info)
	}
	c.mu.Unlock()
	for i := range out {
		out[i].Synced = true
		if st, ok := c.store.ActiveState(out[i].Device); ok {
			man, err := c.store.GetManifest(out[i].Device, st.Version)
			out[i].Synced = err == nil && man.Hash == out[i].Hash
		}
		out[i].Breaker = c.breakers.State(out[i].Node)
	}
	sortNodes(out)
	return out
}

// sortNodes orders node listings by id for deterministic output.
func sortNodes(nodes []NodeInfo) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j].Node < nodes[j-1].Node; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}

// PushDevice fans the device's active snapshot out to every registered
// node of that device whose reported hash differs, concurrently, and
// reports the round. Nodes that cannot be reached stay stale and are
// retried by the next heartbeat or push round; a fan-out never fails an
// activation.
func (c *Control) PushDevice(ctx context.Context, device string) PushReport {
	report := PushReport{Device: device}
	st, ok := c.store.ActiveState(device)
	if !ok {
		return report
	}
	man, err := c.store.GetManifest(device, st.Version)
	if err != nil {
		report.Errors = append(report.Errors, fmt.Sprintf("%s: %v", device, err))
		return report
	}
	doc, err := c.store.ExportDoc(device, st.Version)
	if err != nil {
		report.Errors = append(report.Errors, fmt.Sprintf("%s: %v", device, err))
		return report
	}

	c.mu.Lock()
	var stale []pushTarget
	for _, ns := range c.nodes {
		if ns.info.Device == device && ns.info.Hash != man.Hash && ns.info.Addr != "" {
			stale = append(stale, pushTarget{node: ns.info.Node, addr: ns.info.Addr, doc: doc})
		}
	}
	c.mu.Unlock()

	report = c.fanOut(ctx, "/fleet/snapshot", "push", stale, func(n *NodeInfo, ack pushAck) {
		n.Version, n.Hash = ack.Version, ack.Hash
	})
	report.Device = device
	return report
}

// PushAll runs a fan-out round for every device that has an active
// snapshot — the operator-triggered "re-sync the fleet" action behind
// POST /fleet/push.
func (c *Control) PushAll(ctx context.Context) PushReport {
	devices, err := c.store.Devices()
	report := PushReport{}
	if err != nil {
		report.Errors = append(report.Errors, err.Error())
		return report
	}
	for _, d := range devices {
		r := c.PushDevice(ctx, d)
		report.Targets += r.Targets
		report.Pushed += r.Pushed
		report.Skipped += r.Skipped
		report.Errors = append(report.Errors, r.Errors...)
	}
	return report
}

// HandleRegister is the HTTP form of Register (POST /fleet/register).
func (c *Control) HandleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !httpjson.Read(w, r, maxWireBody, &req) {
		return
	}
	resp, err := c.Register(req)
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpjson.Write(w, http.StatusOK, resp)
}

// HandleObserve is the HTTP form of Observe (POST /fleet/observe).
func (c *Control) HandleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if !httpjson.Read(w, r, maxWireBody, &req) {
		return
	}
	if len(req.Observations) == 0 {
		httpjson.Error(w, http.StatusBadRequest, "no observations in request")
		return
	}
	resp, err := c.Observe(req)
	if err != nil {
		httpjson.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	httpjson.Write(w, http.StatusOK, resp)
}

// HandleNodes is GET /fleet/nodes.
func (c *Control) HandleNodes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpjson.Error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	httpjson.Write(w, http.StatusOK, NodesResponse{Nodes: c.Nodes()})
}

// HandlePush is POST /fleet/push: re-fan-out every device's active
// snapshot to its stale nodes.
func (c *Control) HandlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.Error(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	httpjson.Write(w, http.StatusOK, c.PushAll(r.Context()))
}
