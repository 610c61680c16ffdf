package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/resilience"
)

// DefaultDegradedAfter is how long the control plane must be continuously
// unreachable before the agent flags itself degraded on /healthz.
const DefaultDegradedAfter = 3 * DefaultSyncInterval

// spoolFlushBatch bounds one forwarding RPC during a spool flush.
const spoolFlushBatch = 64

// AgentConfig wires a node agent to its serving stack and its control
// plane. Node, Device, Control, Store, Engine, and Serving are required.
type AgentConfig struct {
	// Node is this agent's unique id within the fleet.
	Node string
	// Addr is the base URL the control plane can push snapshots to
	// ("" disables push; the agent then converges by heartbeat pull only).
	Addr string
	// Device is the GPU profile this agent serves.
	Device string
	// Control is the control plane's base URL.
	Control string
	// Client is the HTTP client for register/observe calls (nil = a
	// default with a 10 s timeout). The fleettest harness injects a
	// fault-injecting transport here.
	Client *http.Client
	// Store is the agent's local snapshot cache — typically memory-mode,
	// matching the "memory-resident serving path" the agent keeps.
	Store *registry.Store
	// Engine supplies the agent's ladder and prediction options; installed
	// models are also set on it so diagnostic paths see them.
	Engine *engine.Engine
	// Serving is the hot-swap holder the agent's read plane serves from.
	Serving *registry.Serving
	// Spool queues observations that fail to forward until the control
	// plane is reachable again (nil = an in-memory spool; cmd/gpufreqd
	// wires a disk-backed one via -spool-dir). Nothing is ever dropped:
	// a failed forward enqueues, a successful sync flushes in order.
	Spool *adapt.Spool
	// Retry is the backoff policy shared by observation forwarding (full
	// Do with retries) and the heartbeat loop (Backoff between failed
	// syncs). The zero value uses the resilience defaults.
	Retry resilience.Retryer
	// DegradedAfter flags the agent degraded once the control plane has
	// been continuously unreachable this long (0 = DefaultDegradedAfter).
	DegradedAfter time.Duration
}

// AgentStatus is the agent's fleet-sync state, reported on /healthz in
// agent mode.
type AgentStatus struct {
	// Node, Device, and Control echo the configuration.
	Node    string `json:"node"`
	Device  string `json:"device"`
	Control string `json:"control"`
	// Version and Hash identify the installed snapshot ("" before the
	// first install).
	Version string `json:"version,omitempty"`
	Hash    string `json:"hash,omitempty"`
	// Bootstrap is set when the installed snapshot came from a
	// cross-device warm start.
	Bootstrap *BootstrapInfo `json:"bootstrap,omitempty"`
	// Syncs counts completed register/heartbeat round trips; Installs
	// counts snapshot installs (heartbeat pulls and pushes alike).
	Syncs    int `json:"syncs"`
	Installs int `json:"installs"`
	// LastSync is when the last heartbeat round trip succeeded.
	LastSync time.Time `json:"last_sync,omitempty"`
	// LastError is the most recent sync failure ("" after a success).
	LastError string `json:"last_error,omitempty"`
	// Plan is the content hash of the installed fleet decision table (""
	// when the control plane has not budgeted this node); PlanEntries its
	// kernel count.
	Plan        string `json:"plan,omitempty"`
	PlanEntries int    `json:"plan_entries,omitempty"`
	// Spool is the forward spool's accounting: SpoolDepth observations are
	// queued awaiting a reachable control plane.
	Spool adapt.SpoolStats `json:"spool"`
	// SyncBackoffSeconds is the jittered wait before the next heartbeat
	// while syncs are failing (0 when healthy — the loop runs on the
	// regular interval).
	SyncBackoffSeconds float64 `json:"sync_backoff_seconds,omitempty"`
	// FailingSince is when the current run of sync failures started (zero
	// when the last sync succeeded); Degraded is set once that run exceeds
	// the configured threshold.
	FailingSince time.Time `json:"failing_since,omitempty"`
	Degraded     bool      `json:"degraded"`
}

// Agent is the node-side half of the fleet: it registers with (and
// heartbeats to) the control plane, installs pushed or pulled snapshot
// documents into its local store and hot-swap holder, and forwards
// locally reported observations upstream. It never trains. All methods
// are safe for concurrent use; installs serialize against each other but
// never block the serving read path (registry.Serving swaps atomically).
type Agent struct {
	cfg AgentConfig

	flushMu sync.Mutex // serializes spool flushes so delivery stays in order

	mu           sync.Mutex
	version      string
	hash         string
	bootstrap    *BootstrapInfo
	table        *budget.DecisionTable // installed fleet decision table
	tableDoc     []byte                // its exact wire document
	planHash     string                // its content hash ("" before install)
	syncs        int
	installs     int
	lastSync     time.Time
	lastError    string
	failingSince time.Time     // start of the current run of sync failures
	backoff      time.Duration // current failure backoff (0 when healthy)
}

// NewAgent validates the configuration and returns an agent; no network
// traffic happens until Sync or Run.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	switch {
	case cfg.Node == "":
		return nil, errors.New("fleet: agent needs a node id")
	case cfg.Device == "":
		return nil, errors.New("fleet: agent needs a device")
	case cfg.Control == "":
		return nil, errors.New("fleet: agent needs a control plane URL")
	case cfg.Store == nil || cfg.Engine == nil || cfg.Serving == nil:
		return nil, errors.New("fleet: agent needs a store, an engine, and a serving holder")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Spool == nil {
		// Every agent spools: without a directory the queue is in-memory,
		// surviving a partition (though not a process crash).
		cfg.Spool, _ = adapt.OpenSpool("")
	}
	if cfg.DegradedAfter <= 0 {
		cfg.DegradedAfter = DefaultDegradedAfter
	}
	return &Agent{cfg: cfg}, nil
}

// Status reports the agent's sync state, including the degraded-mode
// fields operators alert on: spool depth, current sync backoff, and the
// degraded flag once the control plane has been unreachable past the
// threshold.
func (a *Agent) Status() AgentStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	entries := 0
	if a.table != nil {
		entries = len(a.table.Entries)
	}
	return AgentStatus{
		Node: a.cfg.Node, Device: a.cfg.Device, Control: a.cfg.Control,
		Version: a.version, Hash: a.hash, Bootstrap: a.bootstrap,
		Plan: a.planHash, PlanEntries: entries,
		Syncs: a.syncs, Installs: a.installs,
		LastSync: a.lastSync, LastError: a.lastError,
		Spool:              a.cfg.Spool.Stats(),
		SyncBackoffSeconds: a.backoff.Seconds(),
		FailingSince:       a.failingSince,
		Degraded:           !a.failingSince.IsZero() && time.Since(a.failingSince) >= a.cfg.DegradedAfter,
	}
}

// Sync performs one register/heartbeat round trip: report what is being
// served, install whatever snapshot the control plane hands back, and
// return the response. A device with no published model and no compatible
// bootstrap donor is an explicit error (the registration itself still
// stands and later heartbeats retry) — never a silent cold fit.
func (a *Agent) Sync(ctx context.Context) (RegisterResponse, error) {
	a.mu.Lock()
	req := RegisterRequest{
		Node: a.cfg.Node, Addr: a.cfg.Addr, Device: a.cfg.Device,
		Version: a.version, Hash: a.hash, Plan: a.planHash,
	}
	a.mu.Unlock()

	var resp RegisterResponse
	err := a.postJSON(ctx, "/fleet/register", req, &resp)
	if err != nil {
		a.recordSync(err)
		return RegisterResponse{}, err
	}
	if len(resp.Snapshot) > 0 {
		if _, _, err := a.installDoc(resp.Snapshot, resp.Bootstrap); err != nil {
			err = fmt.Errorf("fleet: installing snapshot from control plane: %w", err)
			a.recordSync(err)
			return resp, err
		}
	}
	if len(resp.Decisions) > 0 {
		if _, _, err := a.InstallTable(resp.Decisions); err != nil {
			err = fmt.Errorf("fleet: installing decision table from control plane: %w", err)
			a.recordSync(err)
			return resp, err
		}
	}
	if resp.BootstrapError != "" && a.Status().Hash == "" {
		err = fmt.Errorf("fleet: device %s has no published model and no bootstrap donor: %s",
			a.cfg.Device, resp.BootstrapError)
		a.recordSync(err)
		return resp, err
	}
	a.recordSync(nil)
	return resp, nil
}

// recordSync updates the sync accounting.
func (a *Agent) recordSync(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.syncs++
	if err != nil {
		a.lastError = err.Error()
		if a.failingSince.IsZero() {
			a.failingSince = time.Now().UTC()
		}
		return
	}
	a.lastError = ""
	a.failingSince = time.Time{}
	a.lastSync = time.Now().UTC()
}

// Run heartbeats until the context is cancelled. interval <= 0 follows
// the control plane's advertised SyncSeconds (falling back to
// DefaultSyncInterval until the first successful round trip). A failed
// sync is retried on exponential backoff with full jitter instead of the
// regular tick — a whole fleet that lost its control plane reconnects
// spread out, not as a thundering herd — and a successful sync flushes
// the observation spool (the reconnect signal). Cancellation is honored
// both during an in-flight Sync (the request context aborts it) and at
// the loop top, so a post-cancel tick never fires one more sync.
func (a *Agent) Run(ctx context.Context, interval time.Duration) {
	attempt := 0
	for {
		if ctx.Err() != nil {
			return
		}
		resp, err := a.Sync(ctx)
		if ctx.Err() != nil {
			return
		}
		var wait time.Duration
		if err != nil {
			wait = a.cfg.Retry.Backoff(attempt)
			attempt++
		} else {
			attempt = 0
			a.FlushSpool(ctx)
			if wait = interval; wait <= 0 {
				wait = DefaultSyncInterval
				if resp.SyncSeconds > 0 {
					wait = time.Duration(resp.SyncSeconds * float64(time.Second))
				}
			}
		}
		a.setBackoff(err, wait)
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// setBackoff records the current failure backoff for Status (0 while
// healthy — the regular interval is pacing, not backoff).
func (a *Agent) setBackoff(err error, wait time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.backoff = wait
	} else {
		a.backoff = 0
	}
}

// InstallDoc verifies a snapshot document and hot-swaps serving to it.
// The document is imported into the agent's local store (content hash
// checked — ErrCorrupt on tampering; schema checked — ErrIncompatible on
// mismatch), deserialized, and installed as a predictor over the agent's
// own ladder. Installing the already-serving hash is an idempotent no-op
// (installed=false). A snapshot recorded for a different device (a
// cross-device bootstrap) installs its models but drops its front table:
// fronts are sweeps of the donor's ladder, so the governor falls back to
// live sweeps on this agent's ladder.
func (a *Agent) InstallDoc(doc []byte) (registry.Manifest, bool, error) {
	return a.installDoc(doc, nil)
}

// installDoc is InstallDoc plus bootstrap provenance for Status.
func (a *Agent) installDoc(doc []byte, boot *BootstrapInfo) (registry.Manifest, bool, error) {
	man, err := a.cfg.Store.ImportDoc(doc)
	if err != nil {
		return registry.Manifest{}, false, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if man.Hash == a.hash && a.hash != "" {
		return man, false, nil
	}
	models, fronts, _, err := a.cfg.Store.LoadFull(man.Device, man.Version)
	if err != nil {
		return registry.Manifest{}, false, err
	}
	if man.Device != a.cfg.Device {
		fronts = nil
	}
	pred := a.cfg.Engine.SetModels(models)
	a.cfg.Serving.InstallWithFronts(man.Version, pred, fronts)
	a.version, a.hash = man.Version, man.Hash
	if boot != nil {
		b := *boot
		a.bootstrap = &b
	} else if man.Device == a.cfg.Device {
		a.bootstrap = nil
	}
	a.installs++
	return man, true, nil
}

// HandleSnapshot is POST /fleet/snapshot on the agent: the control
// plane's push target. The body is a raw snapshot document; a document
// that fails the content-hash check or the schema check is refused with
// 409 Conflict and the currently serving snapshot keeps serving.
func (a *Agent) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	serveInstall(w, r, func(doc []byte) (any, error) {
		man, installed, err := a.InstallDoc(doc)
		return SnapshotResponse{
			Device: man.Device, Version: man.Version, Hash: man.Hash, Installed: installed,
		}, err
	})
}

// Forward sends a batch of locally reported observations to the control
// plane's aggregator, retrying transient failures with backoff. When
// delivery still fails — or earlier observations are already spooled, in
// which case delivering the new batch first would reorder the stream —
// the batch is enqueued in the spool and delivered by a later flush:
// spooled > 0 (with resp nil) means "accepted locally, queued". An error
// is returned only when the batch could neither be delivered nor spooled.
func (a *Agent) Forward(ctx context.Context, obs []adapt.Observation) (resp *ObserveResponse, spooled int, err error) {
	if a.cfg.Spool.Depth() > 0 {
		if err := a.cfg.Spool.Enqueue(obs...); err != nil {
			return nil, 0, err
		}
		// Opportunistic drain: if the control plane is already back, the
		// queue (including this batch) goes out now instead of waiting for
		// the next heartbeat.
		a.FlushSpool(ctx)
		return nil, len(obs), nil
	}
	r, derr := a.deliver(ctx, obs)
	if derr == nil {
		return r, 0, nil
	}
	if err := a.cfg.Spool.Enqueue(obs...); err != nil {
		return nil, 0, fmt.Errorf("fleet: forward failed (%v) and spooling failed: %w", derr, err)
	}
	return nil, len(obs), nil
}

// FlushSpool delivers queued observations to the control plane, oldest
// first in bounded batches, until the spool drains or a delivery fails.
// Flushes serialize so the stream order is preserved. It returns how many
// observations were delivered.
func (a *Agent) FlushSpool(ctx context.Context) (flushed int) {
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	for {
		batch := a.cfg.Spool.Pending(spoolFlushBatch)
		if len(batch) == 0 {
			return flushed
		}
		if _, err := a.deliver(ctx, batch); err != nil {
			return flushed
		}
		// Ack only what was delivered; observations enqueued concurrently
		// stay queued for the next round of the loop.
		if err := a.cfg.Spool.Ack(len(batch)); err != nil {
			return flushed
		}
		flushed += len(batch)
	}
}

// deliver is one forwarding RPC under the retry policy.
func (a *Agent) deliver(ctx context.Context, obs []adapt.Observation) (*ObserveResponse, error) {
	req := ObserveRequest{Node: a.cfg.Node, Device: a.cfg.Device, Observations: obs}
	var resp ObserveResponse
	err := a.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		return a.postJSON(ctx, "/fleet/observe", req, &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// postJSON POSTs v to the control plane and decodes the JSON response
// into out, surfacing the control plane's {"error": ...} body on non-200.
// The reply cap is maxWireBody: a register reply carries the snapshot.
func (a *Agent) postJSON(ctx context.Context, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	url := strings.TrimSuffix(a.cfg.Control, "/") + path
	return post(ctx, a.cfg.Client, url, body, maxWireBody, out, "fleet: control plane")
}
