package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/httpjson"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/registry"
)

// budgetMixShift carries the -budget-mix-shift flag into mountFleet
// (0 = fleet.DefaultMixShiftThreshold; negative disables auto-replans).
// A package variable because servers are also built by tests, where the
// zero value selects the default threshold.
var budgetMixShift float64

// mountFleet wires the fleet control plane into the default-mode server:
// the daemon's own registry becomes the fleet's source of truth, and the
// five /fleet/* management routes land on the control limiter with the
// rest of the management surface. The daemon's own device is the control
// plane's LocalDevice — its observations route into the daemon's existing
// adaptation loop and fleet activations for it go through the same
// serialized activate-and-install path as /models/{id}/activate, so one
// device never has two competing retrain loops.
func (s *server) mountFleet(acfg adapt.Config) {
	s.fleet = fleet.NewControl(s.store, fleet.ControlConfig{
		Opts:              s.engine.Options(),
		Adapt:             acfg,
		MixShiftThreshold: budgetMixShift,
		LocalDevice:       s.device,
		LocalObserve:      s.adapt.Observe,
		LocalActivate: func(version string) error {
			models, _, err := s.store.Load(s.device, version)
			if err != nil {
				return err
			}
			return s.activateAndInstall(version, models)
		},
	})
	s.handleControl("/fleet/register", s.fleet.HandleRegister)
	s.handleControl("/fleet/observe", s.fleet.HandleObserve)
	s.handleControl("/fleet/nodes", s.fleet.HandleNodes)
	s.handleControl("/fleet/push", s.fleet.HandlePush)
	s.handleControl("/fleet/budget", s.fleet.HandleBudget)
}

// newAgentServer builds the -agent mode server: only the memory-resident
// serving path (predict, batch, select, policies), observation forwarding
// to the control plane, and the snapshot push target. No training,
// registry management, or local adaptation routes exist in this mode —
// the control plane owns all of that for the whole fleet.
func newAgentServer(e *engine.Engine, store *registry.Store, device string, limits planeLimits) *server {
	s := newServerBase(e, store, device, limits)
	s.handle("/healthz", s.handleHealthz)
	s.handleRead("/predict", s.handlePredict)
	s.handleRead("/predict/batch", s.handlePredictBatch)
	s.handleRead("/select", s.handleSelect)
	s.handleRead("/policies", s.handlePolicies)
	s.handleControl("/observe", s.handleObserveForward)
	s.handleControl("/fleet/snapshot", s.agentRoute((*fleet.Agent).HandleSnapshot))
	s.handleControl("/fleet/decisions", s.agentRoute((*fleet.Agent).HandleDecisions))
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Error(w, http.StatusNotFound, "no such endpoint %s in agent mode (see docs/API.md)", r.URL.Path)
	})
	return s
}

// agentRoute serves one of the agent's fleet push targets (503 until the
// agent is wired): the control plane POSTs snapshot documents to
// /fleet/snapshot and decision tables to /fleet/decisions.
func (s *server) agentRoute(h func(*fleet.Agent, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.agent == nil {
			httpjson.Error(w, http.StatusServiceUnavailable, "agent not initialized")
			return
		}
		h(s.agent, w, r)
	}
}

// handleObserveForward is the agent-mode /observe: the same request shape
// as the daemon's, but observations are forwarded to the control plane's
// fleet aggregator instead of a local adaptation loop. Feature-extraction
// failures are rejected per item locally; everything else carries the
// control plane's per-observation verdicts back to the reporter.
func (s *server) handleObserveForward(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.Error(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.agent == nil {
		httpjson.Error(w, http.StatusServiceUnavailable, "agent not initialized")
		return
	}
	var req observeRequest
	if !httpjson.Read(w, r, maxBodyBytes, &req) {
		return
	}
	reports := req.Observations
	if req.Source != "" || req.Features != nil {
		reports = append(reports, req.observeKernel)
	}
	if len(reports) == 0 {
		httpjson.Error(w, http.StatusBadRequest, "no observations in request")
		return
	}
	results := make([]observeResult, len(reports))
	obs := make([]adapt.Observation, 0, len(reports))
	idx := make([]int, 0, len(reports)) // indices with valid observations
	for i, rep := range reports {
		results[i].Kernel = rep.Kernel
		o, err := rep.observation()
		if rejectTooDeep(w, err) {
			return
		}
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		idx = append(idx, i)
		obs = append(obs, o)
	}
	var store adapt.StoreStats
	var spooled int
	if len(obs) > 0 {
		resp, sp, err := s.agent.Forward(r.Context(), obs)
		if err != nil {
			httpjson.Error(w, http.StatusBadGateway, "forwarding observations to the control plane: %v", err)
			return
		}
		spooled = sp
		if resp != nil {
			for j, i := range idx {
				if j >= len(resp.Results) {
					break
				}
				results[i].Ingest = resp.Results[j].Ingest
				results[i].Error = resp.Results[j].Error
			}
			store = resp.Store
		}
	}
	// A spooled batch was accepted but not yet delivered: 202 tells the
	// reporter its observations are durably queued and will reach the
	// control plane when the partition heals.
	status := http.StatusOK
	if spooled > 0 {
		status = http.StatusAccepted
	}
	httpjson.Write(w, status, observeResponse{
		ModelVersion: s.serving.Version(),
		Results:      results,
		Spooled:      spooled,
		Store:        store,
	})
}

// agentOptions is runAgent's configuration, resolved from flags.
type agentOptions struct {
	Addr      string
	Device    string
	Workers   int
	Settings  int
	Node      string
	Control   string
	Advertise string
	Sync      time.Duration
	SpoolDir  string
	Limits    planeLimits
	Timeouts  httpTimeouts
}

// runAgent is the -agent entry point: a thin node agent that registers
// with the control plane, serves predictions from pushed (or pulled)
// snapshots out of a memory-resident registry, and forwards observations
// upstream. It listens before registering so the advertised push address
// is live by the time the control plane learns it.
func runAgent(opts agentOptions) error {
	if opts.Control == "" {
		return fmt.Errorf("-agent requires -control URL")
	}
	dev, err := gpu.ByName(opts.Device)
	if err != nil {
		return err
	}
	if opts.Node == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			return fmt.Errorf("-node not set and no usable hostname: %v", err)
		}
		opts.Node = host
	}
	// Agent registries are memory-mode by design: the store is a verified
	// cache of what the control plane pushed, not a source of truth.
	store, err := registry.Open("")
	if err != nil {
		return err
	}
	eng := engine.New(measure.NewHarness(nvml.NewDevice(dev)), engine.Options{
		Workers: opts.Workers,
		Core:    core.Options{SettingsPerKernel: opts.Settings},
	})
	s := newAgentServer(eng, store, opts.Device, opts.Limits)

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return err
	}
	advertise := opts.Advertise
	if advertise == "" {
		advertise = advertiseURL(ln.Addr())
	}
	// The spool keeps observations that could not be forwarded; with
	// -spool-dir it survives agent restarts, so a partition plus a crash
	// still loses nothing.
	spool, err := adapt.OpenSpool(opts.SpoolDir)
	if err != nil {
		return err
	}
	defer spool.Close()
	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Node:    opts.Node,
		Addr:    advertise,
		Device:  opts.Device,
		Control: opts.Control,
		Store:   store,
		Engine:  eng,
		Serving: s.serving,
		Spool:   spool,
	})
	if err != nil {
		return err
	}
	s.agent = agent

	httpSrv := opts.Timeouts.server("", s.handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The heartbeat loop registers, pulls the first snapshot (or a
	// cross-device bootstrap), and keeps the agent converged; its errors
	// are visible on /healthz and retried every tick.
	go agent.Run(ctx, opts.Sync)

	errc := make(chan error, 1)
	go func() {
		log.Printf("gpufreqd agent %s (%s) listening on %s, control plane %s",
			opts.Node, opts.Device, ln.Addr(), opts.Control)
		errc <- httpSrv.Serve(ln)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Print("shutdown signal received, draining connections...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("shutdown: %v", err)
		}
		log.Print("bye")
		return nil
	}
}

// advertiseURL derives the default push address from the bound listener:
// an explicitly bound IP is advertised as-is, a wildcard bind falls back
// to loopback (multi-host deployments set -advertise).
func advertiseURL(addr net.Addr) string {
	tcp, ok := addr.(*net.TCPAddr)
	if !ok {
		return "http://" + addr.String()
	}
	ip := tcp.IP
	if ip == nil || ip.IsUnspecified() {
		ip = net.IPv4(127, 0, 0, 1)
	}
	return fmt.Sprintf("http://%s", net.JoinHostPort(ip.String(), fmt.Sprint(tcp.Port)))
}
