// Command gpufreqd is the long-running service entry point of the
// frequency-scaling prediction framework: an HTTP server that trains the
// speedup/energy models through the concurrent engine, persists them as
// versioned snapshots in a model registry, and serves Pareto-optimal
// frequency predictions for OpenCL kernels as JSON.
//
// Endpoints (documented in detail in docs/API.md):
//
//	GET  /healthz                liveness, device, active model version, cache counters
//	POST /train                  start a background (re)training run; returns 202 + version id
//	POST /predict                predict Pareto sets; body: {"kernels": [{"source": "...", "kernel": "..."}]}
//	                             or a single {"source": "...", "kernel": "..."}
//	POST /predict/batch          columnar batch prediction over pre-extracted features
//	                             (flat JSON columns, or binary framing via
//	                             Content-Type: application/x-gpufreq-columns)
//	POST /select                 resolve a policy to one chosen configuration
//	GET  /policies               list the built-in policies and their parameters
//	GET  /models                 list model versions (snapshots + in-flight training runs)
//	GET  /models/{id}            one version's manifest, training status, serving stats
//	POST /models/{id}/activate   hot-swap serving to the given version
//	POST /models/rollback        hot-swap serving back to the previously active version
//	POST /observe                report a measured (features, config, speedup/energy) sample
//	GET  /adapt/status           adaptation loop: store, drift verdict, retrain history
//	POST /adapt/retrain          force a holdout-guarded retrain now
//	POST /fleet/register         fleet: node registration/heartbeat (returns the snapshot when stale)
//	POST /fleet/observe          fleet: node-forwarded observation batches
//	GET  /fleet/nodes            fleet: the node directory with sync verdicts
//	POST /fleet/push             fleet: re-fan-out every active snapshot to stale nodes
//	GET  /fleet/budget           fleet: energy-budget status — plan, per-node tables, drift
//	POST /fleet/budget           fleet: set the budget or force a replan
//
// Usage:
//
//	gpufreqd [-addr :8080] [-device titanx|p100] [-workers 0] [-settings 40]
//	         [-model-dir DIR] [-model models.json] [-train-on-start]
//	         [-read-concurrency 64] [-control-concurrency 16]
//	         [-adapt-auto] [-adapt-factor 2.0] [-adapt-min-samples 32]
//	         [-adapt-cooldown 2m] [-adapt-capacity 1024] [-adapt-retrain-every 0]
//	         [-adapt-max-age 0] [-obs-dir DIR] [-budget-mix-shift 0.25]
//	         [-http-read-header-timeout 10s] [-http-read-timeout 2m]
//	         [-http-write-timeout 5m] [-http-idle-timeout 2m]
//	gpufreqd -agent -control URL [-node ID] [-advertise URL] [-fleet-sync 0]
//	         [-spool-dir DIR] [-addr :8080] [-device titanx|p100]
//	         [-workers 0] [-settings 40]
//
// Durability: -obs-dir persists the adaptation loop's observation window
// in a crash-safe write-ahead log, replayed on boot so a restarted daemon
// resumes drift detection with the exact pre-crash window; -spool-dir
// (-agent mode) persists observations the agent could not forward, flushed
// in order when the control plane is reachable again. Both servers bound
// slow clients with the four -http-*-timeout flags, and every handler
// panic is absorbed into a structured 500 (counted on /healthz).
//
// The default mode is the fleet's control plane as well as a standalone
// daemon: it owns the registry, aggregates observations forwarded by
// agents, runs drift detection and guarded retrains per device
// fleet-wide, and fans activated snapshots out to registered nodes. In
// -agent mode the process keeps only the memory-resident serving path
// (predict, batch, select, observe-forwarding) plus POST /fleet/snapshot,
// the control plane's push target: it registers with -control, installs
// verified snapshot pushes with a hot swap, and never trains. A new agent
// whose GPU profile has no published model is warm-started from the
// nearest published donor model (see internal/fleet).
//
// The adaptation loop (internal/adapt) closes the train→serve→observe
// cycle: POST /observe feeds a bounded observation store, a drift detector
// compares rolling prediction error against the active snapshot's recorded
// training residuals, and -adapt-auto (on by default) retrains in the
// background when drift — or the sample-count/age policy — fires, folding
// the observations into the training set. A candidate that is worse than
// the active model on held-out observations is published but never
// activated. -adapt-auto=false disables automatic retraining; drift is
// still detected and reported, and POST /adapt/retrain still works.
//
// With -model-dir, trained models are published as versioned on-disk
// snapshots and the active version is loaded on boot, so a restarted
// server serves predictions bit-identical to the pre-restart model without
// retraining. Without it, the registry runs in memory: versioning,
// activation and rollback all work, but nothing survives a restart.
// Training runs in the background — /predict and /select keep serving the
// old model and hot-swap to the new version when it is published.
//
// Handlers are split into a read plane (/predict, /predict/batch,
// /select, /policies) and a control plane (/train, /models*, /observe,
// /adapt/*) with independent in-flight limits (-read-concurrency,
// -control-concurrency; 0 = default, negative = unlimited). A saturated
// plane sheds immediately with 503 and Retry-After: 1 instead of queueing;
// per-plane shed counters appear in GET /healthz, which itself sits
// outside both limiters so liveness probes survive saturation.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/fleet"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/measure"
	"repro/internal/nvml"
	"repro/internal/policy"
	"repro/internal/registry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	deviceName := flag.String("device", "titanx", "GPU profile to serve: titanx or p100")
	workers := flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
	settings := flag.Int("settings", 40, "sampled frequency settings per training kernel")
	modelDir := flag.String("model-dir", "", "model registry directory (versioned snapshots; empty = in-memory registry)")
	modelPath := flag.String("model", "", "import pre-trained models from this flat file into the registry")
	trainOnStart := flag.Bool("train-on-start", false, "train the models before accepting traffic")
	adaptAuto := flag.Bool("adapt-auto", true, "retrain automatically when the drift detector (or a retrain policy) fires")
	adaptFactor := flag.Float64("adapt-factor", 0, "drift threshold as a multiple of the training residual baseline (0 = default 2.0)")
	adaptMinSamples := flag.Int("adapt-min-samples", 0, "observations required before drift is evaluated (0 = default 32)")
	adaptCooldown := flag.Duration("adapt-cooldown", 0, "minimum spacing between automatic retrains (0 = default 2m)")
	adaptCapacity := flag.Int("adapt-capacity", 0, "observation store bound in samples (0 = default 1024)")
	adaptRetrainEvery := flag.Int("adapt-retrain-every", 0, "retrain after this many observations regardless of drift (0 = disabled)")
	adaptMaxAge := flag.Duration("adapt-max-age", 0, "retrain when the active snapshot is older than this (0 = disabled)")
	adaptWarmStart := flag.Bool("adapt-warm-start", true, "seed automatic retrains from the active models (warm start); manual retrains always fit cold")
	readConcurrency := flag.Int("read-concurrency", 0, "max in-flight read-plane requests: predict/select/policies (0 = default 64, negative = unlimited)")
	controlConcurrency := flag.Int("control-concurrency", 0, "max in-flight control-plane requests: train/models/observe/adapt (0 = default 16, negative = unlimited)")
	obsDir := flag.String("obs-dir", "", "observation WAL directory: persists the observation window so a restart replays it (empty = memory-only)")
	spoolDir := flag.String("spool-dir", "", "observation spool directory (-agent mode): persists unforwarded observations across restarts (empty = memory-only)")
	readHeaderTimeout := flag.Duration("http-read-header-timeout", defaultReadHeaderTimeout, "max time to read a request's headers (0 = unlimited)")
	readTimeout := flag.Duration("http-read-timeout", defaultReadTimeout, "max time to read a whole request including the body (0 = unlimited)")
	writeTimeout := flag.Duration("http-write-timeout", defaultWriteTimeout, "max time to write a response (0 = unlimited)")
	idleTimeout := flag.Duration("http-idle-timeout", defaultIdleTimeout, "max keep-alive idle time between requests (0 = unlimited)")
	agentMode := flag.Bool("agent", false, "run as a thin fleet node agent against -control: serve pushed snapshots, forward observations, never train")
	controlURL := flag.String("control", "", "control plane base URL (required with -agent)")
	nodeID := flag.String("node", "", "fleet node id (-agent mode; default: the hostname)")
	advertise := flag.String("advertise", "", "base URL the control plane pushes snapshots to (-agent mode; default derived from -addr, loopback on wildcard binds)")
	fleetSync := flag.Duration("fleet-sync", 0, "agent heartbeat interval (-agent mode; 0 = follow the control plane's advertised interval)")
	mixShift := flag.Float64("budget-mix-shift", 0, "L1 kernel-mix drift per node that triggers a fleet budget replan (0 = default 0.25, negative = disabled)")
	flag.Parse()
	budgetMixShift = *mixShift

	timeouts := httpTimeouts{
		ReadHeader: *readHeaderTimeout,
		Read:       *readTimeout,
		Write:      *writeTimeout,
		Idle:       *idleTimeout,
	}

	if *agentMode {
		if err := runAgent(agentOptions{
			Addr:      *addr,
			Device:    *deviceName,
			Workers:   *workers,
			Settings:  *settings,
			Node:      *nodeID,
			Control:   *controlURL,
			Advertise: *advertise,
			Sync:      *fleetSync,
			SpoolDir:  *spoolDir,
			Limits:    planeLimits{Read: *readConcurrency, Control: *controlConcurrency},
			Timeouts:  timeouts,
		}); err != nil {
			log.Fatalf("gpufreqd: %v", err)
		}
		return
	}

	dev, err := device(*deviceName)
	if err != nil {
		log.Fatalf("gpufreqd: %v", err)
	}
	store, err := registry.Open(*modelDir)
	if err != nil {
		log.Fatalf("gpufreqd: %v", err)
	}
	var wal *adapt.WAL
	if *obsDir != "" {
		wal, err = adapt.OpenWAL(adapt.WALConfig{Dir: *obsDir, Capacity: *adaptCapacity})
		if err != nil {
			log.Fatalf("gpufreqd: opening observation WAL: %v", err)
		}
		defer wal.Close()
	}
	srv := newServerWAL(engine.New(measure.NewHarness(nvml.NewDevice(dev)), engine.Options{
		Workers: *workers,
		Core:    core.Options{SettingsPerKernel: *settings},
	}), store, *deviceName, adapt.Config{
		Auto:             *adaptAuto,
		DriftFactor:      *adaptFactor,
		MinSamples:       *adaptMinSamples,
		Cooldown:         *adaptCooldown,
		Capacity:         *adaptCapacity,
		RetrainEvery:     *adaptRetrainEvery,
		MaxModelAge:      *adaptMaxAge,
		DisableWarmStart: !*adaptWarmStart,
	}, planeLimits{Read: *readConcurrency, Control: *controlConcurrency}, wal)

	switch {
	case *modelPath != "":
		models, err := core.LoadFile(*modelPath)
		if err != nil {
			log.Fatalf("gpufreqd: loading %s: %v", *modelPath, err)
		}
		version, err := srv.importModels(models)
		if err != nil {
			log.Fatalf("gpufreqd: importing %s: %v", *modelPath, err)
		}
		log.Printf("imported models from %s as %s (speedup: %d SVs, energy: %d SVs)",
			*modelPath, version, models.Speedup.NumSV(), models.Energy.NumSV())
	case srv.loadActive():
		man := srv.activeManifest()
		log.Printf("serving %s/%s (hash %.8s…, trained %s) loaded from %s — no retraining needed",
			man.Device, man.Version, man.Hash, man.CreatedAt.Format(time.RFC3339), *modelDir)
	case *trainOnStart:
		log.Printf("training on the full synthetic suite (%d workers)...", srv.engine.Options().Workers)
		job, err := srv.startTraining(0)
		if err != nil {
			log.Fatalf("gpufreqd: training: %v", err)
		}
		srv.waitTraining(job)
		if job.snapshot(srv).Status == statusFailed {
			log.Fatalf("gpufreqd: training: %s", job.snapshot(srv).Error)
		}
		log.Printf("trained and published %s in %.0f ms", job.Version, job.snapshot(srv).DurationMS)
	}

	httpSrv := timeouts.server(*addr, srv.handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("gpufreqd listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("gpufreqd: %v", err)
	case <-ctx.Done():
		log.Print("shutdown signal received, draining connections...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Fatalf("gpufreqd: shutdown: %v", err)
		}
		log.Print("bye")
	}
}

// device resolves a GPU profile name.
func device(name string) (*gpu.Device, error) { return gpu.ByName(name) }

// Training-job statuses reported by /train and /models.
const (
	statusTraining = "training"
	statusReady    = "ready"
	statusFailed   = "failed"
)

// trainJob tracks one background training run from reservation to
// publication. Fields past the immutable header are guarded by the owning
// server's jobsMu.
type trainJob struct {
	Version   string    `json:"version"`
	StartedAt time.Time `json:"started_at"`

	Status     string  `json:"status"`
	Error      string  `json:"error,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
}

// snapshot returns a copy of the job under the server's lock.
func (j *trainJob) snapshot(s *server) trainJob {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return *j
}

// server holds the HTTP layer's state: the engine, the snapshot store, the
// hot-swap serving holder, the adaptation loop, and training-run
// bookkeeping.
type server struct {
	engine  *engine.Engine
	store   *registry.Store
	serving *registry.Serving
	adapt   *adapt.Controller
	device  string
	mux     *http.ServeMux
	routes  []string // registered patterns, for introspection and docs checks
	start   time.Time

	trainMu sync.Mutex // serializes training runs; held for a run's whole lifetime

	// installMu serializes (store.Activate, serving.Install) pairs, so the
	// on-disk ACTIVE pointer and the in-process serving version can never
	// be swapped in opposite orders by a publishing trainer and a
	// concurrent /models/{id}/activate.
	installMu sync.Mutex

	jobsMu sync.Mutex
	jobs   map[string]*trainJob // version -> training run

	// fleet is the control plane mounted in default mode (nil in agent
	// mode); agent is the node-side half in -agent mode (nil otherwise).
	fleet *fleet.Control
	agent *fleet.Agent

	// read and control are the two handler planes' admission control:
	// serving endpoints and management endpoints shed load independently.
	read    *planeLimiter
	control *planeLimiter

	// panics counts handler panics absorbed by the recovery middleware
	// since boot; nonzero values surface on /healthz.
	panics atomic.Int64

	// wal is the observation WAL feeding the adaptation controller (nil
	// without -obs-dir); held here so /healthz can report its stats.
	wal *adapt.WAL
}

// newServer builds a server with default plane concurrency limits.
func newServer(e *engine.Engine, store *registry.Store, device string, acfg adapt.Config) *server {
	return newServerLimits(e, store, device, acfg, planeLimits{})
}

// newServerLimits is newServer with explicit read/control-plane
// concurrency limits (see planeLimits).
func newServerLimits(e *engine.Engine, store *registry.Store, device string, acfg adapt.Config, limits planeLimits) *server {
	return newServerWAL(e, store, device, acfg, limits, nil)
}

// newServerWAL is newServerLimits with a crash-safe observation WAL (nil =
// memory-only observations): the adaptation controller is seeded from the
// WAL's recovered window, so a restarted daemon resumes drift detection
// where the previous process stopped, and every ingested observation is
// appended for the next restart.
func newServerWAL(e *engine.Engine, store *registry.Store, device string, acfg adapt.Config, limits planeLimits, wal *adapt.WAL) *server {
	s := &server{
		engine:  e,
		store:   store,
		serving: registry.NewServing(),
		device:  device,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		jobs:    map[string]*trainJob{},
		read:    newPlaneLimiter("read", limits.Read, defaultReadConcurrency),
		control: newPlaneLimiter("control", limits.Control, defaultControlConcurrency),
		wal:     wal,
	}
	s.adapt = adapt.New(acfg, adapt.Deps{
		Device: device,
		Store:  store,
		WAL:    wal,
		Current: func() (*engine.Predictor, string, bool) {
			version, pred, _, ok := s.serving.Current()
			return pred, version, ok
		},
		Install: s.activateAndInstall,
		Trainer: adapt.NewEngineTrainer(e, nil),
		Fronts: func(m *core.Models) *registry.Fronts {
			return registry.ComputeFronts(
				engine.NewPredictor(m, e.Harness().Device().Sim().Ladder, e.Options()),
				engine.TrainingKernels())
		},
	})
	// /healthz sits outside both limiters: orchestrator liveness probes
	// must keep answering while a plane sheds load, or a busy-but-healthy
	// instance gets restarted exactly during a spike.
	s.handle("/healthz", s.handleHealthz)
	// Read plane: the serving hot path. Sheds independently of the control
	// plane, so a management burst can never queue behind predictions or
	// vice versa.
	s.handleRead("/predict", s.handlePredict)
	s.handleRead("/predict/batch", s.handlePredictBatch)
	s.handleRead("/select", s.handleSelect)
	s.handleRead("/policies", s.handlePolicies)
	// Control plane: training, registry management, adaptation.
	s.handleControl("/train", s.handleTrain)
	s.handleControl("/models", s.handleModels)
	s.handleControl("/models/{id}", s.handleModelGet)
	s.handleControl("/models/{id}/activate", s.handleModelActivate)
	s.handleControl("/models/rollback", s.handleRollback)
	s.handleControl("/observe", s.handleObserve)
	s.handleControl("/adapt/status", s.handleAdaptStatus)
	s.handleControl("/adapt/retrain", s.handleAdaptRetrain)
	// Fleet control plane: node registration/heartbeat, fan-out, and the
	// fleet-wide observation aggregator, over this server's own registry.
	s.mountFleet(acfg)
	// Unmatched paths get the same structured JSON error shape as every
	// other failure, not net/http's plain-text 404 page. Registered
	// directly on the mux: "/" is a fallback, not part of the API surface.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no such endpoint %s (see docs/API.md)", r.URL.Path)
	})
	return s
}

// handle registers a route, recording its pattern so tests can verify the
// documented API surface matches the served one.
func (s *server) handle(pattern string, h http.HandlerFunc) {
	s.routes = append(s.routes, pattern)
	s.mux.HandleFunc(pattern, h)
}

// handleRead registers a read-plane route under the read limiter.
func (s *server) handleRead(pattern string, h http.HandlerFunc) {
	s.handle(pattern, s.read.wrap(h))
}

// handleControl registers a control-plane route under the control limiter.
func (s *server) handleControl(pattern string, h http.HandlerFunc) {
	s.handle(pattern, s.control.wrap(h))
}

// Default HTTP server timeouts, each overridable by flag. They bound how
// long one misbehaving client can hold a connection (and with it a plane
// slot): a stalled header, a body that trickles forever, a reader that
// never drains the response, an idle keep-alive that never speaks again.
const (
	defaultReadHeaderTimeout = 10 * time.Second
	defaultReadTimeout       = 2 * time.Minute
	defaultWriteTimeout      = 5 * time.Minute
	defaultIdleTimeout       = 2 * time.Minute
)

// httpTimeouts carries the flag-resolved server timeouts into both daemon
// modes (0 disables the corresponding bound).
type httpTimeouts struct {
	ReadHeader, Read, Write, Idle time.Duration
}

// server applies the timeouts to an http.Server serving handler.
func (t httpTimeouts) server(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
}

// handler is the server's complete HTTP surface: the route mux wrapped in
// the panic-recovery middleware, so one handler bug costs a structured 500
// (counted on /healthz) instead of the connection — net/http would
// otherwise just close the stream, which a client sees as an unexplained
// transport error.
func (s *server) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// The sanctioned abort-this-response panic; not a bug.
				panic(rec)
			}
			s.panics.Add(1)
			log.Printf("gpufreqd: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
			// Best-effort: if the handler already wrote a header this is a
			// no-op on a dead stream, which is all that can be done.
			writeError(w, http.StatusInternalServerError, "internal error (panic recovered; see server log)")
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// install publishes a model set as the serving version, hot-swapping the
// predictor/governor pair behind the serving holder's RWMutex so
// concurrent /predict and /select requests never see a half-installed
// version. The predictor is built directly from the models (not read back
// from the engine), so the (version, models) pairing cannot be torn by a
// concurrent install; the engine's models are updated too for its own
// consumers (Trained, solver-stat reporting). fronts is the snapshot's
// publish-time front table (nil for snapshots without one): the fresh
// governor serves kernels in the table without any SVR evaluations.
func (s *server) install(version string, models *core.Models, fronts *registry.Fronts) error {
	pred := engine.NewPredictor(models, s.engine.Harness().Device().Sim().Ladder, s.engine.Options())
	s.engine.SetModels(models)
	s.serving.InstallWithFronts(version, pred, fronts)
	return nil
}

// activateAndInstall points the store's ACTIVE pointer at the version and
// hot-swaps serving to it, as one serialized step. The snapshot's
// precomputed fronts, when present, are loaded from the store so every
// activation path — training publish, HTTP activate, rollback, adapt —
// hydrates the governor the same way.
func (s *server) activateAndInstall(version string, models *core.Models) error {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	if err := s.store.Activate(s.device, version); err != nil {
		return err
	}
	fronts, err := s.store.LoadFronts(s.device, version)
	if err != nil {
		// Activate already integrity-checked the snapshot; a fronts load
		// failure here is unexpected but never fatal — serve with live
		// sweeps instead.
		log.Printf("gpufreqd: loading fronts for %s: %v", version, err)
		fronts = nil
	}
	if err := s.install(version, models, fronts); err != nil {
		return err
	}
	// Fan the new active snapshot out to registered fleet nodes in the
	// background: a fan-out failure never fails an activation, and stale
	// nodes converge on their next heartbeat anyway.
	if s.fleet != nil {
		go s.fleet.PushDevice(context.Background(), s.device)
	}
	return nil
}

// loadActive loads and installs the device's active snapshot from the
// store, if one exists. Used at boot so a restart against a populated
// model directory serves without retraining.
func (s *server) loadActive() bool {
	models, fronts, man, err := s.store.LoadFull(s.device, "")
	if err != nil {
		if !errors.Is(err, registry.ErrNoSnapshot) {
			log.Printf("gpufreqd: loading active snapshot: %v", err)
		}
		return false
	}
	if err := s.install(man.Version, models, fronts); err != nil {
		log.Printf("gpufreqd: installing %s: %v", man.Version, err)
		return false
	}
	return true
}

// activeManifest returns the manifest of the serving version (zero value
// if none is active or the store cannot produce it).
func (s *server) activeManifest() registry.Manifest {
	version := s.serving.Version()
	if version == "" {
		return registry.Manifest{}
	}
	man, err := s.store.GetManifest(s.device, version)
	if err != nil {
		return registry.Manifest{Version: version, Device: s.device}
	}
	return man
}

// importModels stores an externally supplied model set as a snapshot
// (deduplicated by content hash) and activates it. Like a training run,
// the import sweeps the training-kernel fronts at publish time so the
// imported snapshot serves /select from the table.
func (s *server) importModels(models *core.Models) (string, error) {
	hash, err := registry.HashModels(models)
	if err != nil {
		return "", err
	}
	version, ok := s.store.FindByHash(s.device, hash)
	if !ok {
		fronts := registry.ComputeFronts(
			engine.NewPredictor(models, s.engine.Harness().Device().Sim().Ladder, s.engine.Options()),
			engine.TrainingKernels())
		man, err := s.store.SaveWithFronts(s.device, "", models, registry.Training{}, fronts)
		if err != nil {
			return "", err
		}
		version = man.Version
	}
	return version, s.activateAndInstall(version, models)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readJSON decodes one JSON document from a POST body into v. It is the
// shared malformed-body path of every POST endpoint, so they all fail the
// same way: 400 with a structured {"error": ...} naming the problem —
// including trailing garbage after the document, which plain Decode would
// silently ignore. allowEmpty admits an empty body as the zero value (used
// by endpoints whose parameters are all optional).
func readJSON(r *http.Request, v any, allowEmpty bool) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			if allowEmpty {
				return nil
			}
			return errors.New("empty request body")
		}
		return fmt.Errorf("bad request body: %v", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data after the JSON document")
	}
	return nil
}

type healthResponse struct {
	Status        string  `json:"status"`
	Device        string  `json:"device"`
	Trained       bool    `json:"trained"`
	ModelVersion  string  `json:"model_version,omitempty"`
	Registry      string  `json:"registry"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	// Cache is the serving governor's accounting: decision cache, front
	// table and sweep LRU (absent before any model is active).
	Cache *policy.Stats `json:"cache,omitempty"`
	// Planes reports per-plane admission control: concurrency limits and
	// requests shed since boot.
	Planes planesInfo `json:"planes"`
	// Panics counts handler panics absorbed by the recovery middleware
	// since boot (0 on a healthy server).
	Panics int64 `json:"panics"`
	// WAL is the observation WAL's accounting (-obs-dir only).
	WAL *adapt.WALStats `json:"wal,omitempty"`
	// Fleet is the agent's sync state (-agent mode only), including spool
	// depth, current sync backoff, and the degraded flag.
	Fleet *fleet.AgentStatus `json:"fleet,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := healthResponse{
		Status:        "ok",
		Device:        s.engine.Harness().Device().Sim().Name,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.engine.Options().Workers,
		Registry:      "memory",
		Planes:        planesInfo{Read: s.read.info(), Control: s.control.info()},
	}
	resp.Panics = s.panics.Load()
	if s.store.Persistent() {
		resp.Registry = s.store.Dir()
	}
	if s.wal != nil {
		st := s.wal.Stats()
		resp.WAL = &st
	}
	if s.agent != nil {
		st := s.agent.Status()
		resp.Fleet = &st
	}
	if version, _, gov, ok := s.serving.Current(); ok {
		resp.Trained = true
		resp.ModelVersion = version
		st := gov.Stats()
		resp.Cache = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

type trainRequest struct {
	// Settings overrides the per-kernel sampled settings for this run only
	// (0 = the server's configured default).
	Settings int `json:"settings"`
}

// trainAccepted is the 202 response to POST /train: the reserved version
// id and where to poll for completion.
type trainAccepted struct {
	Version string `json:"version"`
	Status  string `json:"status"`
	Poll    string `json:"poll"`
}

// startTraining reserves a version id, records the job, and launches the
// run in the background. The caller owns nothing: the goroutine publishes
// the snapshot, activates it, and hot-swaps serving when it succeeds.
func (s *server) startTraining(settingsOverride int) (*trainJob, error) {
	if !s.trainMu.TryLock() {
		return nil, errors.New("a training run is already in progress")
	}
	version, err := s.store.Reserve(s.device)
	if err != nil {
		s.trainMu.Unlock()
		return nil, fmt.Errorf("reserving a version: %v", err)
	}
	job := &trainJob{Version: version, Status: statusTraining, StartedAt: time.Now().UTC()}
	s.jobsMu.Lock()
	s.jobs[version] = job
	s.jobsMu.Unlock()
	go s.runTraining(job, settingsOverride)
	return job, nil
}

// runTraining is the background half of /train. It trains with
// context.Background(): the run belongs to the server, not to the HTTP
// request that started it, so a disconnecting client no longer cancels it.
func (s *server) runTraining(job *trainJob, settingsOverride int) {
	defer s.trainMu.Unlock()

	eng := s.engine
	if settingsOverride > 0 {
		opts := eng.Options()
		opts.Core.SettingsPerKernel = settingsOverride
		eng = engine.New(eng.Harness(), opts)
	}

	fail := func(err error) {
		s.jobsMu.Lock()
		job.Status = statusFailed
		job.Error = err.Error()
		s.jobsMu.Unlock()
	}

	kernels := engine.TrainingKernels()
	start := time.Now()
	samples, err := eng.BuildTrainingSet(context.Background(), kernels)
	if err != nil {
		fail(err)
		return
	}
	models, err := eng.Fit(context.Background(), samples)
	if err != nil {
		fail(err)
		return
	}
	durationMS := float64(time.Since(start).Microseconds()) / 1000

	tr := registry.Training{
		SettingsPerKernel: eng.Options().Core.WithDefaults().SettingsPerKernel,
		Kernels:           len(kernels),
		Samples:           len(samples),
		DurationMS:        durationMS,
	}
	// Training residuals become the drift detector's baseline for this
	// version (see internal/adapt).
	tr.SpeedupRMSE, tr.EnergyRMSE = core.ResidualRMSE(models, samples)
	// Publish-time fronts: sweep the full ladder for every training kernel
	// once, so /select on known kernels never evaluates the SVRs again.
	fronts := registry.ComputeFronts(
		engine.NewPredictor(models, eng.Harness().Device().Sim().Ladder, eng.Options()), kernels)
	if _, err := s.store.SaveWithFronts(s.device, job.Version, models, tr, fronts); err != nil {
		fail(fmt.Errorf("publishing snapshot: %w", err))
		return
	}
	if err := s.activateAndInstall(job.Version, models); err != nil {
		fail(fmt.Errorf("activating %s: %w", job.Version, err))
		return
	}
	s.jobsMu.Lock()
	job.Status = statusReady
	job.DurationMS = durationMS
	s.jobsMu.Unlock()
}

// waitTraining blocks until the job leaves the training state (used by
// -train-on-start; HTTP clients poll /models/{id} instead).
func (s *server) waitTraining(job *trainJob) {
	for job.snapshot(s).Status == statusTraining {
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req trainRequest
	if err := readJSON(r, &req, true); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.startTraining(req.Settings)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, trainAccepted{
		Version: job.Version,
		Status:  statusTraining,
		Poll:    "/models/" + job.Version,
	})
}

// modelEntry is one version in /models responses: its training status, the
// snapshot manifest once published, and per-version serving statistics
// (live counters for the active version, frozen ones for retired versions).
type modelEntry struct {
	Version    string                 `json:"version"`
	Status     string                 `json:"status"`
	Active     bool                   `json:"active"`
	Error      string                 `json:"error,omitempty"`
	StartedAt  *time.Time             `json:"started_at,omitempty"`
	DurationMS float64                `json:"duration_ms,omitempty"`
	Manifest   *registry.Manifest     `json:"manifest,omitempty"`
	Stats      *registry.VersionStats `json:"stats,omitempty"`
}

type modelsResponse struct {
	Device   string       `json:"device"`
	Active   string       `json:"active,omitempty"`
	Previous string       `json:"previous,omitempty"`
	Registry string       `json:"registry"`
	Models   []modelEntry `json:"models"`
}

// modelEntries assembles the merged view of published snapshots and
// in-flight/failed training runs, oldest snapshot first. For a version
// whose training run is still in flight, the job's status wins over the
// store's: a run publishes its snapshot before hot-swapping serving, and
// it must not be reported ready until the swap happened.
func (s *server) modelEntries() ([]modelEntry, error) {
	// Jobs are snapshotted before the store listing: a run that publishes
	// between the two reads then shows up as still "training" (harmless —
	// pollers retry) rather than vanishing from both views.
	s.jobsMu.Lock()
	jobs := make(map[string]trainJob, len(s.jobs))
	for v, job := range s.jobs {
		jobs[v] = *job
	}
	s.jobsMu.Unlock()
	entries, err := s.store.List(s.device)
	if err != nil {
		return nil, err
	}

	servingVersion := s.serving.Version()
	seen := map[string]bool{}
	out := make([]modelEntry, 0, len(entries))
	for _, e := range entries {
		seen[e.Version] = true
		me := modelEntry{Version: e.Version, Status: statusReady, Active: e.Version == servingVersion}
		if e.Err != "" {
			me.Status = statusFailed
			me.Error = e.Err
		} else {
			man := e.Manifest
			me.Manifest = &man
		}
		if job, ok := jobs[e.Version]; ok && job.Status != statusReady {
			me.Status = job.Status
			me.Error = job.Error
			t := job.StartedAt
			me.StartedAt = &t
		}
		if vs, ok := s.serving.StatsFor(e.Version); ok {
			me.Stats = &vs
		}
		out = append(out, me)
	}
	for _, job := range jobs {
		if seen[job.Version] || job.Status == statusReady {
			continue
		}
		t := job.StartedAt
		out = append(out, modelEntry{
			Version:   job.Version,
			Status:    job.Status,
			Error:     job.Error,
			StartedAt: &t,
		})
	}
	return out, nil
}

func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	models, err := s.modelEntries()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "listing models: %v", err)
		return
	}
	resp := modelsResponse{Device: s.device, Models: models, Registry: "memory"}
	if s.store.Persistent() {
		resp.Registry = s.store.Dir()
	}
	if st, ok := s.store.ActiveState(s.device); ok {
		resp.Active = st.Version
		resp.Previous = st.Previous
	}
	if v := s.serving.Version(); v != "" {
		resp.Active = v
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := r.PathValue("id")
	models, err := s.modelEntries()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "listing models: %v", err)
		return
	}
	for _, me := range models {
		if me.Version == id {
			writeJSON(w, http.StatusOK, me)
			return
		}
	}
	writeError(w, http.StatusNotFound, "no model version %q for %s", id, s.device)
}

// activateResponse reports the outcome of an activation or rollback.
type activateResponse struct {
	Active   string `json:"active"`
	Previous string `json:"previous,omitempty"`
	Hash     string `json:"hash,omitempty"`
}

// activateVersion loads, verifies, activates and hot-swaps one stored
// version — the shared body of /models/{id}/activate and /models/rollback.
func (s *server) activateVersion(w http.ResponseWriter, id string) {
	models, man, err := s.store.Load(s.device, id)
	switch {
	case errors.Is(err, registry.ErrNoSnapshot):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, registry.ErrCorrupt):
		writeError(w, http.StatusConflict, "refusing to activate: %v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "loading %s: %v", id, err)
		return
	}
	if err := s.activateAndInstall(id, models); err != nil {
		writeError(w, http.StatusInternalServerError, "activating %s: %v", id, err)
		return
	}
	resp := activateResponse{Active: id, Hash: man.Hash}
	if prev, ok := s.store.Previous(s.device); ok {
		resp.Previous = prev
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleModelActivate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	s.activateVersion(w, r.PathValue("id"))
}

func (s *server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	target, ok := s.store.Previous(s.device)
	if !ok {
		writeError(w, http.StatusConflict, "no previous version to roll back to")
		return
	}
	s.activateVersion(w, target)
}

type predictKernel struct {
	// Source is the OpenCL source containing the kernel.
	Source string `json:"source"`
	// Kernel names the kernel function ("" = first kernel in Source).
	Kernel string `json:"kernel"`
}

type predictRequest struct {
	Kernels []predictKernel `json:"kernels"`
	// Single-kernel shorthand, accepted at the top level.
	Source string `json:"source"`
	Kernel string `json:"kernel"`
}

type predictResult struct {
	Kernel string            `json:"kernel"`
	Pareto []core.Prediction `json:"pareto"`
	Error  string            `json:"error,omitempty"`
}

type predictResponse struct {
	ModelVersion string          `json:"model_version"`
	Results      []predictResult `json:"results"`
	// Cache is the serving governor's accounting; each predicted kernel
	// advances exactly one of front_hits, sweep_hits or sweep_misses.
	Cache policy.Stats `json:"cache"`
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req predictRequest
	if err := readJSON(r, &req, false); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	kernels := req.Kernels
	if req.Source != "" {
		kernels = append(kernels, predictKernel{Source: req.Source, Kernel: req.Kernel})
	}
	if len(kernels) == 0 {
		writeError(w, http.StatusBadRequest, "no kernels in request")
		return
	}
	version, _, gov, ok := s.serving.Current()
	if !ok {
		writeError(w, http.StatusServiceUnavailable,
			"no active model version (POST /train, or activate a stored version)")
		return
	}

	// Each kernel resolves through the governor's front memo, exactly as
	// /select does: the publish-time front table, then the sweep LRU, then
	// a live parallel ladder sweep.
	results := make([]predictResult, len(kernels))
	for i, k := range kernels {
		if err := r.Context().Err(); err != nil {
			writeError(w, http.StatusInternalServerError, "predict: %v", err)
			return
		}
		results[i].Kernel = k.Kernel
		st, err := features.ExtractSource(k.Source, k.Kernel)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		results[i].Pareto = gov.ParetoSet(st)
	}
	writeJSON(w, http.StatusOK, predictResponse{ModelVersion: version, Results: results, Cache: gov.Stats()})
}

type selectRequest struct {
	// Policy names the objective and its parameters; see GET /policies.
	Policy policy.Spec `json:"policy"`
	// Kernels is the batch form; Source/Kernel the single-kernel shorthand,
	// exactly as on /predict.
	Kernels []predictKernel `json:"kernels"`
	Source  string          `json:"source"`
	Kernel  string          `json:"kernel"`
}

type selectResult struct {
	Kernel   string           `json:"kernel"`
	Decision *policy.Decision `json:"decision,omitempty"`
	Error    string           `json:"error,omitempty"`
}

type selectResponse struct {
	// Policy is the resolved spec (defaults applied) every decision used.
	Policy       policy.Spec    `json:"policy"`
	ModelVersion string         `json:"model_version"`
	Results      []selectResult `json:"results"`
	// Cache reports the serving governor's accounting, the same object
	// /healthz and /predict report.
	Cache policy.Stats `json:"cache"`
}

func (s *server) handleSelect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req selectRequest
	if err := readJSON(r, &req, false); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := req.Policy.WithDefaults()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	kernels := req.Kernels
	if req.Source != "" {
		kernels = append(kernels, predictKernel{Source: req.Source, Kernel: req.Kernel})
	}
	if len(kernels) == 0 {
		writeError(w, http.StatusBadRequest, "no kernels in request")
		return
	}
	version, _, gov, ok := s.serving.Current()
	if !ok {
		writeError(w, http.StatusServiceUnavailable,
			"no active model version (POST /train, or activate a stored version)")
		return
	}

	results := make([]selectResult, len(kernels))
	for i, k := range kernels {
		results[i].Kernel = k.Kernel
		d, err := gov.DecideSource(k.Source, k.Kernel, spec)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		results[i].Decision = &d
	}
	writeJSON(w, http.StatusOK, selectResponse{
		Policy: spec, ModelVersion: version, Results: results, Cache: gov.Stats(),
	})
}

type policiesResponse struct {
	Policies []policy.Info `json:"policies"`
}

func (s *server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, policiesResponse{Policies: policy.Builtins()})
}

// observeKernel is one reported observation: the kernel identified either
// by OpenCL source (features are extracted server-side) or by a
// pre-extracted static feature vector, plus the configuration it ran at
// and the measured objectives relative to default clocks.
type observeKernel struct {
	// Source and Kernel identify the kernel by OpenCL source, exactly as
	// on /predict. Alternatively Features carries the extracted static
	// feature vector directly (takes precedence when both are present).
	Source   string           `json:"source,omitempty"`
	Kernel   string           `json:"kernel,omitempty"`
	Features *features.Static `json:"features,omitempty"`
	Config   freq.Config      `json:"config"`
	Speedup  float64          `json:"speedup"`
	Energy   float64          `json:"norm_energy"`
}

// observation converts the report to an adapt.Observation, extracting
// features from source when no explicit vector was supplied.
func (k observeKernel) observation() (adapt.Observation, error) {
	o := adapt.Observation{
		Kernel:     k.Kernel,
		Config:     k.Config,
		Speedup:    k.Speedup,
		NormEnergy: k.Energy,
	}
	switch {
	case k.Features != nil:
		o.Features = *k.Features
	case k.Source != "":
		st, err := features.ExtractSource(k.Source, k.Kernel)
		if err != nil {
			return o, err
		}
		o.Features = st
	default:
		return o, errors.New("observation needs either source or features")
	}
	return o, nil
}

type observeRequest struct {
	Observations []observeKernel `json:"observations"`
	// Single-observation shorthand, accepted at the top level.
	observeKernel
}

// observeResult is one observation's ingest outcome.
type observeResult struct {
	Kernel string `json:"kernel,omitempty"`
	// Ingest is the controller's verdict (nil when the observation was
	// rejected, with Error explaining why).
	Ingest *adapt.IngestResult `json:"ingest,omitempty"`
	Error  string              `json:"error,omitempty"`
}

type observeResponse struct {
	ModelVersion string          `json:"model_version"`
	Results      []observeResult `json:"results"`
	// Spooled (agent mode only, with a 202 status) counts observations the
	// agent accepted into its local spool because the control plane was
	// unreachable; they flush in order on reconnect and Results carries no
	// ingest verdicts for them.
	Spooled int              `json:"spooled,omitempty"`
	Store   adapt.StoreStats `json:"store"`
}

func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req observeRequest
	if err := readJSON(r, &req, false); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	reports := req.Observations
	if req.Source != "" || req.Features != nil {
		reports = append(reports, req.observeKernel)
	}
	if len(reports) == 0 {
		writeError(w, http.StatusBadRequest, "no observations in request")
		return
	}
	version, _, _, ok := s.serving.Current()
	if !ok {
		writeError(w, http.StatusServiceUnavailable,
			"no active model version to observe against (POST /train first)")
		return
	}
	results := make([]observeResult, len(reports))
	for i, rep := range reports {
		results[i].Kernel = rep.Kernel
		o, err := rep.observation()
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		res, err := s.adapt.Observe(o)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		results[i].Ingest = &res
	}
	writeJSON(w, http.StatusOK, observeResponse{
		ModelVersion: version,
		Results:      results,
		Store:        s.adapt.StoreStats(),
	})
}

func (s *server) handleAdaptStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.adapt.Status())
}

// adaptRetrainAccepted is the 202 response to POST /adapt/retrain.
type adaptRetrainAccepted struct {
	Status string `json:"status"`
	Poll   string `json:"poll"`
}

func (s *server) handleAdaptRetrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if _, _, _, ok := s.serving.Current(); !ok {
		writeError(w, http.StatusServiceUnavailable,
			"no active model version to retrain from (POST /train first)")
		return
	}
	if err := s.adapt.StartRetrain("manual: POST /adapt/retrain"); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, adaptRetrainAccepted{
		Status: "retraining",
		Poll:   "/adapt/status",
	})
}
