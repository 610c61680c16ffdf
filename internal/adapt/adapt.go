// Package adapt closes the loop between serving and training: it ingests
// measured production observations, detects when the active model's
// prediction error has drifted away from its training-time residuals, and
// retrains in the background — folding the observations into the training
// set, snapshotting the candidate through the model registry, and
// hot-swapping serving to it only after the candidate proves itself on a
// held-out slice of the very observations that triggered the retrain.
//
// The paper trains its models once, offline; the ROADMAP's production
// framing makes that a liability — workloads shift, and a frozen model
// degrades silently because prediction needs no ground truth. This package
// is the missing feedback path: gpufreqd's POST /observe feeds the bounded
// observation store, the drift detector compares the rolling error on
// those observations against the residuals recorded in the active
// snapshot's manifest, and the retrain guardrails (cooldown, minimum
// sample count, holdout check) make the loop safe to leave running
// unattended. GET /adapt/status exposes every number the loop acts on;
// POST /adapt/retrain forces an immediate, still-holdout-guarded retrain.
package adapt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
)

// Defaults applied by Config.withDefaults.
const (
	// DefaultCapacity bounds the observation store.
	DefaultCapacity = 1024
	// DefaultWindow is the rolling-error window size.
	DefaultWindow = 64
	// DefaultMinSamples gates drift detection until enough observations
	// arrived to make the rolling error meaningful.
	DefaultMinSamples = 32
	// DefaultDriftFactor triggers a retrain when the rolling RMSE exceeds
	// this multiple of the training-time residual baseline.
	DefaultDriftFactor = 2.0
	// DefaultBaselineFloor is the minimum residual baseline, guarding
	// against snapshots with no (or implausibly small) recorded residuals.
	DefaultBaselineFloor = 0.02
	// DefaultCooldown is the minimum spacing between automatic retrains.
	DefaultCooldown = 2 * time.Minute
	// DefaultHoldoutEvery holds out every n-th observation from the
	// fold-in set for the candidate-vs-active check (4 = 25% holdout).
	DefaultHoldoutEvery = 4
	// DefaultHoldoutMargin is the factor by which the candidate's holdout
	// error may exceed the active model's before it is rejected (1 = the
	// candidate must be no worse).
	DefaultHoldoutMargin = 1.0
	// DefaultObservationWeight replicates each folded-in observation this
	// many times in the training set, so a handful of live samples is not
	// drowned out by the thousands of synthetic ones.
	DefaultObservationWeight = 3
)

// ErrRetrainInProgress is returned by Retrain when another retrain (manual
// or automatic) is already running.
var ErrRetrainInProgress = errors.New("adapt: a retrain is already in progress")

// ErrNoModel is returned when the loop is asked to act before any model
// version is serving.
var ErrNoModel = errors.New("adapt: no active model version")

// Config tunes the adaptation loop. Zero values select the documented
// defaults; the drift thresholds and their operational tuning are covered
// in docs/OPERATIONS.md.
type Config struct {
	// Auto enables automatic retraining on drift and on the sample-count /
	// age policies. With Auto false the loop still ingests observations
	// and reports drift, but only POST /adapt/retrain (or Retrain) acts.
	Auto bool `json:"auto"`
	// Capacity bounds the observation store in samples (default 1024).
	Capacity int `json:"capacity"`
	// Window is the rolling window in samples (default 64, clamped to
	// Capacity). It is both the drift evidence and the retrain corpus:
	// drift is judged on the window's rolling error, and a retrain folds
	// exactly the window's observations into the training set — recent
	// samples describe the current regime; older ones (up to Capacity)
	// are retained for inspection only.
	Window int `json:"window"`
	// MinSamples gates drift detection (default 32, clamped to Window).
	MinSamples int `json:"min_samples"`
	// DriftFactor scales the residual baseline into the drift threshold
	// (default 2.0).
	DriftFactor float64 `json:"drift_factor"`
	// BaselineFloor is the minimum residual baseline (default 0.02).
	BaselineFloor float64 `json:"baseline_floor"`
	// BaselineSpeedup and BaselineEnergy override the baseline entirely
	// (0 = derive from the active snapshot's recorded residuals).
	BaselineSpeedup float64 `json:"baseline_speedup,omitempty"`
	BaselineEnergy  float64 `json:"baseline_energy,omitempty"`
	// Cooldown is the minimum spacing between automatic retrains (default
	// 2m; manual retrains ignore it).
	Cooldown time.Duration `json:"cooldown"`
	// CooldownObs additionally requires this many observations to have
	// been ingested since the last retrain before another automatic one
	// may start (0 = disabled). Useful when observation rate, not wall
	// clock, is the natural pacing unit.
	CooldownObs int `json:"cooldown_obs,omitempty"`
	// RetrainEvery triggers an automatic retrain after this many ingested
	// observations regardless of drift (0 = disabled).
	RetrainEvery int `json:"retrain_every,omitempty"`
	// MaxModelAge triggers an automatic retrain when the active snapshot
	// is older than this (0 = disabled; checked on ingest).
	MaxModelAge time.Duration `json:"max_model_age,omitempty"`
	// HoldoutEvery holds out every n-th observation for the candidate
	// check (default 4; 1 would hold out everything, so values < 2 are
	// clamped to the default).
	HoldoutEvery int `json:"holdout_every"`
	// HoldoutMargin is the candidate-vs-active tolerance (default 1.0:
	// the candidate must be no worse on the holdout).
	HoldoutMargin float64 `json:"holdout_margin"`
	// ObservationWeight replicates folded-in observations (default 3).
	ObservationWeight int `json:"observation_weight"`
	// Sync runs triggered retrains inline in Observe instead of in a
	// background goroutine — used by the experiments and tests, where the
	// deterministic ordering matters; servers leave it false.
	Sync bool `json:"-"`
}

// withDefaults resolves zero values to the documented defaults.
func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Window > c.Capacity {
		c.Window = c.Capacity
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.DriftFactor <= 0 {
		c.DriftFactor = DefaultDriftFactor
	}
	if c.BaselineFloor <= 0 {
		c.BaselineFloor = DefaultBaselineFloor
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.HoldoutEvery < 2 {
		c.HoldoutEvery = DefaultHoldoutEvery
	}
	if c.HoldoutMargin <= 0 {
		c.HoldoutMargin = DefaultHoldoutMargin
	}
	if c.ObservationWeight <= 0 {
		c.ObservationWeight = DefaultObservationWeight
	}
	return c
}

// Deps wires the controller to the serving stack it adapts. Every field is
// required.
type Deps struct {
	// Device names the GPU profile the loop serves (registry key).
	Device string
	// Store is the snapshot registry candidates are published to.
	Store *registry.Store
	// Current returns the serving predictor and its version (ok false
	// before any install) — gpufreqd adapts registry.Serving.Current.
	Current func() (*engine.Predictor, string, bool)
	// Install activates a published version and hot-swaps serving to it —
	// gpufreqd passes its activate-and-install step.
	Install func(version string, m *core.Models) error
	// Trainer produces candidate models from base corpus + observations.
	Trainer Trainer
	// Fronts optionally computes the publish-time front table for a
	// candidate model set, so adapt-published snapshots serve /select from
	// the table like training-published ones — gpufreqd passes
	// registry.ComputeFronts over the training kernels. Nil publishes
	// candidates without fronts.
	Fronts func(m *core.Models) *registry.Fronts
	// WAL optionally makes the observation store durable: every ingested
	// observation is appended to the log, and New seeds the store from the
	// log's recovered window so a daemon restart resumes the drift window
	// bit-identically instead of re-accumulating it. Nil keeps the store
	// memory-only (the pre-`-obs-dir` behaviour).
	WAL *WAL
}

// Outcomes recorded in RetrainState.LastOutcome.
const (
	// OutcomeActivated marks a retrain whose candidate passed the holdout
	// check and was hot-swapped into serving.
	OutcomeActivated = "activated"
	// OutcomeRejected marks a retrain whose candidate failed the holdout
	// check; the snapshot is published for inspection but never activated.
	OutcomeRejected = "rejected-holdout"
	// OutcomeFailed marks a retrain that errored before producing a
	// candidate.
	OutcomeFailed = "failed"
)

// Trigger-reason prefixes: trigger() builds its reasons from these.
const (
	reasonDriftPrefix  = "drift: "
	reasonSamplePrefix = "sample-count policy: "
	reasonAgePrefix    = "age policy: "
)

// HoldoutReport records the candidate-vs-active comparison of one retrain.
type HoldoutReport struct {
	// Samples is the number of held-out observations compared on.
	Samples int `json:"samples"`
	// CandidateRMSE and ActiveRMSE pool both objectives' errors on the
	// holdout into one fractional RMSE each.
	CandidateRMSE float64 `json:"candidate_rmse"`
	ActiveRMSE    float64 `json:"active_rmse"`
	// Margin is the configured tolerance the comparison used.
	Margin float64 `json:"margin"`
	// Passed reports whether the candidate was allowed to activate.
	Passed bool `json:"passed"`
}

// RetrainState summarizes the loop's retraining history for /adapt/status.
type RetrainState struct {
	// InProgress reports whether a retrain is currently running.
	InProgress bool `json:"in_progress"`
	// Retrains counts completed retrains (any outcome); Activated and
	// Rejected split them by holdout verdict.
	Retrains  int `json:"retrains"`
	Activated int `json:"activated"`
	Rejected  int `json:"rejected"`
	// LastOutcome is OutcomeActivated, OutcomeRejected or OutcomeFailed
	// ("" before the first retrain); LastError carries the failure text.
	LastOutcome string `json:"last_outcome,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	// LastVersion is the registry version the last retrain published.
	LastVersion string `json:"last_version,omitempty"`
	// LastReason records what triggered the last retrain.
	LastReason string `json:"last_reason,omitempty"`
	// LastAt is when the last retrain finished.
	LastAt time.Time `json:"last_at,omitempty"`
	// LastHoldout is the last retrain's holdout comparison.
	LastHoldout *HoldoutReport `json:"last_holdout,omitempty"`
	// CooldownUntil is when the next automatic retrain may start.
	CooldownUntil time.Time `json:"cooldown_until,omitempty"`
}

// Status is the full adaptation-loop snapshot behind GET /adapt/status.
type Status struct {
	// Auto reports whether automatic retraining is enabled.
	Auto bool `json:"auto"`
	// ModelVersion is the serving version the loop evaluates against.
	ModelVersion string `json:"model_version,omitempty"`
	// Store is the observation store's accounting.
	Store StoreStats `json:"store"`
	// Drift is the detector's current verdict.
	Drift DriftStatus `json:"drift"`
	// Retrain is the retraining history and in-flight state.
	Retrain RetrainState `json:"retrain"`
	// WAL is the durable log's accounting (absent when the store is
	// memory-only).
	WAL *WALStats `json:"wal,omitempty"`
	// Config echoes the resolved loop configuration.
	Config Config `json:"config"`
}

// IngestResult reports what one Observe call did.
type IngestResult struct {
	// Stored reports whether the observation passed validation.
	Stored bool `json:"stored"`
	// Drift is the detector's verdict after the ingest.
	Drift DriftStatus `json:"drift"`
	// RetrainStarted reports whether this ingest triggered a retrain.
	RetrainStarted bool `json:"retrain_started"`
	// Reason names the trigger when RetrainStarted is true.
	Reason string `json:"reason,omitempty"`
}

// Controller runs the adaptation loop for one serving stack. All methods
// are safe for concurrent use.
type Controller struct {
	cfg  Config
	deps Deps
	obs  *store

	retrainMu sync.Mutex // held for a retrain's whole duration

	mu            sync.Mutex // guards the fields below
	state         RetrainState
	sinceRetrain  int       // observations ingested since the last retrain
	lastAutoStart time.Time // cooldown anchor
}

// New builds a controller; zero Config fields select the defaults. When
// Deps.WAL is set, the store is seeded from the log's recovered window —
// stats, drift baseline and node attribution resume exactly where the
// previous process stopped.
func New(cfg Config, deps Deps) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, deps: deps, obs: newStore(cfg.Capacity)}
	if deps.WAL != nil {
		c.obs.restore(deps.WAL.Recovered())
	}
	return c
}

// Observe validates and ingests one observation, re-evaluates drift, and —
// when automatic retraining is enabled — starts a guarded retrain if a
// trigger fires. Invalid observations are rejected with an error and never
// enter the store.
func (c *Controller) Observe(o Observation) (IngestResult, error) {
	if err := o.Validate(); err != nil {
		return IngestResult{}, err
	}
	pred, _, ok := c.deps.Current()
	if !ok {
		return IngestResult{}, ErrNoModel
	}
	o.At = time.Now().UTC()
	c.obs.add(o)
	if c.deps.WAL != nil {
		// A log failure degrades durability, not serving: the in-memory
		// ingest stands and the error is visible in Status().WAL.
		_ = c.deps.WAL.Append(o)
	}
	c.mu.Lock()
	c.sinceRetrain++
	c.mu.Unlock()

	res := IngestResult{Stored: true, Drift: c.detect(pred)}
	if !c.cfg.Auto {
		return res, nil
	}
	reason, ok := c.trigger(res.Drift)
	if !ok {
		return res, nil
	}
	res.Reason = reason
	if c.cfg.Sync {
		_, err := c.Retrain(context.Background(), reason)
		res.RetrainStarted = !errors.Is(err, ErrRetrainInProgress)
		if res.RetrainStarted {
			c.commitCooldown()
			if err != nil {
				// The retrain ran and failed; the failure is recorded in
				// the status history, not surfaced as an ingest error.
				res.Reason = reason + ": " + err.Error()
			}
		}
		return res, nil
	}
	if res.RetrainStarted = c.StartRetrain(reason) == nil; res.RetrainStarted {
		c.commitCooldown()
	}
	return res, nil
}

// commitCooldown anchors the cooldowns at an automatic retrain's actual
// start. It is deliberately not part of trigger(): a trigger that loses
// the race to an already-running retrain must not consume the cooldown,
// or the drift it proved could go unactioned for a whole extra period.
func (c *Controller) commitCooldown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.lastAutoStart = now
	c.state.CooldownUntil = now.Add(c.cfg.Cooldown)
}

// StartRetrain launches one guarded retrain in a background goroutine,
// returning ErrRetrainInProgress when another retrain already holds the
// lock. The outcome lands in the status history (Status().Retrain).
func (c *Controller) StartRetrain(reason string) error {
	if !c.retrainMu.TryLock() {
		return ErrRetrainInProgress
	}
	go func() {
		defer c.retrainMu.Unlock()
		c.retrainLocked(context.Background(), reason)
	}()
	return nil
}

// trigger decides whether an automatic retrain should start now and names
// the policy that fired. The cooldown applies to every automatic trigger.
func (c *Controller) trigger(drift DriftStatus) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if !c.lastAutoStart.IsZero() && now.Sub(c.lastAutoStart) < c.cfg.Cooldown {
		return "", false
	}
	if c.cfg.CooldownObs > 0 && c.state.Retrains > 0 && c.sinceRetrain < c.cfg.CooldownObs {
		return "", false
	}
	if drift.Drift {
		return reasonDriftPrefix + drift.Reason, true
	}
	if c.cfg.RetrainEvery > 0 && c.sinceRetrain >= c.cfg.RetrainEvery {
		return fmt.Sprintf("%s%d observations since last retrain", reasonSamplePrefix, c.sinceRetrain), true
	}
	if c.cfg.MaxModelAge > 0 {
		if age, ok := c.modelAge(now); ok && age > c.cfg.MaxModelAge {
			return fmt.Sprintf("%sactive model is %s old", reasonAgePrefix, age.Round(time.Second)), true
		}
	}
	return "", false
}

// modelAge returns how long ago the active snapshot was created. Caller
// holds mu (the manifest read does not take it).
func (c *Controller) modelAge(now time.Time) (time.Duration, bool) {
	_, version, ok := c.deps.Current()
	if !ok {
		return 0, false
	}
	man, err := c.deps.Store.GetManifest(c.deps.Device, version)
	if err != nil || man.CreatedAt.IsZero() {
		return 0, false
	}
	return now.Sub(man.CreatedAt), true
}

// Retrain runs one guarded retrain synchronously: fold the stored
// observations into the training set, fit a candidate, publish it to the
// registry, and activate it only if it passes the holdout check. It is the
// shared body of every trigger and of POST /adapt/retrain; manual calls
// ignore the cooldown and the drift gate but never the holdout guard.
// ErrRetrainInProgress is returned when another retrain holds the lock.
func (c *Controller) Retrain(ctx context.Context, reason string) (RetrainState, error) {
	if !c.retrainMu.TryLock() {
		return c.snapshotState(), ErrRetrainInProgress
	}
	defer c.retrainMu.Unlock()
	return c.retrainLocked(ctx, reason)
}

// retrainLocked is the retrain body; caller holds retrainMu.
func (c *Controller) retrainLocked(ctx context.Context, reason string) (RetrainState, error) {
	c.mu.Lock()
	c.state.InProgress = true
	c.state.LastReason = reason
	c.mu.Unlock()

	st, err := c.runRetrain(ctx, reason)

	c.mu.Lock()
	// CooldownUntil may have been committed by the triggering Observe
	// while this retrain ran; the completion write must not clobber it
	// with the stale value snapshotted at retrain start.
	st.CooldownUntil = c.state.CooldownUntil
	c.state = st
	c.state.InProgress = false
	c.sinceRetrain = 0
	c.mu.Unlock()
	return st, err
}

// runRetrain performs the fit/publish/holdout/activate sequence and
// returns the updated history entry.
func (c *Controller) runRetrain(ctx context.Context, reason string) (RetrainState, error) {
	st := c.snapshotState()
	finish := func(outcome, version string, hr *HoldoutReport, err error) (RetrainState, error) {
		st.Retrains++
		st.LastOutcome = outcome
		st.LastVersion = version
		st.LastReason = reason
		st.LastAt = time.Now().UTC()
		st.LastHoldout = hr
		st.LastError = ""
		if err != nil {
			st.LastError = err.Error()
		}
		switch outcome {
		case OutcomeActivated:
			st.Activated++
		case OutcomeRejected:
			st.Rejected++
		}
		return st, err
	}

	pred, _, ok := c.deps.Current()
	if !ok {
		return finish(OutcomeFailed, "", nil, ErrNoModel)
	}
	// The rolling window is the retrain corpus: it is the evidence the
	// drift verdict was reached on, and it describes the current regime —
	// observations older than the window may predate a workload shift and
	// would teach the candidate the very behaviour being drifted from.
	foldIn, holdout := c.split(c.obs.tail(c.cfg.Window))
	samples := make([]core.Sample, 0, len(foldIn)*c.cfg.ObservationWeight)
	for _, o := range foldIn {
		s := o.Sample()
		for i := 0; i < c.cfg.ObservationWeight; i++ {
			samples = append(samples, s)
		}
	}
	models, tr, err := c.deps.Trainer.Fit(ctx, samples, nil)
	if err != nil {
		return finish(OutcomeFailed, "", nil, fmt.Errorf("adapt: training candidate: %w", err))
	}
	// The manifest records distinct live observations, not the
	// weight-replicated sample count the trainer saw.
	tr.Observations = len(foldIn)

	version, err := c.deps.Store.Reserve(c.deps.Device)
	if err != nil {
		return finish(OutcomeFailed, "", nil, fmt.Errorf("adapt: reserving version: %w", err))
	}
	var fronts *registry.Fronts
	if c.deps.Fronts != nil {
		fronts = c.deps.Fronts(models)
	}
	if _, err := c.deps.Store.SaveWithFronts(c.deps.Device, version, models, tr, fronts); err != nil {
		return finish(OutcomeFailed, version, nil, fmt.Errorf("adapt: publishing candidate: %w", err))
	}

	hr := c.compare(pred, models, holdout)
	if !hr.Passed {
		return finish(OutcomeRejected, version, &hr,
			fmt.Errorf("adapt: candidate %s failed the holdout check (candidate %.4f vs active %.4f over %d samples)",
				version, hr.CandidateRMSE, hr.ActiveRMSE, hr.Samples))
	}
	if err := c.deps.Install(version, models); err != nil {
		return finish(OutcomeFailed, version, &hr, fmt.Errorf("adapt: activating %s: %w", version, err))
	}
	return finish(OutcomeActivated, version, &hr, nil)
}

// split partitions the observations into fold-in and holdout sets: every
// HoldoutEvery-th observation (by arrival order) is held out, so the
// holdout spans the whole window rather than just its newest tail. When
// there are observations but fewer than HoldoutEvery, the newest one is
// held out anyway — the holdout guard must never be vacuous while there
// is any evidence to judge a candidate on (manual retrains skip the
// min-samples gate, so this path is reachable).
func (c *Controller) split(obs []Observation) (foldIn, holdout []Observation) {
	for i, o := range obs {
		if (i+1)%c.cfg.HoldoutEvery == 0 {
			holdout = append(holdout, o)
		} else {
			foldIn = append(foldIn, o)
		}
	}
	if len(holdout) == 0 && len(obs) > 0 {
		foldIn, holdout = obs[:len(obs)-1], obs[len(obs)-1:]
	}
	return foldIn, holdout
}

// compare evaluates candidate and active models on the holdout and applies
// the margin. An empty holdout passes vacuously — split guarantees that
// only happens when there are no observations at all, i.e. a plain
// retrain with no evidence to judge against.
func (c *Controller) compare(active *engine.Predictor, candidate *core.Models, holdout []Observation) HoldoutReport {
	hr := HoldoutReport{Samples: len(holdout), Margin: c.cfg.HoldoutMargin}
	if len(holdout) == 0 {
		hr.Passed = true
		return hr
	}
	var candSq, actSq float64
	for _, o := range holdout {
		v := o.Sample().Vector.Slice()
		ds := candidate.Speedup.Predict(v) - o.Speedup
		de := candidate.Energy.Predict(v) - o.NormEnergy
		candSq += (ds*ds + de*de) / 2
		p := active.PredictConfig(o.Features, o.Config)
		ds = p.Speedup - o.Speedup
		de = p.NormEnergy - o.NormEnergy
		actSq += (ds*ds + de*de) / 2
	}
	n := float64(len(holdout))
	hr.CandidateRMSE = math.Sqrt(candSq / n)
	hr.ActiveRMSE = math.Sqrt(actSq / n)
	hr.Passed = hr.CandidateRMSE <= hr.ActiveRMSE*hr.Margin
	return hr
}

// snapshotState copies the retrain history under the lock.
func (c *Controller) snapshotState() RetrainState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Status assembles the full loop snapshot: store accounting, the drift
// verdict over the current window, and the retrain history.
func (c *Controller) Status() Status {
	st := Status{
		Auto:    c.cfg.Auto,
		Store:   c.obs.stats(),
		Retrain: c.snapshotState(),
		Config:  c.cfg,
	}
	if c.deps.WAL != nil {
		ws := c.deps.WAL.Stats()
		st.WAL = &ws
	}
	if pred, version, ok := c.deps.Current(); ok {
		st.ModelVersion = version
		st.Drift = c.detect(pred)
	}
	return st
}

// StoreStats returns the observation store's accounting without
// recomputing the drift verdict — the cheap subset of Status for ingest
// responses.
func (c *Controller) StoreStats() StoreStats { return c.obs.stats() }
