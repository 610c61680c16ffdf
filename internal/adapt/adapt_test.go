package adapt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/freq"
	"repro/internal/gpu"
	"repro/internal/registry"
	"repro/internal/svm"
)

// constModel builds a support-vector-free model that predicts exactly b
// everywhere — the exact arithmetic the threshold-boundary test relies on.
func constModel(t *testing.T, b float64) *svm.Model {
	t.Helper()
	doc := `{"kernel":{"type":"linear"},"support_vectors":[],"coefs":[],"b":` +
		strconv.FormatFloat(b, 'g', -1, 64) + `}`
	m, err := svm.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// constModels pairs two constant models into a model set.
func constModels(t *testing.T, speedup, energy float64) *core.Models {
	t.Helper()
	return &core.Models{Speedup: constModel(t, speedup), Energy: constModel(t, energy)}
}

// rig is a minimal serving stack for controller tests: an in-memory
// registry, a current (predictor, version) pair, and an install recorder.
type rig struct {
	t     *testing.T
	store *registry.Store

	mu       sync.Mutex
	version  string
	pred     *engine.Predictor
	installs []string
}

func newRig(t *testing.T, m *core.Models, tr registry.Training) *rig {
	t.Helper()
	store, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Save("titanx", "", m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate("titanx", man.Version); err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, store: store}
	r.setCurrent(man.Version, m)
	return r
}

func (r *rig) setCurrent(version string, m *core.Models) {
	pred := engine.NewPredictor(m, gpu.TitanX().Ladder, engine.Options{Workers: 1})
	r.mu.Lock()
	r.version, r.pred = version, pred
	r.mu.Unlock()
}

func (r *rig) current() (*engine.Predictor, string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pred, r.version, r.pred != nil
}

func (r *rig) install(version string, m *core.Models) error {
	r.mu.Lock()
	r.installs = append(r.installs, version)
	r.mu.Unlock()
	r.setCurrent(version, m)
	return nil
}

func (r *rig) installed() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.installs...)
}

func (r *rig) deps(tr Trainer) Deps {
	return Deps{Device: "titanx", Store: r.store, Current: r.current, Install: r.install, Trainer: tr}
}

// fakeTrainer returns fixed candidate models without any real training.
type fakeTrainer struct {
	models *core.Models
	err    error
}

func (f fakeTrainer) Fit(ctx context.Context, extra []core.Sample, prior *core.Models) (*core.Models, registry.Training, error) {
	if f.err != nil {
		return nil, registry.Training{}, f.err
	}
	return f.models, registry.Training{Observations: len(extra)}, nil
}

// obs builds a valid observation with the given measured objectives.
func obs(speedup, energy float64) Observation {
	var st features.Static
	st[0] = 0.5
	return Observation{
		Kernel:     "k",
		Features:   st,
		Config:     freq.Config{Mem: 3505, Core: 1000},
		Speedup:    speedup,
		NormEnergy: energy,
	}
}

func TestObserveRejectsInvalid(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))

	bad := []Observation{
		func() Observation { o := obs(1, 1); o.Speedup = math.NaN(); return o }(),
		func() Observation { o := obs(1, 1); o.Speedup = math.Inf(1); return o }(),
		func() Observation { o := obs(1, 1); o.NormEnergy = math.Inf(-1); return o }(),
		func() Observation { o := obs(1, 1); o.NormEnergy = math.NaN(); return o }(),
		func() Observation { o := obs(1, 1); o.Speedup = 0; return o }(),
		func() Observation { o := obs(1, 1); o.NormEnergy = -0.5; return o }(),
		func() Observation { o := obs(1, 1); o.Config = freq.Config{}; return o }(),
		func() Observation {
			o := obs(1, 1)
			for i := range o.Features {
				o.Features[i] = 0.5 // sums to 5 > 1: invalid
			}
			return o
		}(),
		func() Observation { o := obs(1, 1); o.Features[0] = math.NaN(); return o }(),
	}
	for i, o := range bad {
		if _, err := c.Observe(o); err == nil {
			t.Errorf("observation %d accepted, want rejection: %+v", i, o)
		}
	}
	if st := c.Status(); st.Store.Count != 0 || st.Store.Total != 0 {
		t.Errorf("store not empty after rejections: %+v", st.Store)
	}
}

func TestDriftEmptyStore(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))
	st := c.Status()
	if st.Drift.Drift {
		t.Error("empty store signalled drift")
	}
	if st.Drift.Samples != 0 || st.Drift.Reason != "no observations" {
		t.Errorf("unexpected drift status: %+v", st.Drift)
	}
	if st.ModelVersion != "v0001" {
		t.Errorf("ModelVersion = %q, want v0001", st.ModelVersion)
	}
}

func TestDriftAllIdenticalObservations(t *testing.T) {
	// Identical observations that match the model exactly: rolling error is
	// exactly zero and must not drift.
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{MinSamples: 4}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))
	for i := 0; i < 8; i++ {
		res, err := c.Observe(obs(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Drift.Drift {
			t.Fatalf("identical perfect observations signalled drift: %+v", res.Drift)
		}
	}
	st := c.Status()
	if st.Drift.SpeedupRMSE != 0 || st.Drift.EnergyRMSE != 0 {
		t.Errorf("rolling RMSE = (%g, %g), want exactly zero", st.Drift.SpeedupRMSE, st.Drift.EnergyRMSE)
	}
	if st.Drift.Reason != "within threshold" {
		t.Errorf("reason = %q", st.Drift.Reason)
	}
}

func TestDriftThresholdBoundary(t *testing.T) {
	// Baseline 0.125, factor 2 ⇒ threshold exactly 0.25. Observations with
	// measured speedup 0.75 against a model predicting exactly 1.0 have an
	// error of exactly 0.25 — at the threshold, which must NOT trigger
	// (strict comparison). One worse observation pushes past it.
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{
		MinSamples:      4,
		Window:          8,
		DriftFactor:     2,
		BaselineSpeedup: 0.125,
		BaselineEnergy:  8, // energy never trips in this test
	}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))

	var last IngestResult
	for i := 0; i < 8; i++ {
		var err error
		last, err = c.Observe(obs(0.75, 1))
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Drift.SpeedupRMSE != 0.25 {
		t.Fatalf("rolling speedup RMSE = %v, want exactly 0.25", last.Drift.SpeedupRMSE)
	}
	if last.Drift.ThresholdSpeedup != 0.25 {
		t.Fatalf("threshold = %v, want exactly 0.25", last.Drift.ThresholdSpeedup)
	}
	if last.Drift.Drift {
		t.Fatal("rolling error exactly at the threshold triggered drift (comparison must be strict)")
	}

	// One clearly-worse observation lifts the RMSE above the threshold.
	res, err := c.Observe(obs(0.25, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drift.Drift {
		t.Fatalf("drift not signalled above threshold: %+v", res.Drift)
	}
	if !strings.Contains(res.Drift.Reason, "speedup RMSE") {
		t.Errorf("reason = %q, want the tripped objective named", res.Drift.Reason)
	}
}

func TestBaselineFromManifestResiduals(t *testing.T) {
	// With no explicit override, the baseline comes from the active
	// snapshot's recorded training residuals, floored by BaselineFloor.
	r := newRig(t, constModels(t, 1, 1), registry.Training{SpeedupRMSE: 0.5, EnergyRMSE: 0.001})
	c := New(Config{}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))
	if _, err := c.Observe(obs(1, 1)); err != nil {
		t.Fatal(err)
	}
	d := c.Status().Drift
	if d.BaselineSpeedup != 0.5 {
		t.Errorf("speedup baseline = %v, want the manifest residual 0.5", d.BaselineSpeedup)
	}
	if d.BaselineEnergy != DefaultBaselineFloor {
		t.Errorf("energy baseline = %v, want the floor %v (manifest residual below it)",
			d.BaselineEnergy, DefaultBaselineFloor)
	}
}

// TestHoldoutRejectionNeverActivates pins the acceptance criterion: a
// candidate that is worse than the active model on the held-out
// observations is published for inspection but never activated — serving
// keeps the old version.
func TestHoldoutRejectionNeverActivates(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	// Observations agree perfectly with the active model; the candidate
	// predicts 5.0 everywhere and is therefore strictly worse on holdout.
	c := New(Config{}, r.deps(fakeTrainer{models: constModels(t, 5, 5)}))
	for i := 0; i < 16; i++ {
		if _, err := c.Observe(obs(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Retrain(context.Background(), "manual test")
	if err == nil {
		t.Fatal("retrain with a worse candidate reported success")
	}
	if st.LastOutcome != OutcomeRejected {
		t.Fatalf("outcome = %q, want %q (err: %v)", st.LastOutcome, OutcomeRejected, err)
	}
	if st.Rejected != 1 || st.Activated != 0 {
		t.Fatalf("counters: %+v", st)
	}
	if st.LastHoldout == nil || st.LastHoldout.Passed {
		t.Fatalf("holdout report: %+v", st.LastHoldout)
	}
	if got := r.installed(); len(got) != 0 {
		t.Fatalf("rejected candidate was installed: %v", got)
	}
	if _, version, _ := r.current(); version != "v0001" {
		t.Fatalf("serving version = %q, want unchanged v0001", version)
	}
	// The rejected candidate is still published (inspectable, manually
	// activatable) under the reserved version.
	if st.LastVersion == "" {
		t.Fatal("rejected candidate has no published version")
	}
	if _, err := r.store.GetManifest("titanx", st.LastVersion); err != nil {
		t.Fatalf("rejected candidate %s not in the registry: %v", st.LastVersion, err)
	}
	if st, _ := r.store.ActiveState("titanx"); st.Version != "v0001" {
		t.Fatalf("registry active pointer moved to %s", st.Version)
	}
}

func TestHoldoutPassActivates(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	// Observations measure 0.8 while the active model predicts 1.0; the
	// candidate predicts 0.8 and wins the holdout comparison.
	c := New(Config{}, r.deps(fakeTrainer{models: constModels(t, 0.8, 0.8)}))
	for i := 0; i < 16; i++ {
		if _, err := c.Observe(obs(0.8, 0.8)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Retrain(context.Background(), "manual test")
	if err != nil {
		t.Fatal(err)
	}
	if st.LastOutcome != OutcomeActivated || st.Activated != 1 {
		t.Fatalf("outcome: %+v", st)
	}
	if got := r.installed(); len(got) != 1 || got[0] != st.LastVersion {
		t.Fatalf("installs = %v, want [%s]", got, st.LastVersion)
	}
	if _, version, _ := r.current(); version != st.LastVersion {
		t.Fatalf("serving %q, want %q", version, st.LastVersion)
	}
	if st.LastHoldout == nil || !st.LastHoldout.Passed || st.LastHoldout.Samples == 0 {
		t.Fatalf("holdout report: %+v", st.LastHoldout)
	}
}

func TestAutoRetrainOnDriftWithCooldown(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{
		Auto:            true,
		Sync:            true,
		MinSamples:      4,
		BaselineSpeedup: 0.02,
		BaselineEnergy:  0.02,
		Cooldown:        time.Hour,
	}, r.deps(fakeTrainer{models: constModels(t, 0.5, 0.5)}))

	var started int
	var reason string
	for i := 0; i < 12; i++ {
		res, err := c.Observe(obs(0.5, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if res.RetrainStarted {
			started++
			if reason == "" {
				reason = res.Reason
			}
		}
	}
	if started != 1 {
		t.Fatalf("retrains started = %d, want exactly 1 (cooldown must gate repeats)", started)
	}
	if !strings.HasPrefix(reason, "drift:") {
		t.Errorf("trigger reason = %q, want a drift reason", reason)
	}
	st := c.Status()
	if st.Retrain.Retrains != 1 || st.Retrain.LastOutcome != OutcomeActivated {
		t.Fatalf("retrain state: %+v", st.Retrain)
	}
	if st.Retrain.CooldownUntil.IsZero() {
		t.Error("cooldown not recorded")
	}
}

func TestAutoRetrainSampleCountPolicy(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{
		Auto:         true,
		Sync:         true,
		RetrainEvery: 5,
		Cooldown:     time.Nanosecond,
	}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))

	for i := 0; i < 4; i++ {
		res, err := c.Observe(obs(1, 1)) // no drift: observations are perfect
		if err != nil {
			t.Fatal(err)
		}
		if res.RetrainStarted {
			t.Fatalf("retrain started after %d observations, want 5", i+1)
		}
	}
	res, err := c.Observe(obs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.RetrainStarted {
		t.Fatal("sample-count policy did not trigger on the 5th observation")
	}
	if !strings.Contains(res.Reason, "sample-count policy") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestAutoDisabledNeverRetrains(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{
		Auto:            false,
		MinSamples:      2,
		BaselineSpeedup: 0.02,
		BaselineEnergy:  0.02,
	}, r.deps(fakeTrainer{models: constModels(t, 0.5, 0.5)}))
	for i := 0; i < 8; i++ {
		res, err := c.Observe(obs(0.5, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if res.RetrainStarted {
			t.Fatal("auto-disabled controller started a retrain")
		}
	}
	if st := c.Status(); !st.Drift.Drift {
		t.Error("drift should still be reported with auto off")
	} else if st.Retrain.Retrains != 0 {
		t.Errorf("retrains = %d, want 0", st.Retrain.Retrains)
	}
}

func TestRetrainInProgressRejected(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))
	c.retrainMu.Lock()
	defer c.retrainMu.Unlock()
	if _, err := c.Retrain(context.Background(), "blocked"); !errors.Is(err, ErrRetrainInProgress) {
		t.Fatalf("err = %v, want ErrRetrainInProgress", err)
	}
}

func TestRetrainFailureRecorded(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{}, r.deps(fakeTrainer{err: fmt.Errorf("solver exploded")}))
	for i := 0; i < 4; i++ {
		if _, err := c.Observe(obs(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Retrain(context.Background(), "manual")
	if err == nil {
		t.Fatal("failing trainer reported success")
	}
	if st.LastOutcome != OutcomeFailed || !strings.Contains(st.LastError, "solver exploded") {
		t.Fatalf("state: %+v", st)
	}
	if got := r.installed(); len(got) != 0 {
		t.Fatalf("failed retrain installed %v", got)
	}
}

func TestStoreBoundEvictsOldest(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{Capacity: 4}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))
	for i := 0; i < 10; i++ {
		o := obs(1, 1)
		o.Kernel = fmt.Sprintf("k%d", i)
		if _, err := c.Observe(o); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Status().Store
	if st.Count != 4 || st.Total != 10 || st.Dropped != 6 {
		t.Fatalf("store stats: %+v", st)
	}
	kept := c.obs.tail(math.MaxInt)
	if len(kept) != 4 || kept[0].Kernel != "k6" || kept[3].Kernel != "k9" {
		t.Fatalf("kept observations: %+v", kept)
	}
}

// TestHoldoutNeverVacuousWithEvidence pins the manual-retrain guardrail:
// even with fewer observations than HoldoutEvery (where the modular split
// would hold out nothing), a worse candidate must still be judged — and
// rejected — on the evidence that exists.
func TestHoldoutNeverVacuousWithEvidence(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{}, r.deps(fakeTrainer{models: constModels(t, 5, 5)}))
	for i := 0; i < 3; i++ { // below HoldoutEvery (4)
		if _, err := c.Observe(obs(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Retrain(context.Background(), "manual with little evidence")
	if err == nil || st.LastOutcome != OutcomeRejected {
		t.Fatalf("outcome = %q (err %v), want %q: 3 observations must yield a non-empty holdout",
			st.LastOutcome, err, OutcomeRejected)
	}
	if st.LastHoldout == nil || st.LastHoldout.Samples != 1 {
		t.Fatalf("holdout: %+v, want exactly the newest observation held out", st.LastHoldout)
	}
	if _, version, _ := r.current(); version != "v0001" {
		t.Fatalf("serving moved to %q", version)
	}
}

func TestHoldoutSplitSpansWindow(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{HoldoutEvery: 4}, r.deps(fakeTrainer{models: constModels(t, 1, 1)}))
	var all []Observation
	for i := 0; i < 10; i++ {
		o := obs(1, 1)
		o.Kernel = fmt.Sprintf("k%d", i)
		all = append(all, o)
	}
	foldIn, holdout := c.split(all)
	if len(foldIn) != 8 || len(holdout) != 2 {
		t.Fatalf("split %d/%d, want 8/2", len(foldIn), len(holdout))
	}
	if holdout[0].Kernel != "k3" || holdout[1].Kernel != "k7" {
		t.Fatalf("holdout = %v, want every 4th observation", holdout)
	}
}

// priorTrainer is a fakeTrainer that fails any Fit handed a prior: every
// retrain, automatic or manual, fits from scratch.
type priorTrainer struct{ fakeTrainer }

func (p priorTrainer) Fit(ctx context.Context, extra []core.Sample, prior *core.Models) (*core.Models, registry.Training, error) {
	if prior != nil {
		return nil, registry.Training{}, fmt.Errorf("retrain passed a prior model set")
	}
	return p.fakeTrainer.Fit(ctx, extra, prior)
}

func TestAutoRetrainFitsCold(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{Auto: true, Sync: true, RetrainEvery: 5}, r.deps(priorTrainer{fakeTrainer{models: constModels(t, 1, 1)}}))
	for i := 0; i < 5; i++ {
		if _, err := c.Observe(obs(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Status().Retrain
	if st.Retrains != 1 || st.LastOutcome != OutcomeActivated {
		t.Fatalf("sample-count retrain: %d retrains, outcome %q (%s)", st.Retrains, st.LastOutcome, st.LastError)
	}
}

// countingTrainer is a priorTrainer that records the prior of every Fit call.
type countingTrainer struct {
	priorTrainer

	mu     sync.Mutex
	priors []*core.Models
}

func (c *countingTrainer) Fit(ctx context.Context, extra []core.Sample, prior *core.Models) (*core.Models, registry.Training, error) {
	c.mu.Lock()
	c.priors = append(c.priors, prior)
	c.mu.Unlock()
	return c.priorTrainer.Fit(ctx, extra, prior)
}

// A trainer that fails every fit seeded from a prior cannot break an
// automatic retrain: the controller makes exactly one fit, cold, with no
// warm attempt and no fallback retry, and activates its result.
func TestWarmFitFailureFallsBackCold(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	tr := &countingTrainer{priorTrainer: priorTrainer{fakeTrainer{models: constModels(t, 1, 1)}}}
	c := New(Config{Auto: true, Sync: true, RetrainEvery: 5, Cooldown: time.Hour}, r.deps(tr))
	for i := 0; i < 5; i++ {
		if _, err := c.Observe(obs(1, 1)); err != nil {
			t.Fatal(err)
		}
	}

	tr.mu.Lock()
	priors := append([]*core.Models(nil), tr.priors...)
	tr.mu.Unlock()
	if len(priors) != 1 || priors[0] != nil {
		t.Fatalf("trainer priors = %v, want exactly one cold fit", priors)
	}
	st := c.Status().Retrain
	if st.LastOutcome != OutcomeActivated {
		t.Fatalf("retrain outcome = %s (%s), want activated", st.LastOutcome, st.LastError)
	}
	man, err := r.store.GetManifest("titanx", st.LastVersion)
	if err != nil {
		t.Fatal(err)
	}
	if man.Training.Observations == 0 {
		t.Errorf("published manifest records no observations: %+v", man.Training)
	}
}

func TestManualRetrainAlwaysCold(t *testing.T) {
	r := newRig(t, constModels(t, 1, 1), registry.Training{})
	c := New(Config{}, r.deps(priorTrainer{fakeTrainer{models: constModels(t, 1, 1)}}))
	for i := 0; i < 4; i++ {
		if _, err := c.Observe(obs(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Retrain(context.Background(), "manual test")
	if err != nil {
		t.Fatal(err)
	}
	if st.LastOutcome != OutcomeActivated {
		t.Fatalf("manual retrain outcome %q (%s), want activated", st.LastOutcome, st.LastError)
	}
}
