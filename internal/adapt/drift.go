package adapt

import (
	"fmt"
	"math"

	"repro/internal/engine"
)

// DriftStatus is the drift detector's verdict over the rolling observation
// window, reported by GET /adapt/status and recomputed on every ingest.
// All error values are fractional RMSEs of the two objectives (0.05 = 5
// percentage points), the same unit the training residuals recorded in a
// snapshot manifest use.
type DriftStatus struct {
	// Samples is the number of observations the rolling window covered.
	Samples int `json:"samples"`
	// Window is the configured rolling-window size.
	Window int `json:"window"`
	// SpeedupRMSE and EnergyRMSE are the active model's rolling prediction
	// errors over the window.
	SpeedupRMSE float64 `json:"speedup_rmse"`
	EnergyRMSE  float64 `json:"energy_rmse"`
	// BaselineSpeedup and BaselineEnergy are the training-time residual
	// RMSEs the rolling errors are compared against.
	BaselineSpeedup float64 `json:"baseline_speedup"`
	BaselineEnergy  float64 `json:"baseline_energy"`
	// ThresholdSpeedup and ThresholdEnergy are the trigger levels
	// (DriftFactor × baseline); rolling error strictly above either one
	// signals drift.
	ThresholdSpeedup float64 `json:"threshold_speedup"`
	ThresholdEnergy  float64 `json:"threshold_energy"`
	// Drift reports whether the detector currently signals drift.
	Drift bool `json:"drift"`
	// Reason explains the verdict ("below min-samples", "within threshold",
	// or which objective tripped).
	Reason string `json:"reason"`
}

// Residuals evaluates the predictor's errors on a set of observations and
// returns the fractional RMSE per objective. Empty input returns zeros.
// It is the single definition of observation error, shared by the drift
// detector, the drift-recovery experiment, and examples/autotune.
func Residuals(pred *engine.Predictor, obs []Observation) (speedup, energy float64) {
	if len(obs) == 0 {
		return 0, 0
	}
	var ss, se float64
	for _, o := range obs {
		ds, de := obsError(pred, o)
		ss += ds * ds
		se += de * de
	}
	return rmse(ss, se, len(obs))
}

// obsError is one observation's signed prediction error per objective,
// predicted minus measured. Residuals and the drift window's per-slot memo
// (store.residuals) both use it, so they agree bit for bit.
func obsError(pred *engine.Predictor, o Observation) (ds, de float64) {
	p := pred.PredictConfig(o.Features, o.Config)
	return p.Speedup - o.Speedup, p.NormEnergy - o.NormEnergy
}

// rmse turns per-objective sums of squared errors over n observations into
// fractional RMSEs.
func rmse(ss, se float64, n int) (speedup, energy float64) {
	return math.Sqrt(ss / float64(n)), math.Sqrt(se / float64(n))
}

// detect runs the drift rule over the newest Window observations: with at
// least MinSamples of them, drift is signalled when either objective's
// rolling RMSE exceeds DriftFactor times its training-time baseline. The
// comparison is strict, so a rolling error exactly at the threshold does
// not trigger. The rolling RMSEs equal Residuals(pred, window) exactly;
// the store memoizes each observation's error per predictor.
func (c *Controller) detect(pred *engine.Predictor) DriftStatus {
	return c.judge(c.obs.residuals(pred, c.cfg.Window))
}

// judge applies the drift rule to a window's sample count and rolling
// per-objective RMSEs.
func (c *Controller) judge(samples int, rmseS, rmseE float64) DriftStatus {
	baseS, baseE := c.baselines()
	st := DriftStatus{
		Samples:          samples,
		Window:           c.cfg.Window,
		SpeedupRMSE:      rmseS,
		EnergyRMSE:       rmseE,
		BaselineSpeedup:  baseS,
		BaselineEnergy:   baseE,
		ThresholdSpeedup: c.cfg.DriftFactor * baseS,
		ThresholdEnergy:  c.cfg.DriftFactor * baseE,
	}
	if samples == 0 {
		st.Reason = "no observations"
		return st
	}
	if samples < c.cfg.MinSamples {
		st.Reason = fmt.Sprintf("below min-samples (%d < %d)", samples, c.cfg.MinSamples)
		return st
	}
	switch {
	case st.SpeedupRMSE > st.ThresholdSpeedup:
		st.Drift = true
		st.Reason = fmt.Sprintf("speedup RMSE %.4f > threshold %.4f", st.SpeedupRMSE, st.ThresholdSpeedup)
	case st.EnergyRMSE > st.ThresholdEnergy:
		st.Drift = true
		st.Reason = fmt.Sprintf("energy RMSE %.4f > threshold %.4f", st.EnergyRMSE, st.ThresholdEnergy)
	default:
		st.Reason = "within threshold"
	}
	return st
}

// baselines resolves the training-time residual baselines the thresholds
// derive from: an explicit Config override wins, then the active snapshot
// manifest's recorded residuals, then the configured floor (which also
// clamps implausibly small recorded residuals, so a near-perfect fit cannot
// make the detector hair-triggered).
func (c *Controller) baselines() (speedup, energy float64) {
	speedup, energy = c.cfg.BaselineSpeedup, c.cfg.BaselineEnergy
	if speedup > 0 && energy > 0 {
		return speedup, energy
	}
	var manS, manE float64
	if _, version, ok := c.deps.Current(); ok {
		if man, err := c.deps.Store.GetManifest(c.deps.Device, version); err == nil {
			manS, manE = man.Training.SpeedupRMSE, man.Training.EnergyRMSE
		}
	}
	if speedup <= 0 {
		speedup = math.Max(manS, c.cfg.BaselineFloor)
	}
	if energy <= 0 {
		energy = math.Max(manE, c.cfg.BaselineFloor)
	}
	return speedup, energy
}
