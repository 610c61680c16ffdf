package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestAdaptRecovery pins the drift-recovery acceptance criteria: the
// synthetic workload shift must push prediction error visibly up, the
// detector must fire and auto-retrain, the candidate must pass the holdout
// check, and the recovered error must land within 1.2× of the pre-shift
// error.
func TestAdaptRecovery(t *testing.T) {
	s := NewSuite(engine.NewDefault(engine.Options{Core: core.Options{SettingsPerKernel: 8}}))
	rep, err := s.AdaptRecovery()
	if err != nil {
		t.Fatalf("AdaptRecovery: %v", err)
	}
	if len(rep.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(rep.Phases))
	}
	pre, noAdapt, shifted, recovered := rep.Phases[0], rep.Phases[1], rep.Phases[2], rep.Phases[3]

	if pre.PooledRMSE <= 0 {
		t.Fatalf("pre-shift RMSE not measured: %+v", pre)
	}
	// The injected shift must actually hurt the frozen model: the
	// counterfactual error must sit well above the pre-shift error, or
	// the experiment demonstrates nothing.
	if noAdapt.PooledRMSE < 1.15*pre.PooledRMSE {
		t.Errorf("shift too mild: no-adapt %.4f vs pre-shift %.4f", noAdapt.PooledRMSE, pre.PooledRMSE)
	}
	if !rep.DriftDetected {
		t.Fatal("drift not detected during the shifted phase")
	}
	if rep.Activated == 0 {
		t.Fatalf("no retrain was activated: %+v", rep)
	}
	if rep.Holdout.Samples == 0 {
		t.Fatalf("holdout: %+v", rep.Holdout)
	}
	if rep.FinalVersion == pre.ModelVersion {
		t.Fatal("recovered phase served the pre-shift model: no hot-swap happened")
	}

	// The acceptance criterion: error back within 1.2× of pre-shift.
	if rep.RecoveryRatio > 1.2 {
		t.Errorf("recovery ratio %.3f, want <= 1.2 (pre %.4f, recovered %.4f)",
			rep.RecoveryRatio, pre.PooledRMSE, recovered.PooledRMSE)
	}
	// And recovery must be a real improvement over the no-adaptation
	// counterfactual.
	if recovered.PooledRMSE >= noAdapt.PooledRMSE {
		t.Errorf("no recovery: recovered %.4f >= no-adapt %.4f", recovered.PooledRMSE, noAdapt.PooledRMSE)
	}
	// The live shifted phase (retrains included) must not be materially
	// worse than the counterfactual: an early retrain on a mixed window
	// may transiently cost a little, but never much.
	if shifted.PooledRMSE > 1.15*noAdapt.PooledRMSE {
		t.Errorf("live shifted phase %.4f much worse than the frozen counterfactual %.4f",
			shifted.PooledRMSE, noAdapt.PooledRMSE)
	}

	var buf bytes.Buffer
	RenderAdaptReport(&buf, rep)
	out := buf.String()
	for _, want := range []string{"pre-shift", "no-adapt", "shifted", "recovered", "drift detected", "recovery ratio", rep.FinalVersion} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAdaptReport missing %q:\n%s", want, out)
		}
	}
}
