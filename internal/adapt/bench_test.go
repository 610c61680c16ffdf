package adapt

// The retrain benchmark runs at the paper's full scale: 106
// micro-benchmarks × 40 sampled settings, plus a 48-observation window
// folded in at weight 3, the adaptation loop's defaults.

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// benchExtra builds the adaptation batch: nobs distinct observations,
// weight-replicated w times each, the exact sample shape runRetrain hands
// the trainer. Targets deviate ±0.2 from nominal — roughly the 2×-baseline
// error level at which the drift detector actually fires a retrain — so
// many rows land outside the ε-tube (ε = 0.1) and the fits must genuinely
// incorporate them.
func benchExtra(nobs, w int) []core.Sample {
	out := make([]core.Sample, 0, nobs*w)
	for i := 0; i < nobs; i++ {
		dev := 0.2 * math.Sin(float64(i)*2.399963)
		o := obs(1.0+dev, 0.95+0.8*dev)
		o.Features[1] = 0.1 + 0.01*float64(i%5)
		o.Features[2] = float64(i) / float64(nobs)
		s := o.Sample()
		for j := 0; j < w; j++ {
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkRetrain times one retrain fit, the corpus plus the observation
// window, after a first fit has built and cached the trainer's base
// matrix.
func BenchmarkRetrain(b *testing.B) {
	eng := engine.NewDefault(engine.Options{Core: core.Options{SettingsPerKernel: 40}})
	tr := NewEngineTrainer(eng, nil)
	if _, _, err := tr.Fit(context.Background(), nil, nil); err != nil {
		b.Fatalf("base fit: %v", err)
	}
	extra := benchExtra(48, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Fit(context.Background(), extra, nil); err != nil {
			b.Fatal(err)
		}
	}
}
