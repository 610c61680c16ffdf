package experiments

import (
	"strings"
	"testing"
)

// TestHotPathReport smoke-tests the serve-hot-path table on the shared
// small suite: every layer is present, costs are positive, and the
// publish-time front table beats the live decision paths by orders of
// magnitude. The columnar-versus-sweep comparison, whose margin is too
// thin for a loaded runner, is BenchmarkHotPathColumnar.
func TestHotPathReport(t *testing.T) {
	s := suite(t)
	rep, err := s.HotPath()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kernels != 106 || rep.Configs == 0 {
		t.Fatalf("unexpected shape: %d kernels, %d configs", rep.Kernels, rep.Configs)
	}
	want := []string{"front table", "sweep LRU", "per-kernel sweep", "columnar batch"}
	if len(rep.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(want))
	}
	byLayer := map[string]HotPathRow{}
	for i, row := range rep.Rows {
		if row.Layer != want[i] {
			t.Fatalf("row %d is %q, want %q", i, row.Layer, want[i])
		}
		if row.NsPerKernel <= 0 || row.KernelsPerSec <= 0 {
			t.Fatalf("row %q has non-positive cost: %+v", row.Layer, row)
		}
		byLayer[row.Layer] = row
	}
	// The front table must be cheaper than every path that still sweeps.
	for _, layer := range []string{"per-kernel sweep", "columnar batch"} {
		if byLayer["front table"].NsPerKernel >= byLayer[layer].NsPerKernel {
			t.Errorf("front table (%.0f ns) not cheaper than %s (%.0f ns)",
				byLayer["front table"].NsPerKernel, layer, byLayer[layer].NsPerKernel)
		}
	}

	var b strings.Builder
	RenderHotPath(&b, rep)
	out := b.String()
	for _, wantStr := range []string{"Serve hot path", "front table", "columnar batch", "kernels/s"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("rendered report missing %q:\n%s", wantStr, out)
		}
	}
}

// BenchmarkHotPathColumnar is the columnar batch's speed check, run by the
// CI bench job: both it and the per-kernel sweep run the same RBF math, so
// the batch wins only by sharding, a margin too thin to assert on a loaded
// test runner. It reports both rows and fails when the columnar batch is
// not cheaper per kernel than the row-at-a-time uncached sweep.
func BenchmarkHotPathColumnar(b *testing.B) {
	s := suite(b)
	var columnar, sweep float64
	for i := 0; i < b.N; i++ {
		rep, err := s.HotPath()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			switch row.Layer {
			case "columnar batch":
				columnar = row.NsPerKernel
			case "per-kernel sweep":
				sweep = row.NsPerKernel
			}
		}
	}
	b.ReportMetric(columnar, "columnar-ns/kernel")
	b.ReportMetric(sweep, "sweep-ns/kernel")
	if columnar >= sweep {
		b.Fatalf("columnar batch (%.0f ns/kernel) not cheaper than per-kernel sweep (%.0f ns/kernel)", columnar, sweep)
	}
}
