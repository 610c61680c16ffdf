package adapt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/registry"
	"repro/internal/svm"
)

// walObs builds a valid observation with distinguishable content so replay
// ordering and fidelity are checkable.
func walObs(i int) Observation {
	o := obs(1+float64(i)/100, 1+float64(i)/200)
	o.Kernel = fmt.Sprintf("k%d", i)
	o.Node = fmt.Sprintf("node-%d", i%3)
	o.At = time.Unix(1700000000+int64(i), int64(i)*1000).UTC()
	return o
}

// obsJSON canonicalizes an observation slice for bit-identical comparison.
func obsJSON(t *testing.T, obs []Observation) string {
	t.Helper()
	b, err := json.Marshal(append([]Observation{}, obs...))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWALRoundTrip pins the core durability contract: everything appended
// before Close is recovered bit-identically, in order, on reopen.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want []Observation
	for i := 0; i < 20; i++ {
		want = append(want, walObs(i))
	}
	if err := w.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, total := w2.Recovered()
	if total != 20 {
		t.Fatalf("recovered total %d, want 20", total)
	}
	if obsJSON(t, got) != obsJSON(t, want) {
		t.Fatal("recovered observations differ from what was appended")
	}
	if got, _ := w2.Recovered(); got != nil {
		t.Fatal("Recovered did not release the buffer on first call")
	}
}

// TestWALSurvivesWithoutClose proves the group commit makes records durable
// without a clean shutdown: after an explicit Sync, a reopen (the kill -9
// stand-in — the old handle is simply abandoned) recovers everything.
func TestWALSurvivesWithoutClose(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want []Observation
	for i := 0; i < 5; i++ {
		want = append(want, walObs(i))
	}
	if err := w.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "died". Reopen the directory.
	w2, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, total := w2.Recovered()
	if total != 5 || obsJSON(t, got) != obsJSON(t, want) {
		t.Fatalf("recovered %d observations after unclean shutdown, want the 5 synced ones", len(got))
	}
}

// TestWALRotationAndCompaction drives enough records through small segments
// to force rotation, then checks compaction keeps only segments the ring
// bound can still need while replay stays exact.
func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{Dir: dir, SegmentRecords: 8, Capacity: 16}
	w, err := OpenWAL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all []Observation
	for i := 0; i < 100; i++ {
		o := walObs(i)
		all = append(all, o)
		if err := w.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction bound: segments whose newest record <= 100-16 are deleted.
	// With 8-record segments that leaves at most ceil(16/8)+1 = 3 files.
	files, err := filepath.Glob(filepath.Join(dir, "obs-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 4 {
		t.Fatalf("compaction left %d segments for a 16-record ring with 8-record segments", len(files))
	}

	w2, err := OpenWAL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, total := w2.Recovered()
	if total != 100 {
		t.Fatalf("recovered total %d, want 100", total)
	}
	if len(got) < 16 {
		t.Fatalf("recovered window has %d observations, want >= the 16-record ring bound", len(got))
	}
	if obsJSON(t, got) != obsJSON(t, all[100-len(got):]) {
		t.Fatal("recovered window is not the newest suffix of what was appended")
	}
}

// TestWALTruncatedAtEveryByteOffset is the crash-replay property test: a
// single-segment log cut at every possible byte offset must reopen without
// error and recover exactly the records whose lines fit the prefix whole.
func TestWALTruncatedAtEveryByteOffset(t *testing.T) {
	src := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	var want []Observation
	for i := 0; i < 6; i++ {
		want = append(want, walObs(i))
	}
	if err := w.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(src, "obs-*.wal"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(files[0])

	for cut := 0; cut <= len(data); cut++ {
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(WALConfig{Dir: dir})
		if err != nil {
			t.Fatalf("cut at byte %d: OpenWAL: %v", cut, err)
		}
		got, total := w2.Recovered()

		// The longest valid prefix: every complete line within the cut.
		complete := strings.Count(string(data[:cut]), "\n")
		if len(got) != complete || total != complete {
			t.Fatalf("cut at byte %d: recovered %d records (total %d), want %d", cut, len(got), total, complete)
		}
		if obsJSON(t, got) != obsJSON(t, want[:complete]) {
			t.Fatalf("cut at byte %d: recovered records differ from the valid prefix", cut)
		}

		// The log must stay writable past the truncation point.
		if err := w2.Append(walObs(100 + cut)); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		if st := w2.Stats(); st.LastSeq != complete+1 {
			t.Fatalf("cut at byte %d: sequence resumed at %d, want %d", cut, st.LastSeq, complete+1)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALCorruptMiddleSegmentDropsTail proves corruption in an earlier
// segment truncates the whole log there: later segments are past the valid
// prefix and are deleted, not replayed out of order.
func TestWALCorruptMiddleSegmentDropsTail(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{Dir: dir, SegmentRecords: 4, Capacity: 1024}
	w, err := OpenWAL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := w.Append(walObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "obs-*.wal"))
	if err != nil || len(files) < 3 {
		t.Fatalf("want >= 3 segments, got %v (%v)", files, err)
	}

	// Corrupt the second segment's second record.
	mid := files[1]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = strings.Replace(lines[1], "{", "!", 1)
	if err := os.WriteFile(mid, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, total := w2.Recovered()
	if total != 5 || len(got) != 5 {
		t.Fatalf("recovered %d records (total %d), want the 5 before the corruption", len(got), total)
	}
	if !w2.Stats().Truncated {
		t.Fatal("stats do not report the truncation")
	}
	left, err := filepath.Glob(filepath.Join(dir, "obs-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if f > mid {
			t.Fatalf("segment past the corruption survived replay: %s", f)
		}
	}
}

// TestWALSeedsController proves the controller-level claim: a restart with
// the same WAL directory reproduces the store stats — count, total,
// dropped, and per-node attribution — bit-identically.
func TestWALSeedsController(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, constModels(t, 1, 1), registry.Training{SpeedupRMSE: 0.2, EnergyRMSE: 0.2})
	deps := r.deps(fakeTrainer{models: constModels(t, 1, 1)})
	deps.WAL = w
	c := New(Config{Capacity: 8}, deps)
	for i := 0; i < 20; i++ {
		o := walObs(i)
		o.At = time.Time{} // Observe stamps it
		if _, err := c.Observe(o); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Status()
	beforeObs := obsJSON(t, c.obs.tail(math.MaxInt))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(WALConfig{Dir: dir, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	deps.WAL = w2
	c2 := New(Config{Capacity: 8}, deps)
	after := c2.Status()

	if obsJSON(t, c2.obs.tail(math.MaxInt)) != beforeObs {
		t.Fatal("replayed observations differ from the pre-restart window")
	}
	bs, as := before.Store, after.Store
	if as.Count != bs.Count || as.Total != bs.Total || as.Dropped != bs.Dropped {
		t.Fatalf("store stats after replay %+v, want %+v", as, bs)
	}
	if fmt.Sprint(as.Nodes) != fmt.Sprint(bs.Nodes) {
		t.Fatalf("node attribution after replay %v, want %v", as.Nodes, bs.Nodes)
	}
	if before.Drift.SpeedupRMSE != after.Drift.SpeedupRMSE ||
		before.Drift.EnergyRMSE != after.Drift.EnergyRMSE {
		t.Fatalf("drift baseline after replay %+v, want %+v", after.Drift, before.Drift)
	}
	if after.WAL == nil || after.WAL.LastSeq != 20 {
		t.Fatalf("status WAL accounting %+v, want last_seq 20", after.WAL)
	}
}

// benchController builds a controller over constant models for the ingest
// benchmarks — the drift detector runs over the real window, so the
// numbers are the full Observe path, not just the store add.
func benchController(b *testing.B, wal *WAL) *Controller {
	b.Helper()
	mk := func(v string) *svm.Model {
		m, err := svm.Load(strings.NewReader(
			`{"kernel":{"type":"linear"},"support_vectors":[],"coefs":[],"b":` + v + `}`))
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	models := &core.Models{Speedup: mk("1"), Energy: mk("1")}
	store, err := registry.Open("")
	if err != nil {
		b.Fatal(err)
	}
	man, err := store.Save("titanx", "", models, registry.Training{SpeedupRMSE: 0.2, EnergyRMSE: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	pred := engine.NewPredictor(models, gpu.TitanX().Ladder, engine.Options{Workers: 1})
	return New(Config{}, Deps{
		Device: "titanx", Store: store,
		Current: func() (*engine.Predictor, string, bool) { return pred, man.Version, true },
		Install: func(string, *core.Models) error { return nil },
		Trainer: fakeTrainer{models: models},
		WAL:     wal,
	})
}

// BenchmarkObsIngestMemOnly is the memory-only ingest baseline: one full
// Observe (validation, ring add, drift detection over the window).
func BenchmarkObsIngestMemOnly(b *testing.B) {
	c := benchController(b, nil)
	o := obs(1.01, 1.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Observe(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsWALAppend is the same ingest with the durable log attached
// (inline write, background group-committed fsync). The log write
// dominates its cost: memory-only ingest predicts only the new
// observation, so track this benchmark's absolute ns/op, not its ratio to
// BenchmarkObsIngestMemOnly.
func BenchmarkObsWALAppend(b *testing.B) {
	w, err := OpenWAL(WALConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	c := benchController(b, w)
	o := obs(1.01, 1.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Observe(o); err != nil {
			b.Fatal(err)
		}
	}
}
