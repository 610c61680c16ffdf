package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 1}, {99, 1}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := quantile(xs, 0.99); got != 99 {
		t.Errorf("nearest-rank p99 of 1..100 = %v, want 99", got)
	}
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if l := summarize(ds); l.n != 1000 || l.tailAt != 0.99 || l.tail != 990 || l.p50 != 500.5 {
		t.Errorf("summarize(1..1000 ms) = %+v", l)
	}
}

// TestOpenLoopTimesFromDue checks that a stall is charged to the calls it
// delays and that only the generator's own oversleep counts as lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(40 * time.Millisecond)
		}
	}))
	defer srv.Close()
	c := newConn()
	defer c.close()
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 150 * time.Millisecond}
	rec := newLoop(srv.URL, false).open(context.Background(), []*conn{c}, due, func(int) call {
		return call{op: "op", units: 1, path: "/"}
	})
	lat := rec.lat["op"]
	if rec.failed != 0 || len(lat) != 4 {
		t.Fatalf("%d failed, %d timed", rec.failed, len(lat))
	}
	if lat[0] < 40*time.Millisecond || lat[1] < 35*time.Millisecond || lat[2] < 30*time.Millisecond {
		t.Errorf("calls queued behind the stall were not timed from their due instants: %v", lat)
	}
	if lat[3] > 30*time.Millisecond {
		t.Errorf("an on-time call was charged %v", lat[3])
	}
	if len(rec.late) != 1 {
		t.Errorf("%d lateness samples, want 1 (only the call the generator slept for)", len(rec.late))
	}
}

func TestParseStat(t *testing.T) {
	line := []byte("4242 (gpu (freq) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 777 0 0\n")
	got, err := parseStat(line)
	if err != nil || got != 3*time.Second {
		t.Fatalf("parseStat = %v, %v; want 3s (300 ticks)", got, err)
	}
	for _, bad := range []string{"4242 gpufreqd S 1", "4242 (gpufreqd) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 x 50 0"} {
		if _, err := parseStat([]byte(bad)); err == nil {
			t.Errorf("parseStat(%q) accepted a malformed line", bad)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

func TestVerdictAppliesBounds(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "units_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		m    specMetric
		b    []float64
		want string
	}{
		{lower, scale(1.05), "ok"},
		{lower, scale(1.15), "regression"},
		{lower, scale(0.8), "better"},
		{lower, []float64{60, 140, 100, 70, 130, 100, 101}, "unresolved"},
		// Worse by more than the bound, but too noisy to call a regression.
		{lower, []float64{60, 200, 110, 80, 190, 120, 140}, "unresolved"},
		{higher, scale(0.85), "regression"},
		{higher, scale(1.25), "better"},
		{higher, scale(0.95), "ok"},
	} {
		if got, _ := verdict(base, c.b, c.m); got != c.want {
			t.Errorf("%s better %s, B=%v: verdict %s, want %s", c.m.Name, c.m.Better, c.b, got, c.want)
		}
	}
}

// TestCompareLeavesOutFailedRuns checks that a failed run's zeros never
// reach the verdicts, and that B failing where A did not fails the compare.
func TestCompareLeavesOutFailedRuns(t *testing.T) {
	sp := spec{EndToEnd: []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	run := func(v float64, correct bool) record {
		return record{Workload: "select-known", Correct: correct, Metrics: map[string]metric{"p50_ms": {Value: v, Unit: "ms"}}}
	}
	a := []record{run(1.00, true), run(1.01, true), run(0.99, true), run(1.02, true), run(0.98, true)}
	b := append(append([]record(nil), a...), run(0, false))
	var out strings.Builder
	if compareRecords(&out, sp, a, b) {
		t.Errorf("B with a failed run passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "failed runs 0 of 5 vs 1 of 6") || !strings.Contains(out.String(), "p50_ms +0.0% ok") {
		t.Errorf("report does not count the failed run apart from the verdict:\n%s", out.String())
	}
	out.Reset()
	if !compareRecords(&out, sp, b, b) {
		t.Errorf("equal sets with the same share of failed runs did not pass:\n%s", out.String())
	}
}

func TestDeclaredFillsOnlyWorkloadCounters(t *testing.T) {
	want := []specMetric{{Name: "p50_ms", Unit: "ms"}, {Name: "fleet.replans", Unit: "count"}}
	rec := newRecorder()
	got, err := declared(want, map[string]metric{"p50_ms": {Value: math.NaN(), Unit: "ms"}}, rec)
	if err != nil || got["fleet.replans"].Unit != "count" || got["p50_ms"].Value != 0 || rec.failed != 1 {
		t.Fatalf("declared = %v, %v; %d failures", got, err, rec.failed)
	}
	if _, err := declared(want, map[string]metric{}, rec); err == nil {
		t.Fatal("a missing end-to-end metric was accepted")
	}
	if _, err := declared(want, map[string]metric{"p50_ms": {Value: 1, Unit: "s"}}, rec); err == nil {
		t.Fatal("a metric in the wrong unit was accepted")
	}
}

// TestSmoke runs every workload for one second. Observe-drift's daemon
// trains at low settings; the others boot from the base snapshot, which the
// first run trains at the daemon's default and caches. Observe-drift is too
// short to reach a drift retrain, so only its run is checked, not its
// verdicts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots gpufreqd")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(root)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.buildDaemon(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		rec, err := runOne(context.Background(), r, sp, w.name, 1, time.Second, false, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rec.Attempted == 0 || len(rec.Metrics) != len(sp.EndToEnd) {
			t.Errorf("%s: %d attempted, %d metrics", w.name, rec.Attempted, len(rec.Metrics))
		}
		if w.name != "observe-drift" && !rec.Correct {
			t.Errorf("%s: %d of %d failed", w.name, rec.Failed, rec.Attempted)
		}
	}
}
