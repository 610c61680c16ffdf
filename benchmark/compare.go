package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the metrics the benchmark reports and the bound
// by which each end-to-end metric may worsen before it counts as a
// regression.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return s, nil
}

// declared picks the metrics the spec lists from what a run measured. A
// counter only some workloads exercise reads 0 where it was not scraped. A
// metric the run could not measure (no samples) reads 0 and fails the run
// on rec, so -compare leaves it out; a missing or mis-unit metric is an
// error in the benchmark itself.
func declared(want []specMetric, got map[string]metric, rec *recorder) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok && workloadCounters[w.Name] {
			m, ok = metric{Unit: w.Unit}, true
		}
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		case m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			rec.fail("metric %s has no value (n=%d)", w.Name, m.N)
			m.Value = 0
		}
		out[w.Name] = m
	}
	return out, nil
}

// workloadCounters are the per-layer counters scraped from the daemon that
// only the workload exercising that layer moves; the others report 0.
var workloadCounters = map[string]bool{
	"adapt.retrains": true, "adapt.activated": true, "adapt.rejected": true,
	"adapt.drift_after_obs": true, "adapt.warm_matched_rows": true,
	"fleet.replans": true, "fleet.push_targets": true, "fleet.pushed": true,
	"fleet.push_skipped": true, "fleet.push_errors": true, "fleet.push_fanout_ms": true,
}

// readRecords loads the untraced records of a -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method (Python's statistics.quantiles(xs, n=4)), sorting xs in place.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	q1, q3 := quartiles(c)
	return (q3 - q1) / median(c)
}

// verdict judges B against A for one metric: "better" when every B run
// beats every A run, else "unresolved" when either side's own spread
// exceeds the bound, else "regression" when B's median is worse by more
// than the bound, else "ok". worse is B's change as a share of A's median,
// positive when worse.
func verdict(a, b []float64, m specMetric) (string, float64) {
	ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case allBetter:
		return "better", worse
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved", worse
	case worse > m.Bound:
		return "regression", worse
	}
	return "ok", worse
}

// compareFiles applies BENCHMARK.json's bounds to two record files; see
// compareRecords.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	dir, err := findRoot()
	if err != nil {
		return false, err
	}
	sp, err := loadSpec(dir)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	return compareRecords(w, sp, a, b), nil
}

// runsOf splits one workload's records into the runs whose every check
// passed and the count of those that failed one.
func runsOf(rs []record, workload string) (correct []record, failed int) {
	for _, r := range rs {
		switch {
		case r.Workload != workload:
		case r.Correct:
			correct = append(correct, r)
		default:
			failed++
		}
	}
	return correct, failed
}

// compareRecords prints one row per workload: the failed runs of each side,
// then each end-to-end metric's verdict over the correct runs only (a failed
// run's metrics may be zeros for what it could not measure). It flags digest
// mismatches, and reports whether B passes: no regression, no larger share
// of failed runs than A, and no digest mismatch.
func compareRecords(w io.Writer, sp spec, a, b []record) bool {
	values := func(rs []record, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	ok := true
	for _, wl := range workloads {
		ra, fa := runsOf(a, wl.name)
		rb, fb := runsOf(b, wl.name)
		var cells []string
		if fa+fb > 0 {
			cells = append(cells, fmt.Sprintf("failed runs %d of %d vs %d of %d", fa, fa+len(ra), fb, fb+len(rb)))
			if fb*(fa+len(ra)) > fa*(fb+len(rb)) {
				ok = false
			}
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(va, vb, m)
			if v == "regression" {
				ok = false
			}
			cells = append(cells, fmt.Sprintf("%s %+.1f%% %s (spread %.0f%%/%.0f%%, bound %.0f%%)",
				m.Name, 100*worse, v, 100*spread(va), 100*spread(vb), 100*m.Bound))
		}
		if len(cells) > 0 {
			fmt.Fprintf(w, "%-14s %s\n", wl.name, strings.Join(cells, "; "))
		}
	}
	digests := map[string]string{}
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.Digest == "" {
			continue
		}
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if d, seen := digests[key]; seen && d != r.Digest {
			fmt.Fprintf(w, "digest mismatch: %s: %.12s… vs %.12s…\n", key, d, r.Digest)
			ok = false
		}
		digests[key] = r.Digest
	}
	return ok
}
