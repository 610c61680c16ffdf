package svm

import (
	"bytes"
	"math"
	"testing"
)

// equivGrid builds a deterministic evaluation grid inside the unit box.
func equivGrid(dim, n int) [][]float64 {
	r := &det{s: 99}
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, dim)
		for j := range x {
			x[j] = r.next()
		}
		out[i] = x
	}
	return out
}

// TestSolverMatchesReference trains the production solver (shrinking on and
// off) and the preserved pre-overhaul reference solver on the same data and
// requires the models to agree: same support-vector count, same offset and
// predictions within 1e-9, and — since the stopping criterion is identical —
// the same convergence flag. The linear sets train Dot, the dot product
// under a type that Train sends to SMO rather than the interior-point fit.
func TestSolverMatchesReference(t *testing.T) {
	type dataset struct {
		name string
		k    Kernel
		p    Params
		xs   [][]float64
		ys   []float64
	}
	var sets []dataset

	// Linear, multi-dimensional.
	{
		var xs [][]float64
		var ys []float64
		r := &det{s: 7}
		for i := 0; i < 150; i++ {
			a, b, c := r.next(), r.next(), r.next()
			xs = append(xs, []float64{a, b, c})
			ys = append(ys, 1+2*a-3*b+0.5*c+0.05*(r.next()-0.5))
		}
		sets = append(sets, dataset{"linear", Dot{}, paperParams, xs, ys})
	}
	// RBF on a nonlinear surface.
	{
		var xs [][]float64
		var ys []float64
		r := &det{s: 3}
		for i := 0; i < 120; i++ {
			a, b := r.next(), r.next()
			xs = append(xs, []float64{a, b})
			ys = append(ys, math.Sin(3*a)+b*b)
		}
		sets = append(sets, dataset{"rbf", RBF{Gamma: 2}, paperParams, xs, ys})
	}
	// A nonlinear kernel outside the built-ins (exercises genericRows).
	{
		var xs [][]float64
		var ys []float64
		for i := 0; i <= 60; i++ {
			x := float64(i) / 60
			xs = append(xs, []float64{x})
			ys = append(ys, 2*x*x-x+0.5)
		}
		sets = append(sets, dataset{"poly", Polynomial{Gamma: 1, Coef0: 1, Degree: 2},
			Params{C: 1000, Epsilon: 0.02}, xs, ys})
	}
	// A capped run: the unconverged path must also match.
	{
		var xs [][]float64
		var ys []float64
		r := &det{s: 9}
		for i := 0; i < 80; i++ {
			a := r.next()
			xs = append(xs, []float64{a})
			ys = append(ys, math.Sin(20*a))
		}
		sets = append(sets, dataset{"capped", Dot{},
			Params{C: 1e6, Epsilon: 1e-6, MaxIter: 5000}, xs, ys})
	}

	grid := equivGrid(3, 64)
	for _, ds := range sets {
		ref := refTrain(ds.xs, ds.ys, ds.k, ds.p)
		for _, shrink := range []bool{true, false} {
			p := ds.p
			p.DisableShrinking = !shrink
			name := ds.name + "/shrink"
			if !shrink {
				name = ds.name + "/noshrink"
			}
			t.Run(name, func(t *testing.T) {
				m, err := Train(ds.xs, ds.ys, ds.k, p)
				if err != nil {
					t.Fatal(err)
				}
				if m.Converged != ref.Converged {
					t.Errorf("Converged = %v, reference %v", m.Converged, ref.Converged)
				}
				if m.NumSV() != len(ref.Coefs) {
					t.Errorf("NumSV = %d, reference %d", m.NumSV(), len(ref.Coefs))
				}
				if d := math.Abs(m.B - ref.B); d > 1e-9 {
					t.Errorf("B = %v, reference %v (|Δ| = %g)", m.B, ref.B, d)
				}
				dim := len(ds.xs[0])
				for _, x := range grid {
					x := x[:dim]
					got, want := m.Predict(x), ref.Predict(x)
					if d := math.Abs(got - want); d > 1e-9 {
						t.Fatalf("Predict(%v) = %v, reference %v (|Δ| = %g)", x, got, want, d)
					}
				}
			})
		}
	}
}

// TestShrinkingIterationSemantics checks the documented invariants of the
// shrinking path against the non-shrinking one on a converging problem:
// both satisfy the same stopping criterion (shrinking re-checks the full
// set before declaring convergence), Iters counts performed update steps,
// and the models agree. Iteration counts are not required to be equal —
// shrinking may legitimately alter the SMO trajectory.
func TestShrinkingIterationSemantics(t *testing.T) {
	var xs [][]float64
	var ys []float64
	r := &det{s: 5}
	for i := 0; i < 100; i++ {
		a, b := r.next(), r.next()
		xs = append(xs, []float64{a, b})
		ys = append(ys, a+0.5*b)
	}
	on, err := Train(xs, ys, Dot{}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Train(xs, ys, Dot{}, Params{C: paperParams.C, Epsilon: paperParams.Epsilon, DisableShrinking: true})
	if err != nil {
		t.Fatal(err)
	}
	if !on.Converged || !off.Converged {
		t.Fatalf("expected convergence (shrink %v, noshrink %v)", on.Converged, off.Converged)
	}
	if on.Iters <= 0 || off.Iters <= 0 {
		t.Fatalf("Iters not counting update steps: shrink %d, noshrink %d", on.Iters, off.Iters)
	}
	for _, x := range xs {
		if d := math.Abs(on.Predict(x) - off.Predict(x)); d > 1e-9 {
			t.Fatalf("shrinking changed the converged model at %v (|Δ| = %g)", x, d)
		}
	}
}

// TestCacheRowsFloorClamped guards the eviction slice-reuse invariant: the
// solver holds two rows at once, so a 1-row cache must clamp to 2 and train
// the same model as the default capacity.
func TestCacheRowsFloorClamped(t *testing.T) {
	var xs [][]float64
	var ys []float64
	r := &det{s: 31}
	for i := 0; i < 60; i++ {
		a, b := r.next(), r.next()
		xs = append(xs, []float64{a, b})
		ys = append(ys, 2*a-b)
	}
	def, err := Train(xs, ys, Dot{}, Params{C: 100, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Train(xs, ys, Dot{}, Params{C: 100, Epsilon: 0.05, CacheRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.NumSV() != def.NumSV() || one.B != def.B {
		t.Fatalf("CacheRows=1 changed the model: %d SVs B=%v vs %d SVs B=%v",
			one.NumSV(), one.B, def.NumSV(), def.B)
	}
	for _, x := range xs {
		if one.Predict(x) != def.Predict(x) {
			t.Fatalf("CacheRows=1 changed predictions at %v", x)
		}
	}
}

// TestRowCacheLRUEviction asserts true recency-based eviction: hitting a row
// must protect it from eviction when a later insert exceeds capacity.
func TestRowCacheLRUEviction(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	d := newDesignMatrix(xs)
	c := newRowCache(Linear{}, d, 2)

	c.row(0)
	c.row(1)
	c.row(0) // refresh row 0: row 1 is now least recently used
	c.row(2) // past capacity: must evict row 1, not row 0
	if _, ok := c.rows[0]; !ok {
		t.Fatal("row 0 evicted despite being most recently used (FIFO, not LRU)")
	}
	if _, ok := c.rows[1]; ok {
		t.Fatal("row 1 still cached; LRU should have evicted it")
	}
	if _, ok := c.rows[2]; !ok {
		t.Fatal("row 2 not cached after insert")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d rows, capacity 2", c.len())
	}
}

// TestRowCacheAtRefreshesRecency asserts that single-element at lookups
// participate in the LRU accounting.
func TestRowCacheAtRefreshesRecency(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}}
	d := newDesignMatrix(xs)
	c := newRowCache(Linear{}, d, 2)

	c.row(0)
	c.row(1)
	if got, want := c.at(0, 2), 3.0; got != want {
		t.Fatalf("at(0,2) = %v, want %v", got, want)
	}
	c.row(2) // must evict row 1: the at lookup refreshed row 0
	if _, ok := c.rows[0]; !ok {
		t.Fatal("row 0 evicted although at(0, ...) refreshed it")
	}
	if _, ok := c.rows[1]; ok {
		t.Fatal("row 1 survived although it was least recently used")
	}

	// at on an uncached pair answers from the symmetric cached row.
	c2 := newRowCache(Linear{}, d, 2)
	c2.row(1)
	if got, want := c2.at(2, 1), 6.0; got != want {
		t.Fatalf("at(2,1) = %v, want %v", got, want)
	}
	// And computes directly (without caching) when neither row is cached.
	if got, want := c2.at(0, 2), 3.0; got != want {
		t.Fatalf("at(0,2) = %v, want %v", got, want)
	}
	if c2.len() != 1 {
		t.Fatalf("at cached a full row: %d entries, want 1", c2.len())
	}
}

// TestRowKernelsMatchEval checks every specialized row filler against the
// per-element kernel it replaces.
func TestRowKernelsMatchEval(t *testing.T) {
	r := &det{s: 13}
	var xs [][]float64
	for i := 0; i < 40; i++ {
		xs = append(xs, []float64{r.next(), r.next(), r.next()})
	}
	d := newDesignMatrix(xs)
	for _, k := range []Kernel{Linear{}, RBF{Gamma: 0.7}, Polynomial{Gamma: 1, Coef0: 1, Degree: 3}} {
		rk := rowKernelFor(k)
		dst := make([]float64, len(xs))
		for i := range xs {
			rk.fillRow(d, i, 0, len(xs), dst)
			for j := range xs {
				want := k.Eval(xs[i], xs[j])
				if math.Abs(dst[j]-want) > 1e-12 {
					t.Fatalf("%v: row %d col %d = %v, Eval = %v", k, i, j, dst[j], want)
				}
			}
		}
	}
}

// TestFlattenedSupportVectorsRoundTrip checks that persist/load rebuilds the
// flattened support-vector matrix and the fast paths exactly.
func TestFlattenedSupportVectorsRoundTrip(t *testing.T) {
	r := &det{s: 17}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 90; i++ {
		a, b := r.next(), r.next()
		xs = append(xs, []float64{a, b})
		ys = append(ys, math.Sin(2*a)-b)
	}
	for _, k := range []Kernel{Linear{}, RBF{Gamma: 1.5}} {
		m, err := Train(xs, ys, k, paperParams)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%v: Save: %v", k, err)
		}
		m2, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v: Load: %v", k, err)
		}
		if len(m2.svFlat) != m2.NumSV()*m2.svDim || m2.svDim != len(xs[0]) {
			t.Fatalf("%v: flat matrix %d×%d for %d SVs", k, len(m2.svFlat), m2.svDim, m2.NumSV())
		}
		for i := 0; i < m.NumSV(); i++ {
			for j, v := range m.sv(i) {
				if m2.sv(i)[j] != v {
					t.Fatalf("%v: flat SV %d differs after round trip", k, i)
				}
			}
		}
		for _, x := range xs {
			if m.Predict(x) != m2.Predict(x) {
				t.Fatalf("%v: prediction drift after round trip", k)
			}
		}
	}
}

// TestPredictBatchInto covers the allocation-free batch form, including the
// length mismatch panic.
func TestPredictBatchInto(t *testing.T) {
	xs := [][]float64{{0}, {0.5}, {1}}
	ys := []float64{0, 1, 2}
	m, err := Train(xs, ys, Linear{}, paperParams)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(xs))
	m.PredictBatchInto(out, xs)
	for i, x := range xs {
		if out[i] != m.Predict(x) {
			t.Errorf("out[%d] != Predict", i)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { m.PredictBatchInto(out, xs) })
	if allocs != 0 {
		t.Errorf("PredictBatchInto allocates %v times per call, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	m.PredictBatchInto(out[:1], xs)
}
