package gen

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/features"
)

// inputs serializes every generator's output for one seed.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	pre, post, err := Drift(seed)
	if err != nil {
		t.Fatal(err)
	}
	g := NewNovel(seed)
	doc, err := json.Marshal(map[string]any{
		"pairs":   KnownPairs(seed),
		"novel":   g.Take(200),
		"vectors": g.Vectors(64),
		"pre":     pre,
		"post":    post,
		"mixes":   Mixes(seed, 32, 8),
		"steps":   Steps(seed, 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b := inputs(t, 1), inputs(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different inputs")
	}
	if bytes.Equal(a, inputs(t, 2)) {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestNovelKernelsParseAndAreUnknown(t *testing.T) {
	known := knownFeatures()
	seen := map[features.Static]bool{}
	for _, k := range NewNovel(7).Take(2000) {
		st, err := features.ExtractSource(k.Source, k.Name)
		if err != nil {
			t.Fatalf("%s does not parse: %v", k.Name, err)
		}
		if st != k.Features || !st.Valid() {
			t.Fatalf("%s: features %v are invalid or differ from the recorded %v", k.Name, st, k.Features)
		}
		if known[st] {
			t.Fatalf("%s has the features of a known kernel", k.Name)
		}
		if seen[st] {
			t.Fatalf("%s repeats an earlier novel kernel's features", k.Name)
		}
		seen[st] = true
	}
}

func TestDriftShiftMovesMeasurements(t *testing.T) {
	pre, post, err := Drift(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre) != len(post) || len(pre) == 0 {
		t.Fatalf("stream lengths %d and %d", len(pre), len(post))
	}
	var diff float64
	for i := range pre {
		if pre[i].Speedup <= 0 || pre[i].NormEnergy <= 0 || post[i].Speedup <= 0 || post[i].NormEnergy <= 0 {
			t.Fatalf("non-positive objective at %d", i)
		}
		diff += pre[i].Speedup - post[i].Speedup
	}
	if diff == 0 {
		t.Fatal("the shifted stream measures the same as the unshifted one")
	}
}

func BenchmarkNovel(b *testing.B) {
	g := NewNovel(1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
