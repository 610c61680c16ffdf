package features

import (
	"math"
	"testing"

	"repro/internal/clkernel"
	"repro/internal/freq"
)

const vecAdd = `
__kernel void add(__global const float* a, __global const float* b,
                  __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = a[i] + b[i];
    }
}`

func TestExtractSource(t *testing.T) {
	s, err := ExtractSource(vecAdd, "")
	if err != nil {
		t.Fatalf("ExtractSource: %v", err)
	}
	if !s.Valid() {
		t.Fatalf("invalid feature vector %v", s)
	}
	// vecAdd does: get_global_id (other), compare (other), 2 loads + 1
	// store (global), 1 float add. Global accesses must dominate.
	iGl := indexOf(t, "gl_access")
	iFA := indexOf(t, "float_add")
	if s[iGl] <= s[iFA] {
		t.Errorf("gl_access share %v <= float_add share %v", s[iGl], s[iFA])
	}
	if s[iGl] <= 0 {
		t.Errorf("gl_access share = %v, want > 0", s[iGl])
	}
}

func TestExtractNamedKernel(t *testing.T) {
	src := vecAdd + `
__kernel void heavy(__global float* o, float x) {
    float a = x;
    for (int i = 0; i < 64; i++) { a = a * x + 1.0f; }
    o[0] = a;
}`
	s1, err := ExtractSource(src, "add")
	if err != nil {
		t.Fatalf("ExtractSource(add): %v", err)
	}
	s2, err := ExtractSource(src, "heavy")
	if err != nil {
		t.Fatalf("ExtractSource(heavy): %v", err)
	}
	if s1 == s2 {
		t.Error("different kernels produced identical features")
	}
	if _, err := ExtractSource(src, "nope"); err == nil {
		t.Error("expected error for missing kernel name")
	}
	if _, err := ExtractSource("not valid", ""); err == nil {
		t.Error("expected parse error")
	}
}

func TestNormalizationInvariance(t *testing.T) {
	// Codes with identical arithmetic intensity but different total size
	// must have the same feature representation (paper, Section 3.2).
	small := `__kernel void k(__global float* o, float x) {
	    float a = x * x;
	    float b = a + x;
	    o[0] = b;
	}`
	big := `__kernel void k(__global float* o, float x) {
	    float a = x * x;
	    float b = a + x;
	    float c = b * b;
	    float d = c + b;
	    o[0] = d;
	    o[1] = b;
	}`
	s1, err := ExtractSource(small, "")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ExtractSource(big, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-12 {
			t.Errorf("feature %s differs: %v vs %v", Names[i], s1[i], s2[i])
		}
	}
}

func TestFromCountsZero(t *testing.T) {
	var c clkernel.Counts
	s := FromCounts(c)
	if s.Sum() != 0 {
		t.Errorf("zero counts produced nonzero features %v", s)
	}
	if !s.Valid() {
		t.Error("zero vector should be valid")
	}
}

func TestCombine(t *testing.T) {
	s, err := ExtractSource(vecAdd, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := freq.Config{Mem: 3505, Core: 1189}
	v := Combine(s, cfg)
	for i := 0; i < StaticDim; i++ {
		if v[i] != s[i] {
			t.Errorf("static part mismatch at %d", i)
		}
	}
	if v[StaticDim] != 1.0 {
		t.Errorf("core feature = %v, want 1.0", v[StaticDim])
	}
	if v[StaticDim+1] != 1.0 {
		t.Errorf("mem feature = %v, want 1.0", v[StaticDim+1])
	}
	lo := Combine(s, freq.Config{Mem: 405, Core: 135})
	if lo[StaticDim] != 0 || lo[StaticDim+1] != 0 {
		t.Errorf("lowest config features = (%v, %v), want (0, 0)", lo[StaticDim], lo[StaticDim+1])
	}
}

func TestValidRejectsBad(t *testing.T) {
	var s Static
	s[0] = math.NaN()
	if s.Valid() {
		t.Error("NaN accepted")
	}
	s[0] = -0.1
	if s.Valid() {
		t.Error("negative accepted")
	}
	s[0] = 1.5
	if s.Valid() {
		t.Error(">1 accepted")
	}
}

func TestStringIncludesNames(t *testing.T) {
	s, err := ExtractSource(vecAdd, "")
	if err != nil {
		t.Fatal(err)
	}
	str := s.String()
	for _, n := range Names {
		if !containsStr(str, n) {
			t.Errorf("String() missing feature name %q: %s", n, str)
		}
	}
}

func TestSliceCopies(t *testing.T) {
	var v Vector
	v[0] = 1
	sl := v.Slice()
	sl[0] = 99
	if v[0] != 1 {
		t.Error("Slice() did not copy")
	}
	if len(sl) != Dim {
		t.Errorf("len(Slice()) = %d, want %d", len(sl), Dim)
	}
}

func indexOf(t *testing.T, name string) int {
	t.Helper()
	for i, n := range Names {
		if n == name {
			return i
		}
	}
	t.Fatalf("no feature named %q", name)
	return -1
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
