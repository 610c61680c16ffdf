package clkernel

import (
	"math"
	"testing"
	"testing/quick"
)

func countSrc(t *testing.T, src string, mode Mode) Counts {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return Count(prog.Kernels[0], prog, mode)
}

func TestCountIntAdds(t *testing.T) {
	src := `__kernel void k(__global int* o) {
	    int a = 1;
	    a = a + 2;
	    a = a + 3;
	    a = a + 4;
	    o[0] = a;
	}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpIntAdd]; got != 3 {
		t.Errorf("int_add = %v, want 3", got)
	}
	if got := c.Ops[OpGlobalAccess]; got != 1 {
		t.Errorf("gl_access = %v, want 1 (store)", got)
	}
}

func TestCountFloatClasses(t *testing.T) {
	src := `__kernel void k(__global float* o, float x) {
	    float a = x * x;     // 1 mul
	    float b = a / x;     // 1 div
	    float s = sin(x);    // 1 sf
	    float d = a - b;     // 1 add-class
	    o[0] = a + b + s + d; // 3 add + 1 store
	}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpFloatMul]; got != 1 {
		t.Errorf("float_mul = %v, want 1", got)
	}
	if got := c.Ops[OpFloatDiv]; got != 1 {
		t.Errorf("float_div = %v, want 1", got)
	}
	if got := c.Ops[OpSpecial]; got != 1 {
		t.Errorf("sf = %v, want 1", got)
	}
	if got := c.Ops[OpFloatAdd]; got != 4 {
		t.Errorf("float_add = %v, want 4", got)
	}
}

func TestCountBitwiseAndDiv(t *testing.T) {
	src := `__kernel void k(__global int* o, int x) {
	    int a = x << 2;  // bw
	    int b = a & 255; // bw
	    int c = b ^ a;   // bw
	    int d = c | 1;   // bw
	    int e = d % 7;   // int div class
	    int f = e / 3;   // int div class
	    int g = f * 5;   // int mul
	    o[0] = g;
	}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpIntBitwise]; got != 4 {
		t.Errorf("int_bw = %v, want 4", got)
	}
	if got := c.Ops[OpIntDiv]; got != 2 {
		t.Errorf("int_div = %v, want 2", got)
	}
	if got := c.Ops[OpIntMul]; got != 1 {
		t.Errorf("int_mul = %v, want 1", got)
	}
}

func TestCountMemoryAccesses(t *testing.T) {
	src := `__kernel void k(__global float* g, __local float* l) {
	    int i = get_global_id(0);
	    float a = g[i];      // 1 global load
	    l[i] = a;            // 1 local store
	    g[i] += 1.0f;        // 2 global (load+store)
	    float b = l[i] + a;  // 1 local load
	    g[i+1] = b;          // 1 global store
	}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpGlobalAccess]; got != 4 {
		t.Errorf("gl_access = %v, want 4", got)
	}
	if got := c.Ops[OpLocalAccess]; got != 2 {
		t.Errorf("loc_access = %v, want 2", got)
	}
	if c.GlobalBytes != 16 {
		t.Errorf("GlobalBytes = %v, want 16", c.GlobalBytes)
	}
	if c.LocalBytes != 8 {
		t.Errorf("LocalBytes = %v, want 8", c.LocalBytes)
	}
}

func TestCountLocalArrayInBody(t *testing.T) {
	src := `__kernel void k(__global float* o) {
	    __local float tile[64];
	    float priv[4];
	    tile[0] = 1.0f;   // local store
	    priv[0] = tile[0]; // local load + private (other)
	    o[0] = priv[0];    // global store + private load (other)
	}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpLocalAccess]; got != 2 {
		t.Errorf("loc_access = %v, want 2", got)
	}
	if got := c.Ops[OpGlobalAccess]; got != 1 {
		t.Errorf("gl_access = %v, want 1", got)
	}
}

func TestCountVectorWidths(t *testing.T) {
	src := `__kernel void k(__global float4* o, float4 v) {
	    float4 a = v * v;  // 4 muls
	    float4 b = a + v;  // 4 adds
	    o[0] = b;          // 1 global access, 16 bytes
	}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpFloatMul]; got != 4 {
		t.Errorf("float_mul = %v, want 4", got)
	}
	if got := c.Ops[OpFloatAdd]; got != 4 {
		t.Errorf("float_add = %v, want 4", got)
	}
	if got := c.Ops[OpGlobalAccess]; got != 1 {
		t.Errorf("gl_access = %v, want 1", got)
	}
	if c.GlobalBytes != 16 {
		t.Errorf("GlobalBytes = %v, want 16", c.GlobalBytes)
	}
}

func TestStaticVsWeightedLoop(t *testing.T) {
	src := `__kernel void k(__global float* o) {
	    float acc = 0.0f;
	    for (int i = 0; i < 100; i++) {
	        acc += 1.5f;
	    }
	    o[0] = acc;
	}`
	st := countSrc(t, src, Static)
	wt := countSrc(t, src, Weighted)
	if got := st.Ops[OpFloatAdd]; got != 1 {
		t.Errorf("static float_add = %v, want 1", got)
	}
	if got := wt.Ops[OpFloatAdd]; got != 100 {
		t.Errorf("weighted float_add = %v, want 100", got)
	}
}

func TestTripCountForms(t *testing.T) {
	cases := []struct {
		loop string
		want float64
	}{
		{"for (int i = 0; i < 10; i++)", 10},
		{"for (int i = 0; i <= 10; i++)", 11},
		{"for (int i = 10; i > 0; i--)", 10},
		{"for (int i = 0; i < 10; i += 2)", 5},
		{"for (int i = 0; i < 9; i += 2)", 5}, // ceil(9/2)
		{"for (int i = 0; 10 > i; i++)", 10},
		{"for (int i = 0; i < 10; i = i + 1)", 10},
		{"for (int i = 0; i < n; i++)", DefaultTrip},
		{"for (int i = 16; i >= 1; i--)", 16},
	}
	for _, tc := range cases {
		src := `__kernel void k(__global float* o, int n) {
		    float acc = 0.0f;
		    ` + tc.loop + ` { acc += 1.0f; }
		    o[0] = acc;
		}`
		c := countSrc(t, src, Weighted)
		if got := c.Ops[OpFloatAdd]; got != tc.want {
			t.Errorf("%s: weighted float_add = %v, want %v", tc.loop, got, tc.want)
		}
	}
}

func TestNestedLoopsMultiply(t *testing.T) {
	src := `__kernel void k(__global float* o) {
	    float acc = 0.0f;
	    for (int i = 0; i < 4; i++) {
	        for (int j = 0; j < 8; j++) {
	            acc += 2.0f;
	        }
	    }
	    o[0] = acc;
	}`
	c := countSrc(t, src, Weighted)
	if got := c.Ops[OpFloatAdd]; got != 32 {
		t.Errorf("weighted float_add = %v, want 32", got)
	}
}

func TestBranchWeighting(t *testing.T) {
	src := `__kernel void k(__global float* o, int n) {
	    float acc = 0.0f;
	    if (n > 0) { acc += 1.0f; } else { acc += 1.0f; }
	    o[0] = acc;
	}`
	st := countSrc(t, src, Static)
	wt := countSrc(t, src, Weighted)
	if got := st.Ops[OpFloatAdd]; got != 2 {
		t.Errorf("static float_add = %v, want 2 (both arms once)", got)
	}
	if got := wt.Ops[OpFloatAdd]; got != 1 {
		t.Errorf("weighted float_add = %v, want 1 (arms at 1/2)", got)
	}
}

func TestBuiltinClassification(t *testing.T) {
	src := `__kernel void k(__global float4* o, float4 v, float x) {
	    float d = dot(v, v);          // 4 mul + 3 add
	    float l = length(v);          // 4 mul + 3 add + 1 sf
	    float m = mad(x, x, x);       // 1 mul + 1 add
	    float f = fabs(x);            // 1 add-class
	    float p = pow(x, 2.0f);       // 1 sf
	    float q = native_rsqrt(x);    // 1 sf
	    o[0] = (float4)(d + l + m + f + p + q);
	}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpSpecial]; got != 3 {
		t.Errorf("sf = %v, want 3", got)
	}
	if got := c.Ops[OpFloatMul]; got < 9 {
		t.Errorf("float_mul = %v, want >= 9", got)
	}
}

func TestHelperInlining(t *testing.T) {
	src := `
float poly(float x) { return x * x + x; } // 1 mul + 1 add + return(other)
__kernel void k(__global float* o, float x) {
    o[0] = poly(x) + poly(x);  // inlined twice + 1 add + store
}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpFloatMul]; got != 2 {
		t.Errorf("float_mul = %v, want 2", got)
	}
	if got := c.Ops[OpFloatAdd]; got != 3 {
		t.Errorf("float_add = %v, want 3", got)
	}
}

func TestRecursionGuard(t *testing.T) {
	src := `
float rec(float x) { return rec(x) + 1.0f; }
__kernel void k(__global float* o) { o[0] = rec(1.0f); }`
	// Must terminate and produce finite counts.
	c := countSrc(t, src, Static)
	if c.Total() <= 0 || math.IsInf(c.Total(), 0) || math.IsNaN(c.Total()) {
		t.Errorf("recursion produced bad total %v", c.Total())
	}
}

func TestAtomicsAndVload(t *testing.T) {
	src := `__kernel void k(__global int* cnt, __global float* data) {
	    atomic_add(cnt, 1);            // 2 accesses + int add
	    float4 v = vload4(0, data);    // 1 global access, 16 bytes
	    vstore4(v, 1, data);           // 1 global access, 16 bytes
	}`
	c := countSrc(t, src, Static)
	if got := c.Ops[OpGlobalAccess]; got != 4 {
		t.Errorf("gl_access = %v, want 4", got)
	}
	if got := c.GlobalBytes; got != 40 { // 2*4 atomic + 16 + 16
		t.Errorf("GlobalBytes = %v, want 40", got)
	}
}

func TestCountsTotals(t *testing.T) {
	src := simpleKernel
	c := countSrc(t, src, Static)
	featureTotal := 0.0
	for i := 0; i < NumFeatureClasses; i++ {
		featureTotal += c.Ops[i]
	}
	if c.Total() < featureTotal {
		t.Errorf("Total %v < feature-class total %v", c.Total(), featureTotal)
	}
	if c.Total() <= 0 {
		t.Errorf("Total = %v, want > 0", c.Total())
	}
}

func TestCountKernelByName(t *testing.T) {
	prog := MustParse(simpleKernel)
	c := Count(prog.Kernel("add"), prog, Static)
	if c.Ops[OpGlobalAccess] != 3 { // 2 loads + 1 store
		t.Errorf("gl_access = %v, want 3", c.Ops[OpGlobalAccess])
	}
	if prog.Kernel("missing") != nil {
		t.Error("lookup of an unknown kernel name returned a kernel")
	}
}

func TestOpClassString(t *testing.T) {
	if OpIntAdd.String() != "int_add" || OpLocalAccess.String() != "loc_access" {
		t.Error("OpClass names wrong")
	}
	if OpClass(99).String() == "" {
		t.Error("out-of-range OpClass should still format")
	}
}

func TestCountsNonNegativeProperty(t *testing.T) {
	// Property: counting any of a family of generated kernels yields
	// non-negative finite counts, and weighted >= static for loop bodies.
	f := func(trip uint8, adds uint8) bool {
		n := int(trip%64) + 1
		a := int(adds%8) + 1
		body := ""
		for i := 0; i < a; i++ {
			body += "acc += 1.0f;\n"
		}
		src := `__kernel void k(__global float* o) {
		    float acc = 0.0f;
		    for (int i = 0; i < ` + itoa(n) + `; i++) {
		        ` + body + `
		    }
		    o[0] = acc;
		}`
		prog, err := Parse(src)
		if err != nil {
			return false
		}
		st := Count(prog.Kernels[0], prog, Static)
		wt := Count(prog.Kernels[0], prog, Weighted)
		if st.Ops[OpFloatAdd] != float64(a) {
			return false
		}
		if wt.Ops[OpFloatAdd] != float64(a*n) {
			return false
		}
		for _, v := range wt.Ops {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
