// Package bench provides the paper's twelve test benchmarks (Section 4.2)
// as OpenCL-subset kernels with launch metadata: PerlinNoise, MD
// (molecular dynamics), K-means, MedianFilter, Convolution, Blackscholes,
// MT (Mersenne Twister), Flte (FIR filter), MatrixMultiply,
// BitCompression, AES and k-NN.
//
// The top group (k-NN, AES, MatrixMultiply, Convolution, PerlinNoise, MD,
// K-means, Flte) is compute-dominated: speedup tracks the core clock. The
// bottom group (MedianFilter, BitCompression, MT, Blackscholes) is
// memory-dominated: speedup tracks the memory clock (paper, Fig. 5).
package bench

import (
	"fmt"

	"repro/internal/clkernel"
	"repro/internal/features"
	"repro/internal/gpu"
)

// Benchmark is one test application.
type Benchmark struct {
	// Name as used in the paper's figures and tables.
	Name string
	// KernelName is the kernel function within Source.
	KernelName string
	// Source is the OpenCL kernel source.
	Source string
	// WorkItems is the global work size of one launch.
	WorkItems int
	// Coalescing, CacheHitRate and OccupancyScale position the kernel's
	// memory behaviour (see gpu.KernelProfile).
	Coalescing     float64
	CacheHitRate   float64
	OccupancyScale float64

	prog *clkernel.Program
}

// Program returns the parsed program (cached).
func (b *Benchmark) Program() *clkernel.Program {
	if b.prog == nil {
		b.prog = clkernel.MustParse(b.Source)
	}
	return b.prog
}

// Features extracts the static feature vector.
func (b *Benchmark) Features() features.Static {
	return features.Extract(b.Program().Kernel(b.KernelName), b.Program())
}

// Profile derives the simulator execution profile.
func (b *Benchmark) Profile() gpu.KernelProfile {
	counts := clkernel.Count(b.Program().Kernel(b.KernelName), b.Program(), clkernel.Weighted)
	return gpu.KernelProfile{
		Name:           b.Name,
		Counts:         counts,
		WorkItems:      b.WorkItems,
		Coalescing:     b.Coalescing,
		CacheHitRate:   b.CacheHitRate,
		OccupancyScale: b.OccupancyScale,
	}
}

// ByName returns the benchmark with the given name, or an error listing the
// valid names.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q (valid: %v)", name, Names())
}

// Names lists the benchmark names in the paper's Table 2 order.
func Names() []string {
	var out []string
	for _, b := range All() {
		out = append(out, b.Name)
	}
	return out
}

// All returns the twelve test benchmarks, in the paper's Table 2 order
// (sorted by its coverage-difference results).
func All() []*Benchmark {
	return []*Benchmark{
		perlinNoise(), md(), kmeans(), medianFilter(), convolution(),
		blackscholes(), mt(), flte(), matrixMultiply(), bitCompression(),
		aes(), knn(),
	}
}

func perlinNoise() *Benchmark {
	return &Benchmark{
		Name:       "PerlinNoise",
		KernelName: "perlin",
		WorkItems:  1 << 21,
		Coalescing: 1, CacheHitRate: 0.5, OccupancyScale: 1,
		Source: `
float fade(float t) {
    return t * t * t * (t * (t * 6.0f - 15.0f) + 10.0f);
}
float lerp1(float a, float b, float t) {
    return a + t * (b - a);
}
float grad(int h, float x, float y) {
    int hh = h & 7;
    float u = (hh < 4) ? x : y;
    float v = (hh < 4) ? y : x;
    float su = ((hh & 1) == 0) ? u : -u;
    float sv = ((hh & 2) == 0) ? v : -v;
    return su + sv;
}
__kernel void perlin(__global const int* perm, __global float* out,
                     int width, float scale) {
    int gid = get_global_id(0);
    float x = (float)(gid % width) * scale;
    float y = (float)(gid / width) * scale;
    float acc = 0.0f;
    float amp = 1.0f;
    for (int oct = 0; oct < 4; oct++) {
        int xi = (int)x & 255;
        int yi = (int)y & 255;
        float xf = x - floor(x);
        float yf = y - floor(y);
        float u = fade(xf);
        float v = fade(yf);
        int aa = perm[(perm[xi & 255] + yi) & 255];
        int ab = perm[(perm[xi & 255] + yi + 1) & 255];
        int ba = perm[(perm[(xi + 1) & 255] + yi) & 255];
        int bb = perm[(perm[(xi + 1) & 255] + yi + 1) & 255];
        float g1 = grad(aa, xf, yf);
        float g2 = grad(ba, xf - 1.0f, yf);
        float g3 = grad(ab, xf, yf - 1.0f);
        float g4 = grad(bb, xf - 1.0f, yf - 1.0f);
        float x1 = lerp1(g1, g2, u);
        float x2 = lerp1(g3, g4, u);
        acc += lerp1(x1, x2, v) * amp;
        amp *= 0.5f;
        x *= 2.0f;
        y *= 2.0f;
    }
    out[gid] = acc;
}`,
	}
}

func md() *Benchmark {
	return &Benchmark{
		Name:       "MD",
		KernelName: "md_forces",
		WorkItems:  1 << 17,
		Coalescing: 1, CacheHitRate: 0.93, OccupancyScale: 1,
		Source: `
__kernel void md_forces(__global const float4* pos, __global float4* force,
                        int nAtoms, float cutsq, float lj1, float lj2) {
    int i = get_global_id(0);
    float4 p = pos[i];
    float fx = 0.0f; float fy = 0.0f; float fz = 0.0f;
    for (int j = 0; j < 128; j++) {
        float4 q = pos[(i + j + 1) % nAtoms];
        float dx = p.x - q.x;
        float dy = p.y - q.y;
        float dz = p.z - q.z;
        float r2 = dx * dx + dy * dy + dz * dz;
        if (r2 < cutsq) {
            float r2inv = 1.0f / r2;
            float r6inv = r2inv * r2inv * r2inv;
            float f = r2inv * r6inv * (lj1 * r6inv - lj2);
            fx += dx * f;
            fy += dy * f;
            fz += dz * f;
        }
    }
    float4 out;
    out.x = fx; out.y = fy; out.z = fz; out.w = 0.0f;
    force[i] = out;
}`,
	}
}

func kmeans() *Benchmark {
	return &Benchmark{
		Name:       "K-means",
		KernelName: "kmeans_assign",
		WorkItems:  1 << 20,
		Coalescing: 1, CacheHitRate: 0.9, OccupancyScale: 1,
		Source: `
__kernel void kmeans_assign(__global const float* points,
                            __constant float* centroids,
                            __global int* assign,
                            int nPoints, int nClusters) {
    int i = get_global_id(0);
    float px = points[i * 4];
    float py = points[i * 4 + 1];
    float pz = points[i * 4 + 2];
    float pw = points[i * 4 + 3];
    int best = 0;
    float bestDist = 1e30f;
    for (int c = 0; c < 16; c++) {
        float dx = px - centroids[c * 4];
        float dy = py - centroids[c * 4 + 1];
        float dz = pz - centroids[c * 4 + 2];
        float dw = pw - centroids[c * 4 + 3];
        float d = dx * dx + dy * dy + dz * dz + dw * dw;
        if (d < bestDist) {
            bestDist = d;
            best = c;
        }
    }
    assign[i] = best;
}`,
	}
}

func medianFilter() *Benchmark {
	return &Benchmark{
		Name:       "MedianFilter",
		KernelName: "median3x3",
		WorkItems:  1 << 21,
		Coalescing: 0.55, CacheHitRate: 0.55, OccupancyScale: 1,
		Source: `
float minf(float a, float b) { return (a < b) ? a : b; }
float maxf(float a, float b) { return (a > b) ? a : b; }
__kernel void median3x3(__global const float* in, __global float* out,
                        int width, int height) {
    int x = get_global_id(0) % width;
    int y = get_global_id(0) / width;
    int xm = (x > 0) ? x - 1 : 0;
    int xp = (x < width - 1) ? x + 1 : width - 1;
    int ym = (y > 0) ? y - 1 : 0;
    int yp = (y < height - 1) ? y + 1 : height - 1;
    float v0 = in[ym * width + xm];
    float v1 = in[ym * width + x];
    float v2 = in[ym * width + xp];
    float v3 = in[y * width + xm];
    float v4 = in[y * width + x];
    float v5 = in[y * width + xp];
    float v6 = in[yp * width + xm];
    float v7 = in[yp * width + x];
    float v8 = in[yp * width + xp];
    float t;
    t = minf(v1, v2); v2 = maxf(v1, v2); v1 = t;
    t = minf(v4, v5); v5 = maxf(v4, v5); v4 = t;
    t = minf(v7, v8); v8 = maxf(v7, v8); v7 = t;
    t = minf(v0, v1); v1 = maxf(v0, v1); v0 = t;
    t = minf(v3, v4); v4 = maxf(v3, v4); v3 = t;
    t = minf(v6, v7); v7 = maxf(v6, v7); v6 = t;
    t = minf(v1, v2); v2 = maxf(v1, v2); v1 = t;
    t = minf(v4, v5); v5 = maxf(v4, v5); v4 = t;
    t = minf(v7, v8); v8 = maxf(v7, v8); v7 = t;
    v3 = maxf(v0, v3);
    v6 = maxf(v3, v6);
    v5 = minf(v5, v8);
    v2 = minf(v2, v5);
    v4 = maxf(v1, v4);
    v4 = minf(v4, v7);
    v4 = minf(maxf(v2, v4), v6);
    out[y * width + x] = v4;
}`,
	}
}

func convolution() *Benchmark {
	return &Benchmark{
		Name:       "Convolution",
		KernelName: "conv5x5",
		WorkItems:  1 << 21,
		Coalescing: 1, CacheHitRate: 0.88, OccupancyScale: 1,
		Source: `
__kernel void conv5x5(__global const float* in, __constant float* filter,
                      __global float* out, int width, int height) {
    int x = get_global_id(0) % width;
    int y = get_global_id(0) / width;
    float acc = 0.0f;
    for (int fy = 0; fy < 5; fy++) {
        for (int fx = 0; fx < 5; fx++) {
            int ix = x + fx - 2;
            int iy = y + fy - 2;
            if (ix >= 0) {
                if (ix < width) {
                    if (iy >= 0) {
                        if (iy < height) {
                            acc += in[iy * width + ix] * filter[fy * 5 + fx];
                        }
                    }
                }
            }
        }
    }
    out[y * width + x] = acc;
}`,
	}
}

func blackscholes() *Benchmark {
	return &Benchmark{
		Name:       "Blackscholes",
		KernelName: "blackscholes",
		WorkItems:  1 << 22,
		Coalescing: 0.55, CacheHitRate: 0.05, OccupancyScale: 1,
		Source: `
float cnd(float d) {
    float k = 1.0f / (1.0f + 0.2316419f * fabs(d));
    float poly = k * (0.319381530f + k * (-0.356563782f +
        k * (1.781477937f + k * (-1.821255978f + k * 1.330274429f))));
    float w = 0.39894228f * exp(-0.5f * d * d) * poly;
    return (d > 0.0f) ? 1.0f - w : w;
}
__kernel void blackscholes(__global const float* price,
                           __global const float* strike,
                           __global const float* years,
                           __global float* callOut,
                           __global float* putOut,
                           float riskfree, float volatility) {
    int i = get_global_id(0);
    float s = price[i];
    float x = strike[i];
    float t = years[i];
    float sqrtT = sqrt(t);
    float d1 = (log(s / x) + (riskfree + 0.5f * volatility * volatility) * t)
             / (volatility * sqrtT);
    float d2 = d1 - volatility * sqrtT;
    float cndD1 = cnd(d1);
    float cndD2 = cnd(d2);
    float expRT = exp(-riskfree * t);
    callOut[i] = s * cndD1 - x * expRT * cndD2;
    putOut[i] = x * expRT * (1.0f - cndD2) - s * (1.0f - cndD1);
}`,
	}
}

func mt() *Benchmark {
	return &Benchmark{
		Name:       "MT",
		KernelName: "mersenne",
		WorkItems:  1 << 20,
		Coalescing: 0.5, CacheHitRate: 0.05, OccupancyScale: 1,
		Source: `
__kernel void mersenne(__global const uint* state, __global uint* out,
                       int perThread) {
    int gid = get_global_id(0);
    uint s0 = state[gid * 4];
    uint s1 = state[gid * 4 + 1];
    uint s2 = state[gid * 4 + 2];
    uint s3 = state[gid * 4 + 3];
    for (int i = 0; i < 16; i++) {
        uint y = (s0 & 0x80000000u) | (s1 & 0x7fffffffu);
        uint next = s3 ^ (y >> 1);
        if ((y & 1u) != 0u) {
            next = next ^ 0x9908b0dfu;
        }
        uint t = next;
        t = t ^ (t >> 11);
        t = t ^ ((t << 7) & 0x9d2c5680u);
        t = t ^ ((t << 15) & 0xefc60000u);
        t = t ^ (t >> 18);
        out[gid * 16 + i] = t;
        s0 = s1; s1 = s2; s2 = s3; s3 = next;
    }
}`,
	}
}

func flte() *Benchmark {
	return &Benchmark{
		Name:       "Flte",
		KernelName: "fir",
		WorkItems:  1 << 21,
		Coalescing: 1, CacheHitRate: 0.92, OccupancyScale: 1,
		Source: `
__kernel void fir(__global const float* signal, __constant float* taps,
                  __global float* out, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int t = 0; t < 32; t++) {
        acc += signal[i + t] * taps[t];
    }
    out[i] = acc;
}`,
	}
}

func matrixMultiply() *Benchmark {
	return &Benchmark{
		Name:       "MatrixMultiply",
		KernelName: "matmul_tiled",
		WorkItems:  1 << 20,
		Coalescing: 1, CacheHitRate: 0.3, OccupancyScale: 1,
		Source: `
__kernel void matmul_tiled(__global const float* a, __global const float* b,
                           __global float* c, int n) {
    __local float tileA[256];
    __local float tileB[256];
    int row = get_global_id(0) / n;
    int col = get_global_id(0) % n;
    int lrow = get_local_id(0) / 16;
    int lcol = get_local_id(0) % 16;
    float acc = 0.0f;
    for (int t = 0; t < 32; t++) {
        tileA[lrow * 16 + lcol] = a[row * n + t * 16 + lcol];
        tileB[lrow * 16 + lcol] = b[(t * 16 + lrow) * n + col];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < 16; k++) {
            acc += tileA[lrow * 16 + k] * tileB[k * 16 + lcol];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    c[row * n + col] = acc;
}`,
	}
}

func bitCompression() *Benchmark {
	return &Benchmark{
		Name:       "BitCompression",
		KernelName: "bitpack",
		WorkItems:  1 << 21,
		Coalescing: 0.9, CacheHitRate: 0.05, OccupancyScale: 1,
		Source: `
__kernel void bitpack(__global const uint* in, __global uint* out, int n) {
    int gid = get_global_id(0);
    uint w0 = in[gid * 4];
    uint w1 = in[gid * 4 + 1];
    uint w2 = in[gid * 4 + 2];
    uint w3 = in[gid * 4 + 3];
    uint p0 = (w0 & 0xffu) | ((w1 & 0xffu) << 8) |
              ((w2 & 0xffu) << 16) | ((w3 & 0xffu) << 24);
    out[gid] = p0;
}`,
	}
}

func aes() *Benchmark {
	return &Benchmark{
		Name:       "AES",
		KernelName: "aes_round",
		WorkItems:  1 << 20,
		Coalescing: 1, CacheHitRate: 0.35, OccupancyScale: 1,
		Source: `
__kernel void aes_round(__global const uint* in, __global uint* out,
                        __local uint* sbox, __constant uint* roundKeys) {
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    uint s0 = in[gid * 4];
    uint s1 = in[gid * 4 + 1];
    uint s2 = in[gid * 4 + 2];
    uint s3 = in[gid * 4 + 3];
    for (int r = 0; r < 10; r++) {
        uint t0 = sbox[(s0 >> 24) & 255] ^ sbox[(s1 >> 16) & 255]
                ^ sbox[(s2 >> 8) & 255] ^ sbox[s3 & 255];
        uint t1 = sbox[(s1 >> 24) & 255] ^ sbox[(s2 >> 16) & 255]
                ^ sbox[(s3 >> 8) & 255] ^ sbox[s0 & 255];
        uint t2 = sbox[(s2 >> 24) & 255] ^ sbox[(s3 >> 16) & 255]
                ^ sbox[(s0 >> 8) & 255] ^ sbox[s1 & 255];
        uint t3 = sbox[(s3 >> 24) & 255] ^ sbox[(s0 >> 16) & 255]
                ^ sbox[(s1 >> 8) & 255] ^ sbox[s2 & 255];
        s0 = t0 ^ roundKeys[r * 4];
        s1 = t1 ^ roundKeys[r * 4 + 1];
        s2 = t2 ^ roundKeys[r * 4 + 2];
        s3 = t3 ^ roundKeys[r * 4 + 3];
    }
    out[gid * 4] = s0;
    out[gid * 4 + 1] = s1;
    out[gid * 4 + 2] = s2;
    out[gid * 4 + 3] = s3;
}`,
	}
}

func knn() *Benchmark {
	return &Benchmark{
		Name:       "k-NN",
		KernelName: "knn_dist",
		WorkItems:  1 << 19,
		Coalescing: 1, CacheHitRate: 0.92, OccupancyScale: 1,
		Source: `
__kernel void knn_dist(__global const float4* refs, __global const float4* query,
                       __global float* dist, int nRef) {
    int gid = get_global_id(0);
    float4 q = query[gid];
    float best0 = 1e30f;
    float best1 = 1e30f;
    float best2 = 1e30f;
    float best3 = 1e30f;
    for (int j = 0; j < 96; j++) {
        float4 r = refs[j];
        float dx = q.x - r.x;
        float dy = q.y - r.y;
        float dz = q.z - r.z;
        float dw = q.w - r.w;
        float d = sqrt(dx * dx + dy * dy + dz * dz + dw * dw);
        if (d < best0) {
            best3 = best2; best2 = best1; best1 = best0; best0 = d;
        } else if (d < best1) {
            best3 = best2; best2 = best1; best1 = d;
        } else if (d < best2) {
            best3 = best2; best2 = d;
        } else if (d < best3) {
            best3 = d;
        }
    }
    dist[gid * 4] = best0;
    dist[gid * 4 + 1] = best1;
    dist[gid * 4 + 2] = best2;
    dist[gid * 4 + 3] = best3;
}`,
	}
}
