package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples (the epsilon keeps q*n from rounding up past an exact rank).
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))-1]
}

// median is the middle value of xs (the mean of the middle two for an even
// count), sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9}

// tailLevel picks the highest percentile that has at least ten samples
// beyond it in a sample of n, or 1 (the maximum) when none does.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if n-rank(q, n) >= 10 {
			return q
		}
	}
	return 1
}

// levelName renders a tail level as "p99", "p99.9" or "max".
func levelName(q float64) string {
	if q >= 1 {
		return "max"
	}
	return "p" + strconv.FormatFloat(100*q, 'f', -1, 64)
}

// latency summarizes one latency series in milliseconds: its median, and
// its tail at the level tailLevel picks for the sample size.
type latency struct {
	n      int
	p50    float64
	tail   float64
	tailAt float64
}

func summarize(ds []time.Duration) latency {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	l := latency{n: len(xs), tailAt: tailLevel(len(xs))}
	l.p50 = median(xs)
	l.tail = quantile(xs, l.tailAt)
	return l
}

func (l latency) String() string {
	return fmt.Sprintf("p50 %.4g ms, %s %.4g ms (n=%d)", l.p50, levelName(l.tailAt), l.tail, l.n)
}

// describe renders a sample's median and range.
func describe(xs []float64) string {
	if len(xs) == 0 {
		return "no samples"
	}
	c := append([]float64(nil), xs...)
	m := median(c)
	return fmt.Sprintf("median %.4g, min %.4g, max %.4g (n=%d)", m, c[0], c[len(c)-1], len(c))
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// parseStat extracts the user and system CPU time a /proc/<pid>/stat line
// reports. The command name (field 2) is parenthesized and may itself
// contain spaces and parentheses, so fields are counted from the last ')'.
func parseStat(line []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %.80q", line)
	}
	f := bytes.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(string(s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %v", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// cpuTime reads a process's consumed CPU time (user + system, all threads).
func cpuTime(pid int) (time.Duration, error) {
	line, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStat(line)
}
