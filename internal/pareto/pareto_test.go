package pareto

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{Speedup: 1, Energy: 0.5}, Point{Speedup: 1, Energy: 0.6}, true},   // same s, less e
		{Point{Speedup: 1.1, Energy: 0.5}, Point{Speedup: 1, Energy: 0.5}, true}, // more s, same e
		{Point{Speedup: 1.1, Energy: 0.4}, Point{Speedup: 1, Energy: 0.5}, true}, // better both
		{Point{Speedup: 1, Energy: 0.5}, Point{Speedup: 1, Energy: 0.5}, false},  // equal
		{Point{Speedup: 1, Energy: 0.6}, Point{Speedup: 1, Energy: 0.5}, false},  // worse e
		{Point{Speedup: 0.9, Energy: 0.4}, Point{Speedup: 1, Energy: 0.5}, false},
		{Point{Speedup: 1.2, Energy: 0.6}, Point{Speedup: 1, Energy: 0.5}, false}, // trade-off
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func frontSet(ps []Point) map[[2]float64]int {
	m := map[[2]float64]int{}
	for _, p := range ps {
		m[[2]float64{p.Speedup, p.Energy}]++
	}
	return m
}

func TestSimpleFront(t *testing.T) {
	pts := []Point{
		{Speedup: 1.0, Energy: 1.0, ID: 0},
		{Speedup: 1.2, Energy: 1.3, ID: 1}, // front: fastest
		{Speedup: 0.8, Energy: 0.7, ID: 2}, // front: frugal
		{Speedup: 0.9, Energy: 1.1, ID: 3}, // dominated by 0
		{Speedup: 1.0, Energy: 1.2, ID: 4}, // dominated by 0
		{Speedup: 0.5, Energy: 0.7, ID: 5}, // dominated by 2
	}
	front := Simple(pts)
	want := map[[2]float64]int{
		{1.0, 1.0}: 1,
		{1.2, 1.3}: 1,
		{0.8, 0.7}: 1,
	}
	got := frontSet(front)
	if len(got) != len(want) {
		t.Fatalf("front = %v, want keys %v", front, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("front missing/miscounting %v", k)
		}
	}
}

// frontOf runs FrontInPlace on a copy of pts and returns the front.
func frontOf(pts []Point) []Point {
	c := append([]Point(nil), pts...)
	return c[:FrontInPlace(c)]
}

// checkFront reports how got, FrontInPlace's output for pts, departs from
// Algorithm 1: it must hold exactly the points Simple keeps (compared by
// ID, so every member of an exact tie counts) and ascend by speedup.
func checkFront(pts, got []Point) error {
	want := Simple(pts)
	ids := map[int]int{}
	for _, p := range want {
		ids[p.ID]++
	}
	for _, p := range got {
		ids[p.ID]--
	}
	for id, n := range ids {
		if n != 0 {
			return fmt.Errorf("point %d: Simple keeps it %+d times more than FrontInPlace\n got %v\nwant %v", id, n, got, want)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Speedup < got[i-1].Speedup {
			return fmt.Errorf("front not ascending by speedup at %d: %v", i, got)
		}
	}
	return nil
}

// TestFrontInPlaceMatchesSimpleProperty checks the front rule against the
// paper's Algorithm 1 over arbitrary quick-generated points.
func TestFrontInPlaceMatchesSimpleProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var pts []Point
		for i := 0; i+1 < len(raw); i += 2 {
			s, e := raw[i], raw[i+1]
			if math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(e) || math.IsInf(e, 0) {
				continue
			}
			// Map into plausible objective ranges.
			pts = append(pts, Point{
				Speedup: math.Mod(math.Abs(s), 1.5),
				Energy:  math.Mod(math.Abs(e), 2.0),
				ID:      i / 2,
			})
		}
		return checkFront(pts, frontOf(pts)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// tieCases are the front's edge cases, as (speedup, energy) pairs in
// units of 1/8: each is a fuzz seed.
var tieCases = [][][2]uint16{
	{},
	{{8, 8}},
	// Strictly improving chain: everything is on the front.
	{{8, 4}, {16, 6}, {24, 10}},
	// A dominated middle point.
	{{8, 4}, {7, 7}, {16, 8}},
	// Equal-speedup group: only the minimal-energy member survives.
	{{8, 6}, {8, 4}, {8, 5}},
	// Exact duplicates in both objectives are all front members.
	{{16, 4}, {16, 4}, {8, 7}},
	// Duplicates that are dominated stay out.
	{{8, 7}, {8, 7}, {16, 4}},
	// A tie group on the front among improving points, out of order.
	{{12, 6}, {4, 2}, {12, 6}, {20, 9}, {12, 6}, {12, 7}},
}

// fuzzPoints decodes fuzz input into finite points, four bytes each: a
// 16-bit speedup and energy in units of 1/8192. A record whose first byte
// is odd is snapped to the 1/8 grid, and one whose first two bytes are
// both zero repeats the previous point, so exact ties and duplicates are
// common.
func fuzzPoints(data []byte) []Point {
	var pts []Point
	for i := 0; i+4 <= len(data); i += 4 {
		s := uint16(data[i])<<8 | uint16(data[i+1])
		e := uint16(data[i+2])<<8 | uint16(data[i+3])
		p := Point{Speedup: float64(s) / 8192, Energy: float64(e) / 8192, ID: len(pts)}
		switch {
		case s == 0 && len(pts) > 0:
			p.Speedup, p.Energy = pts[len(pts)-1].Speedup, pts[len(pts)-1].Energy
		case data[i]&1 == 1:
			p.Speedup, p.Energy = math.Round(p.Speedup*8)/8, math.Round(p.Energy*8)/8
		}
		pts = append(pts, p)
	}
	return pts
}

// FuzzFrontInPlace checks the one front rule against Algorithm 1: the same
// set of points, every exact tie included, in ascending speedup order.
func FuzzFrontInPlace(f *testing.F) {
	for _, c := range tieCases {
		var data []byte
		for _, p := range c {
			s, e := p[0]*1024, p[1]*1024 // 1/8 in units of 1/8192
			data = append(data, byte(s>>8), byte(s), byte(e>>8), byte(e))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		if err := checkFront(pts, frontOf(pts)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFrontMembersNotMutuallyDominating(t *testing.T) {
	f := func(raw [24]float64) bool {
		var pts []Point
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point{
				Speedup: math.Mod(math.Abs(raw[i]), 1.5),
				Energy:  math.Mod(math.Abs(raw[i+1]), 2.0),
			})
		}
		front := frontOf(pts)
		for i := range front {
			for j := range front {
				if i != j && Dominates(front[i], front[j]) {
					return false
				}
			}
		}
		// Every non-front point must be dominated by some front point or
		// be a duplicate of a front point.
		fs := frontSet(front)
		for _, p := range pts {
			if fs[[2]float64{p.Speedup, p.Energy}] > 0 {
				continue
			}
			dominated := false
			for _, fp := range front {
				if Dominates(fp, p) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrontEmptyAndSingle(t *testing.T) {
	if got := Simple(nil); len(got) != 0 {
		t.Errorf("Simple(nil) = %v", got)
	}
	if got := FrontInPlace(nil); got != 0 {
		t.Errorf("FrontInPlace(nil) = %d", got)
	}
	one := []Point{{Speedup: 1, Energy: 1, ID: 7}}
	if got := frontOf(one); len(got) != 1 || got[0].ID != 7 {
		t.Errorf("FrontInPlace(single) = %v", got)
	}
}

func TestDuplicatesKept(t *testing.T) {
	pts := []Point{
		{Speedup: 1, Energy: 1, ID: 0},
		{Speedup: 1, Energy: 1, ID: 1},
		{Speedup: 0.5, Energy: 1.5, ID: 2},
	}
	for name, fn := range map[string]func([]Point) []Point{"Simple": Simple, "FrontInPlace": frontOf} {
		front := fn(pts)
		if len(front) != 2 {
			t.Errorf("%s kept %d points, want both duplicates", name, len(front))
		}
	}
}

func TestHypervolumeRectangles(t *testing.T) {
	// Single point (1, 1) vs ref (0, 2): area 1x1 = 1.
	hv := Hypervolume([]Point{{Speedup: 1, Energy: 1}}, RefPoint)
	if math.Abs(hv-1) > 1e-12 {
		t.Errorf("HV = %v, want 1", hv)
	}
	// Two-point staircase: (1, 1) and (0.5, 0.5).
	// Area = 1*(2-1) [s in 0.5..1 at e=1... actually s in (0.5,1]] plus ...
	// Sweep: (1,1) contributes (1-0.5)*(2-1)=0.5; (0.5,0.5) contributes
	// (0.5-0)*(2-0.5)=0.75. Total 1.25.
	hv = Hypervolume([]Point{
		{Speedup: 1, Energy: 1},
		{Speedup: 0.5, Energy: 0.5},
	}, RefPoint)
	if math.Abs(hv-1.25) > 1e-12 {
		t.Errorf("HV = %v, want 1.25", hv)
	}
	// Dominated points must not change the volume.
	hv2 := Hypervolume([]Point{
		{Speedup: 1, Energy: 1},
		{Speedup: 0.5, Energy: 0.5},
		{Speedup: 0.4, Energy: 1.9},
	}, RefPoint)
	if math.Abs(hv2-hv) > 1e-12 {
		t.Errorf("dominated point changed HV: %v vs %v", hv2, hv)
	}
}

func TestHypervolumeClipsOutside(t *testing.T) {
	// A point worse than the reference in energy contributes nothing.
	hv := Hypervolume([]Point{{Speedup: 1, Energy: 2.5}}, RefPoint)
	if hv != 0 {
		t.Errorf("HV = %v, want 0 for point outside reference box", hv)
	}
}

func TestHypervolumeMonotoneProperty(t *testing.T) {
	// Adding points never decreases hypervolume.
	f := func(raw [20]float64, extraS, extraE float64) bool {
		var pts []Point
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point{
				Speedup: math.Mod(math.Abs(raw[i]), 1.5),
				Energy:  math.Mod(math.Abs(raw[i+1]), 2.0),
			})
		}
		base := Hypervolume(pts, RefPoint)
		more := append(pts, Point{
			Speedup: math.Mod(math.Abs(extraS), 1.5),
			Energy:  math.Mod(math.Abs(extraE), 2.0),
		})
		return Hypervolume(more, RefPoint) >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCoverageDifference(t *testing.T) {
	ref := []Point{{Speedup: 1.2, Energy: 0.9}, {Speedup: 0.9, Energy: 0.7}}
	// Perfect approximation: zero difference.
	if d := CoverageDifference(ref, ref); d != 0 {
		t.Errorf("D(P*, P*) = %v, want 0", d)
	}
	// Superset approximation also covers everything.
	super := append([]Point{{Speedup: 1.3, Energy: 1.0}}, ref...)
	if d := CoverageDifference(ref, super); d != 0 {
		t.Errorf("D(P*, superset) = %v, want 0", d)
	}
	// Missing the fast extreme leaves uncovered volume.
	partial := []Point{{Speedup: 0.9, Energy: 0.7}}
	d := CoverageDifference(ref, partial)
	// Missing volume: (1.2-0.9)*(2-0.9) = 0.33.
	if math.Abs(d-0.33) > 1e-9 {
		t.Errorf("D = %v, want 0.33", d)
	}
}

func TestCoverageDifferenceNonNegativeProperty(t *testing.T) {
	f := func(raw [16]float64) bool {
		var a, b []Point
		for i := 0; i+1 < len(raw); i += 2 {
			p := Point{
				Speedup: math.Mod(math.Abs(raw[i]), 1.5),
				Energy:  math.Mod(math.Abs(raw[i+1]), 2.0),
			}
			if i%4 == 0 {
				a = append(a, p)
			} else {
				b = append(b, p)
			}
		}
		return CoverageDifference(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtremes(t *testing.T) {
	pts := []Point{
		{Speedup: 1.0, Energy: 1.0, ID: 0},
		{Speedup: 1.2, Energy: 1.3, ID: 1},
		{Speedup: 0.8, Energy: 0.7, ID: 2},
	}
	maxS, minE, ok := Extremes(pts)
	if !ok {
		t.Fatal("Extremes not ok")
	}
	if maxS.ID != 1 {
		t.Errorf("max speedup ID = %d, want 1", maxS.ID)
	}
	if minE.ID != 2 {
		t.Errorf("min energy ID = %d, want 2", minE.ID)
	}
	if _, _, ok := Extremes(nil); ok {
		t.Error("Extremes(nil) reported ok")
	}
}

func TestExtremesTieBreak(t *testing.T) {
	pts := []Point{
		{Speedup: 1.2, Energy: 1.3, ID: 0},
		{Speedup: 1.2, Energy: 1.1, ID: 1}, // same speedup, less energy: preferred
		{Speedup: 0.7, Energy: 0.7, ID: 2},
		{Speedup: 0.9, Energy: 0.7, ID: 3}, // same energy, more speedup: preferred
	}
	maxS, minE, _ := Extremes(pts)
	if maxS.ID != 1 {
		t.Errorf("max speedup tie-break ID = %d, want 1", maxS.ID)
	}
	if minE.ID != 3 {
		t.Errorf("min energy tie-break ID = %d, want 3", minE.ID)
	}
}

func TestExtremesDistance(t *testing.T) {
	ref := []Point{{Speedup: 1.2, Energy: 1.3}, {Speedup: 0.8, Energy: 0.7}}
	approx := []Point{{Speedup: 1.15, Energy: 1.25}, {Speedup: 0.85, Energy: 0.72}}
	d, ok := ExtremesDistance(ref, approx)
	if !ok {
		t.Fatal("not ok")
	}
	if math.Abs(d.MaxSpeedupDS-0.05) > 1e-12 || math.Abs(d.MaxSpeedupDE-0.05) > 1e-12 {
		t.Errorf("max speedup distance = (%v, %v), want (0.05, 0.05)", d.MaxSpeedupDS, d.MaxSpeedupDE)
	}
	if math.Abs(d.MinEnergyDS-0.05) > 1e-12 || math.Abs(d.MinEnergyDE-0.02) > 1e-12 {
		t.Errorf("min energy distance = (%v, %v), want (0.05, 0.02)", d.MinEnergyDS, d.MinEnergyDE)
	}
	if _, ok := ExtremesDistance(ref, nil); ok {
		t.Error("empty approximation reported ok")
	}
}

func TestFrontSorted(t *testing.T) {
	pts := []Point{
		{Speedup: 1.2, Energy: 1.3},
		{Speedup: 0.8, Energy: 0.7},
		{Speedup: 1.0, Energy: 1.0},
	}
	front := frontOf(pts)
	if !sort.SliceIsSorted(front, func(i, j int) bool {
		return front[i].Speedup < front[j].Speedup
	}) {
		t.Errorf("front not sorted by speedup: %v", front)
	}
}
