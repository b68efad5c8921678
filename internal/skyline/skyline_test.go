package skyline

import (
	"reflect"
	"testing"
	"testing/quick"

	"poiesis/internal/data"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{0, 0}, true},
		{[]float64{1, 0}, []float64{0, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict gain
		{[]float64{1, 2}, []float64{1, 1}, true},
		{[]float64{0, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

func TestKnownSkyline(t *testing.T) {
	pts := [][]float64{
		{1, 1, 1}, // 0: dominated by 3
		{5, 0, 0}, // 1: skyline
		{0, 5, 0}, // 2: skyline
		{2, 2, 2}, // 3: skyline
		{2, 2, 1}, // 4: dominated by 3
		{5, 0, 0}, // 5: duplicate of 1 -> also skyline (no strict dominator)
	}
	want := []int{1, 2, 3, 5}
	if got := Naive(pts); !reflect.DeepEqual(got, want) {
		t.Errorf("Naive = %v, want %v", got, want)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if got := Naive(nil); len(got) != 0 {
		t.Errorf("Naive(nil) = %v", got)
	}
	if got := Naive([][]float64{{1, 2}}); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("single point skyline = %v", got)
	}
}

// skylineProperties checks the two defining properties of a skyline:
// (1) no member is dominated; (2) every non-member is dominated by a member.
func skylineProperties(pts [][]float64, sky []int) bool {
	in := map[int]bool{}
	for _, i := range sky {
		in[i] = true
	}
	for _, i := range sky {
		for j := range pts {
			if i != j && Dominates(pts[j], pts[i]) {
				return false
			}
		}
	}
	for i := range pts {
		if in[i] {
			continue
		}
		dominated := false
		for _, j := range sky {
			if Dominates(pts[j], pts[i]) {
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

func TestSkylinePropertiesRandom(t *testing.T) {
	prop := func(seed uint64, n uint8, d uint8) bool {
		rng := data.NewRNG(seed)
		dims := int(d%4) + 2
		count := int(n%100) + 1
		pts := make([][]float64, count)
		for i := range pts {
			pts[i] = make([]float64, dims)
			for j := range pts[i] {
				pts[i][j] = float64(rng.Intn(10))
			}
		}
		return skylineProperties(pts, Naive(pts))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSkylineShrinksSpace(t *testing.T) {
	// On anti-correlated random data the skyline is a strict subset.
	rng := data.NewRNG(11)
	pts := make([][]float64, 2000)
	for i := range pts {
		x := rng.Float64()
		pts[i] = []float64{x, 1 - x + 0.1*rng.Float64(), rng.Float64()}
	}
	sky := Naive(pts)
	if len(sky) == 0 || len(sky) >= len(pts) {
		t.Errorf("skyline size = %d of %d", len(sky), len(pts))
	}
}

func randomPoints(rng *data.RNG, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

func BenchmarkNaive1k3d(b *testing.B) {
	pts := randomPoints(data.NewRNG(1), 1000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Naive(pts)
	}
}
