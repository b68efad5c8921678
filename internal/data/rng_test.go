package data

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d times in 1000 draws", same)
	}
}

func TestRNGKnownValues(t *testing.T) {
	// Pin the splitmix64 stream so accidental algorithm changes are caught:
	// these values must never change, or every benchmark becomes
	// incomparable across versions.
	r := NewRNG(0)
	want := []uint64{
		0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Errorf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %f", got)
	}
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1.1) {
		t.Error("Bool(>1) must be true")
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Zipf(10, 1.5)
		if v < 0 || v >= 10 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("Zipf not skewed: first=%d last=%d", counts[0], counts[9])
	}
	if got := r.Zipf(1, 1.5); got != 0 {
		t.Errorf("Zipf(1) = %d", got)
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewRNG(100)
	f1 := a.Fork()
	// Consuming from the fork must not perturb the parent.
	b := NewRNG(100)
	_ = b.Fork()
	for i := 0; i < 100; i++ {
		f1.Uint64()
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("fork consumption perturbed parent stream")
		}
	}
}

func TestForkStreamsDiffer(t *testing.T) {
	a := NewRNG(100)
	f1, f2 := a.Fork(), a.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("sibling forks collided %d/100 draws", same)
	}
}

// Property: Intn stays in range for arbitrary positive n and seeds.
func TestIntnProperty(t *testing.T) {
	prop := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
