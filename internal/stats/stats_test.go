package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical streams")
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	s1 := DeriveSeed(7, 0)
	s2 := DeriveSeed(7, 1)
	if s1 == s2 {
		t.Error("derived seeds collide")
	}
	if DeriveSeed(7, 0) != s1 {
		t.Error("DeriveSeed not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(2)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestInt64n(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		v := r.Int64n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int64n out of range: %d", v)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(4)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestUniformMean(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(6)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Error("split streams collide on first draw")
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample must be all zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Error("N wrong")
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Known dataset: population stddev 2, sample variance 32/7.
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, 32.0/7)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if s.SE() <= 0 || s.CI95() <= 0 {
		t.Error("SE/CI must be positive for non-degenerate sample")
	}
}

// Percentile pins the /healthz p95 gauge's rank rule, ⌊95n/100⌋ clamped
// to n-1, so the autoscaler's input is stable for an identical latency
// window.
func TestPercentile(t *testing.T) {
	oldP95 := func(window []float64) float64 {
		i := (len(window) * 95) / 100
		if i >= len(window) {
			i = len(window) - 1
		}
		return window[i]
	}
	for _, n := range []int{1, 19, 20, 100, 512} {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if got, want := Percentile(sorted, 95), oldP95(sorted); got != want {
			t.Errorf("n=%d: Percentile(95) = %v, want %v", n, got, want)
		}
		if got := Percentile(sorted, 100); got != sorted[n-1] {
			t.Errorf("n=%d: Percentile(100) = %v, want max %v", n, got, sorted[n-1])
		}
		if got := Percentile(sorted, 0); got != sorted[0] {
			t.Errorf("n=%d: Percentile(0) = %v, want min %v", n, got, sorted[0])
		}
	}
	if got := Percentile(nil, 95); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

// Property: mean lies within [min, max]; variance is non-negative.
func TestSampleProperties(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			// Keep magnitudes sane to avoid float overflow in Var.
			if math.Abs(x) > 1e100 {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9 && s.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
