package workload

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/timeu"
)

func TestCandidateRespectsConfig(t *testing.T) {
	g := NewGenerator(DefaultConfig(), 1)
	for i := 0; i < 200; i++ {
		s, err := g.Candidate(0.4)
		if err != nil {
			continue // infeasible draws are expected occasionally
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("generated set invalid: %v", err)
		}
		if n := s.N(); n < 5 || n > 10 {
			t.Fatalf("set size %d outside [5,10]", n)
		}
		for _, tk := range s.Tasks {
			if tk.Period < 5*timeu.Millisecond || tk.Period > 50*timeu.Millisecond {
				t.Fatalf("period %v outside [5,50]ms", tk.Period)
			}
			if tk.Period%timeu.Millisecond != 0 {
				t.Fatalf("period %v not whole ms", tk.Period)
			}
			if tk.K < 2 || tk.K > 20 {
				t.Fatalf("k = %d outside [2,20]", tk.K)
			}
			if tk.M < 1 || tk.M >= tk.K {
				t.Fatalf("(m,k) = (%d,%d) violates 0<m<k", tk.M, tk.K)
			}
			if tk.Deadline != tk.Period {
				t.Fatalf("deadline != period")
			}
		}
	}
}

func TestCandidateHitsUtilizationTarget(t *testing.T) {
	g := NewGenerator(DefaultConfig(), 2)
	var sum float64
	n := 0
	for i := 0; i < 200; i++ {
		s, err := g.Candidate(0.5)
		if err != nil {
			continue
		}
		sum += s.MKUtilization()
		n++
	}
	if n == 0 {
		t.Fatal("no feasible candidates at U=0.5")
	}
	// Rounding and the WCET floor perturb each set slightly; the mean
	// must track the target closely.
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean (m,k)-utilization %v, want ~0.5", mean)
	}
}

func TestCandidateRejectsBadTarget(t *testing.T) {
	g := NewGenerator(DefaultConfig(), 3)
	if _, err := g.Candidate(0); err == nil {
		t.Error("zero target must error")
	}
	if _, err := g.Candidate(-1); err == nil {
		t.Error("negative target must error")
	}
}

// TestCandidateInfeasibleMessage pins the text of Candidate's infeasible
// error, which is formatted only when asked for, and the draw that
// produces it: the second candidate of seed 2020 at U=0.9.
func TestCandidateInfeasibleMessage(t *testing.T) {
	g := NewGenerator(DefaultConfig(), 2020)
	if _, err := g.Candidate(0.9); err != nil {
		t.Fatalf("first candidate: %v, want a feasible set", err)
	}
	_, err := g.Candidate(0.9)
	var inf *infeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("second candidate: err = %v, want an infeasible-task error", err)
	}
	const want = "workload: task 1 infeasible (C=47.757ms > D=12ms)"
	if got := err.Error(); got != want {
		t.Errorf("message = %q, want %q", got, want)
	}
	frac := &infeasibleError{task: 7, wcet: 10*timeu.Millisecond + 500*timeu.Microsecond, deadline: 10 * timeu.Millisecond}
	if got, want := frac.Error(), "workload: task 7 infeasible (C=10.5ms > D=10ms)"; got != want {
		t.Errorf("message = %q, want %q", got, want)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(DefaultConfig(), 42)
	b := NewGenerator(DefaultConfig(), 42)
	sa, ea := a.Candidate(0.3)
	sb, eb := b.Candidate(0.3)
	if (ea == nil) != (eb == nil) {
		t.Fatal("determinism broken (error)")
	}
	if ea == nil && sa.String() != sb.String() {
		t.Fatal("determinism broken (content)")
	}
}

func TestIntervals(t *testing.T) {
	ivs := Intervals(0.1, 1.0, 0.1)
	if len(ivs) != 9 {
		t.Fatalf("got %d intervals, want 9", len(ivs))
	}
	if ivs[0].Lo != 0.1 || math.Abs(ivs[8].Hi-1.0) > 1e-9 {
		t.Errorf("bounds wrong: %v .. %v", ivs[0], ivs[8])
	}
	if math.Abs(ivs[0].Mid()-0.15) > 1e-9 {
		t.Errorf("Mid = %v", ivs[0].Mid())
	}
	if ivs[0].String() != "[0.10,0.20)" {
		t.Errorf("String = %q", ivs[0].String())
	}
}

func TestGenerateIntervalLowUtil(t *testing.T) {
	g := NewGenerator(DefaultConfig(), 7)
	res := g.GenerateInterval(Interval{0.2, 0.3}, 5, 2000)
	if len(res.Sets) != 5 {
		t.Fatalf("got %d sets (candidates %d), want 5", len(res.Sets), res.Candidates)
	}
	for _, s := range res.Sets {
		u := s.MKUtilization()
		if u < 0.2 || u >= 0.3 {
			t.Errorf("set utilization %v outside bucket", u)
		}
		if !g.Schedulable(s) {
			t.Error("unschedulable set accepted")
		}
	}
}

func TestGenerateIntervalGivesUp(t *testing.T) {
	// Absurd bucket: utilization near 2 cannot be R-pattern schedulable
	// (mandatory bursts exceed the processor); the generator must stop at
	// the candidate cap, not loop forever.
	g := NewGenerator(DefaultConfig(), 8)
	res := g.GenerateInterval(Interval{1.9, 2.0}, 5, 50)
	if res.Candidates != 50 {
		t.Errorf("candidates = %d, want cap 50", res.Candidates)
	}
	if len(res.Sets) != 0 {
		t.Errorf("got %d sets at U≈2, want 0", len(res.Sets))
	}
}

func TestSchedulableFilterMatters(t *testing.T) {
	// At high utilization most candidates are rejected; verify the filter
	// is actually doing work (acceptance strictly below 100%).
	g := NewGenerator(DefaultConfig(), 9)
	res := g.GenerateInterval(Interval{0.7, 0.8}, 3, 3000)
	if res.Candidates == len(res.Sets) {
		t.Errorf("filter accepted everything at U=0.7 (%d sets)", len(res.Sets))
	}
}

func TestHarmonicPeriods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HarmonicPeriods = true
	g := NewGenerator(cfg, 4)
	menuP := map[timeu.Time]bool{}
	for _, p := range harmonicPeriodMenu {
		menuP[p] = true
	}
	menuK := map[int]bool{}
	for _, k := range harmonicKMenu {
		menuK[k] = true
	}
	for i := 0; i < 100; i++ {
		s, err := g.Candidate(0.4)
		if err != nil {
			continue
		}
		for _, tk := range s.Tasks {
			if !menuP[tk.Period] {
				t.Fatalf("period %v not in harmonic menu", tk.Period)
			}
			if !menuK[tk.K] {
				t.Fatalf("k %d not in harmonic menu", tk.K)
			}
		}
		// The whole point: the (m,k)-hyperperiod stays tractable.
		if h := s.MKHyperperiod(10 * timeu.Second); h >= 10*timeu.Second {
			t.Fatalf("harmonic hyperperiod saturated: %v", h)
		}
	}
}

// sinkInterval keeps BenchmarkGenerateInterval's result live.
var sinkInterval IntervalResult

// BenchmarkGenerateInterval is the generation layer's benchmark: one
// whole Fig-6 interval draw (rejection sampling plus the R-pattern
// filter, 20 sets or 5000 candidates) from the default generator at seed
// 2020, in a low, a mid and a high bucket.
func BenchmarkGenerateInterval(b *testing.B) {
	for _, iv := range []Interval{{0.1, 0.2}, {0.5, 0.6}, {0.9, 1.0}} {
		b.Run(fmt.Sprintf("u=%.2f", iv.Mid()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInterval = NewGenerator(DefaultConfig(), 2020).GenerateInterval(iv, 20, 5000)
			}
			b.ReportMetric(float64(sinkInterval.Candidates), "candidates")
			b.ReportMetric(float64(len(sinkInterval.Sets)), "sets")
		})
	}
}
